"""Forward-graph memory of one masked pretraining step at the reference config.

Builds one masked pretraining step (reference model config, float32, the
bundled 62-channel montage, 2 x --per-view random feature samples, dropout
on) and prints two tables:

- the bytes the forward graph keeps, by node op and kept array.  Every
  distinct base buffer that a node output, a node's backward closure or its
  rebuild closure references is counted once; parameters are left out, and
  so are the outputs the encoder has released.  A buffer belongs to the
  node whose output it is, else to the first node (in forward order) whose
  closure holds it, named after the closure variable;
- each node's backward peak (tracemalloc) above the memory held when that
  node's backward starts, largest first.

Between them it prints the traced peak of each phase, the forward pass's
and the backward sweep's, so it shows which of the two sets the step's peak.

Usage: PYTHONPATH=src python scripts/graph_memory.py [--per-view 256] [--top 12]
"""

import argparse
import collections
import tracemalloc

import numpy as np

from eegtransfer import autodiff as ad
from eegtransfer import losses as ls
from eegtransfer import model as M
from eegtransfer.config import ModelConfig
from eegtransfer.montage import default_montage

MB = 1 << 20


def base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def forward_order(root):
    """Non-leaf nodes behind `root`, each after its parents."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents)
    return order


def closure_arrays(fn):
    """(variable name, ndarray) for each array a closure holds, directly or
    in a tuple."""
    if fn is None:
        return
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        try:
            value = cell.cell_contents
        except ValueError:  # a name this node's form never binds
            continue
        for a in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(a, np.ndarray):
                yield name, a


def masked_step(per_view):
    dta = M.init_parameters(ModelConfig(), seed=0, dtype=np.float32)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2 * per_view, len(default_montage()), dta.config.n_bands))
    labels = np.arange(per_view) % dta.config.n_classes
    enc = M.encode(x.astype(np.float32), default_montage().positions, dta, mask_diagonal=True,
                   rng=rng)
    z = M.project(enc, dta, train=True, rng=rng)
    loss = ls.contrastive_loss(z, labels)
    return dta, loss


def graph_bytes(nodes, params):
    """(op, array name) -> [bytes, buffers] over the distinct base buffers
    the graph keeps, parameters excluded."""
    owner = {id(base(t.data)): None for t in params}
    arrays = [(t, "out", t.data) for t in nodes if t.data is not None]
    for t in nodes:
        for fn in (t._backward, t._rebuild):
            arrays.extend((t, name, a) for name, a in closure_arrays(fn))
    table = collections.defaultdict(lambda: [0, 0])
    for t, name, a in arrays:
        b = base(a)
        if id(b) in owner:
            continue
        owner[id(b)] = b  # held, so the id stays unique
        row = table[(t._op, name)]
        row[0] += b.nbytes
        row[1] += 1
    return table


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--per-view", type=int, default=256, help="samples per view (default 256)")
    p.add_argument("--top", type=int, default=12, help="backward peaks to list (default 12)")
    args = p.parse_args()

    tracemalloc.start()
    dta, loss = masked_step(args.per_view)
    forward_peak = tracemalloc.get_traced_memory()[1]
    nodes = forward_order(loss)
    params = [t for _, t in dta.params.items()]
    table = graph_bytes([t for t in nodes if t._parents], params)
    total = sum(b for b, _ in table.values())
    print(f"masked step, B = {2 * args.per_view}, {ad._workers} worker(s): "
          f"{sum(1 for t in nodes if t._parents)} tape nodes, forward graph {total / MB:.1f} MB")
    print(f"{'op':<15} {'array':<8} {'MB':>8} {'buffers':>8}")
    for (op, name), (nbytes, count) in sorted(table.items(), key=lambda kv: -kv[1][0]):
        print(f"{op:<15} {name:<8} {nbytes / MB:8.2f} {count:8d}")

    seen = collections.Counter()
    peaks = []
    sweep_peak = [0]
    for t in nodes:
        if t._backward is None:
            continue
        seen[t._op] += 1
        label = f"{t._op}#{seen[t._op]}"

        def measured(fn=t._backward, label=label):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            peak = tracemalloc.get_traced_memory()[1]
            sweep_peak[0] = max(sweep_peak[0], peak)
            peaks.append((peak - start, label, start))
        t._backward = measured
    held = tracemalloc.get_traced_memory()[0]
    loss.backward()
    tracemalloc.stop()
    print(f"\nphase peaks (traced): forward {forward_peak / MB:.1f} MB, "
          f"backward sweep {sweep_peak[0] / MB:.1f} MB")
    print(f"backward: {held / MB:.1f} MB held before the sweep")
    print(f"{'node':<18} {'peak above start MB':>20} {'held at start MB':>17}")
    for rise, label, start in sorted(peaks, reverse=True)[:args.top]:
        print(f"{label:<18} {rise / MB:20.2f} {start / MB:17.1f}")


if __name__ == "__main__":
    main()
