"""Per-layer spans recorded from outside the program.

The tracer replaces functions of the ``eegtransfer`` modules with timing
wrappers, at the attribute the caller looks the name up through (for
example ``autodiff.softmax``, which ``model`` calls as ``ad.softmax``, or
``dsp.nearest_neighbor``, which ``detect_bad_channels`` calls by its
imported name).  Each wrapper records a span (name, start, end, parent span,
unit id) in flat arrays kept in memory until the run ends.  Backward time
per op comes from wrapping the ``_backward`` closure of every node an op
returns.  Names the program no longer has are skipped, so their metrics read
0 rather than failing the run.

Self time is a span's duration minus the part covered by spans of the same
layer nested in it; calls into lower layers count as self time.  So
``model.encode.self_ms`` holds the shared K/V projection and head split (the
autodiff ops ``encode`` calls directly), not just Python glue.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

import numpy as np

clock = time.perf_counter

SETUP, TIMED = 0, 1

# (module attribute path, attribute, span name)
CALLS = (
    ("model", "embed_positions", "model.embed_positions"),
    ("model", "embed_source", "model.embed_source"),
    ("model", "init_inputs", "model.init_inputs"),
    ("model", "masked_attention", "model.masked_attention"),
    ("model", "encoder_layer", "model.encoder_layer"),
    ("model", "encode", "model.encode"),
    ("model", "project", "model.project"),
    ("model", "classify", "model.classify"),
    ("model.DtaParameters", "copy", "model.params_copy"),
    ("training", "contrastive_loss", "losses.contrastive_loss"),
    ("training", "cross_entropy", "losses.cross_entropy"),
    ("training", "evaluate_accuracy", "training.evaluate_accuracy"),
    ("dsp", "preprocess_trial", "dsp.preprocess_trial"),
    ("dsp", "bandpass", "dsp.bandpass"),
    ("dsp", "notch", "dsp.notch"),
    ("dsp", "extract_de", "dsp.extract_de"),
    ("dsp", "reject_bad_segments", "dsp.reject_bad_segments"),
    ("dsp", "smooth_samples", "dsp.smooth_samples"),
    ("dsp", "nearest_neighbor", "montage.nearest_neighbor"),
    ("data_io", "gen_synthetic", "data_io.gen_synthetic"),
    ("data_io", "read_bank", "data_io.read_bank"),
    ("data_io", "load_checkpoint", "data_io.load_checkpoint"),
    ("autodiff.Tensor", "backward", "autodiff.backward"),
)

# metric op name -> autodiff function name
OPS = {
    "matmul": "matmul", "softmax": "softmax", "layer_norm": "layer_norm",
    "elu": "elu", "dropout": "dropout", "add": "add", "mul": "mul",
    "power": "power", "sum": "tsum", "reshape": "reshape",
    "swapaxes": "swapaxes", "narrow": "narrow", "softplus": "softplus",
    "logsumexp": "logsumexp",
}

# every per-layer metric a traced run reports: name -> unit.  `.ms`,
# `.self_ms`, `.fwd_ms` and `.bwd_ms` are mean milliseconds per call;
# `.calls`, `fwd_bytes`, `bytes_written` and `bad_channels` are per unit of
# the workload (pretrain step, new_subject cycle, extract trial).
PER_LAYER = {
    "augment.make_views.ms": "ms",
    "model.embed_positions.ms": "ms",
    "model.embed_source.ms": "ms",
    "model.init_inputs.ms": "ms",
    "model.encode.self_ms": "ms",
    "model.masked_attention.ms": "ms",
    "model.encoder_layer.self_ms": "ms",
    "model.project.ms": "ms",
    "model.classify.ms": "ms",
    "model.params_copy.ms": "ms",
    **{f"autodiff.{op}.{kind}": unit for op in OPS
       for kind, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"), ("calls", "count"))},
    "autodiff.backward.ms": "ms",
    "autodiff.tape_nodes": "count",
    "autodiff.fwd_bytes": "B",
    "losses.contrastive_loss.ms": "ms",
    "losses.cross_entropy.ms": "ms",
    "training.pretrain_step.ms": "ms",
    "training.pretrain_step.ms_max": "ms",
    "training.pretrain_step.count": "count",
    "training.adam_step.ms": "ms",
    "training.evaluate_accuracy.ms": "ms",
    "training.calibrate.epochs_run": "count",
    "training.calibrate.best_epoch": "count",
    "dsp.preprocess_trial.self_ms": "ms",
    "dsp.detect_bad_channels.ms": "ms",
    "dsp.bandpass.ms": "ms",
    "dsp.bandpass.calls": "count",
    "dsp.notch.ms": "ms",
    "dsp.extract_de.self_ms": "ms",
    "dsp.reject_bad_segments.ms": "ms",
    "dsp.smooth_samples.ms": "ms",
    "dsp.bad_channels": "count",
    "montage.nearest_neighbor.ms": "ms",
    "montage.nearest_neighbor.calls": "count",
    "data_io.gen_synthetic.ms": "ms",
    "data_io.write_bank.ms": "ms",
    "data_io.read_bank.ms": "ms",
    "data_io.save_checkpoint.ms": "ms",
    "data_io.load_checkpoint.ms": "ms",
    "data_io.bytes_written": "B",
    "checks.error_rate": "ratio",
    "trace.overhead_pct": "%",
}

# spans aggregated over set-up and timed phases alike; all others over the
# timed phase only (set-up also filters and pretrains)
ALL_PHASES = ("data_io.gen_synthetic", "data_io.save_checkpoint",
              "data_io.load_checkpoint")


def _resolve(modules, path):
    obj = modules
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def path_bytes(path):
    """Size of a file, or of all files under a directory."""
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(path) for f in files)
    return os.path.getsize(path)


class Tracer:
    """Spans and counts of one run, plus the patches that produce them."""

    def __init__(self, modules):
        self._modules = modules
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._unit = array("q")
        self._phase = array("b")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._step = None
        self.unit_id = 0
        self.phase = SETUP
        self.counts = defaultdict(float)
        self.step_ms: list[float] = []

    # -- spans ---------------------------------------------------------------
    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        idx = len(self._name)
        self._name.append(nid)
        self._start.append(clock())
        self._end.append(0.0)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._unit.append(self.unit_id)
        self._phase.append(self.phase)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self._end[idx] = clock()
        if self._stack.pop() != idx:
            raise RuntimeError("tracer span stack out of order")

    # -- wrappers ------------------------------------------------------------
    def _span_call(self, name, fn, after=None):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def _timed_backward(self, nid, fn):
        def run():
            idx = self.open(nid)
            try:
                fn()
            finally:
                self.close(idx)
        run.traced = True
        return run

    def _span_op(self, op, fn):
        fwd = self._intern(f"autodiff.{op}.fwd")
        bwd = self._intern(f"autodiff.{op}.bwd")

        def traced(*args, **kwargs):
            idx = self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            back = getattr(out, "_backward", None)
            # a composite op (dropout) returns a node its inner op already wrapped
            if back is not None and not getattr(back, "traced", False):
                out._backward = self._timed_backward(bwd, back)
            return out
        traced.__wrapped__ = fn
        return traced

    def _count_nodes(self, fn):
        counts = self.counts

        def make(data, parents, op):
            out = fn(data, parents, op)
            if out.data.flags.owndata:  # views compute nothing
                counts["autodiff.fwd_bytes"] += out.data.nbytes
            if out._parents:
                counts["autodiff.tape_nodes"] += 1
            return out
        return make

    def _step_open(self, fn):
        """make_views starts a pretrain step; the step span stays open until
        the step's adam_step returns, so all spans of a step share its id."""
        nid = self._intern("training.pretrain_step")
        inner = self._span_call("augment.make_views", fn)

        def traced(*args, **kwargs):
            if self._step is None:
                self.unit_id += 1
                self._step = self.open(nid)
            return inner(*args, **kwargs)
        return traced

    def _step_close(self, fn):
        inner = self._span_call("training.adam_step", fn)

        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self._step is not None:
                step, self._step = self._step, None
                self.close(step)
                if self.phase == TIMED:
                    self.step_ms.append(1e3 * (self._end[step] - self._start[step]))
            return out
        return traced

    def _count_bytes(self, args, _out):
        self.counts["data_io.bytes_written"] += path_bytes(args[1])

    def _count_bad(self, _args, out):
        self.counts["dsp.bad_channels"] += len(out)

    def _patch(self, owner, attr, make):
        if owner is None or not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self):
        m = self._modules
        for path, attr, name in CALLS:
            self._patch(_resolve(m, path), attr,
                        lambda fn, name=name: self._span_call(name, fn))
        self._patch(m.dsp, "detect_bad_channels",
                    lambda fn: self._span_call("dsp.detect_bad_channels", fn, self._count_bad))
        for attr, name in (("write_bank", "data_io.write_bank"),
                           ("save_checkpoint", "data_io.save_checkpoint")):
            self._patch(m.data_io, attr,
                        lambda fn, name=name: self._span_call(name, fn, self._count_bytes))
        self._patch(m.training, "make_views", self._step_open)
        self._patch(m.training, "adam_step", self._step_close)
        for op, attr in OPS.items():
            self._patch(m.autodiff, attr, lambda fn, op=op: self._span_op(op, fn))
        self._patch(m.autodiff, "_make", self._count_nodes)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_timed(self):
        """Count from here on; spans opened from now are timed-phase spans."""
        self.phase = TIMED
        self.counts.clear()
        self.step_ms.clear()

    # -- aggregation -----------------------------------------------------------
    def summary(self, n_units, extra):
        """Per-layer metrics (name -> value) over the recorded spans.

        `n_units` normalizes per-unit counts; `extra` supplies the values
        that come from results rather than spans (calibration epochs, error
        rate, tracing overhead).
        """
        n = len(self._name)
        names = np.frombuffer(self._name, dtype=np.int32)[:n]
        start = np.frombuffer(self._start, dtype=np.float64)[:n]
        end = np.frombuffer(self._end, dtype=np.float64)[:n]
        parent = np.frombuffer(self._parent, dtype=np.int32)[:n]
        phase = np.frombuffer(self._phase, dtype=np.int8)[:n]
        dur = end - start
        layer_of = [name.split(".")[0] for name in self._names]
        # subtract each span from its nearest ancestor of the same layer
        child = np.zeros(n)
        for i in range(n):
            layer = layer_of[names[i]]
            p = parent[i]
            while p >= 0 and layer_of[names[p]] != layer:
                p = parent[p]
            if p >= 0:
                child[p] += dur[i]

        per_name = {}
        for nid, name in enumerate(self._names):
            sel = names == nid
            if name not in ALL_PHASES:
                sel &= phase == TIMED
            k = int(sel.sum())
            if k:
                per_name[name] = (k, 1e3 * dur[sel].mean(), 1e3 * (dur[sel] - child[sel]).mean())

        def ms(name, self_time=False):
            _, total, own = per_name.get(name, (0, 0.0, 0.0))
            return own if self_time else total

        def calls(name):
            return per_name.get(name, (0, 0.0, 0.0))[0] / max(n_units, 1)

        out = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "ms":
                out[metric] = ms(base)
            elif kind == "self_ms":
                out[metric] = ms(base, self_time=True)
            elif kind in ("fwd_ms", "bwd_ms"):
                out[metric] = ms(f"{base}.{kind[:3]}", self_time=True)
            elif kind == "calls":
                out[metric] = calls(f"{base}.fwd" if base.startswith("autodiff.") else base)
        steps = sorted(self.step_ms)
        out["training.pretrain_step.ms"] = float(np.median(steps)) if steps else 0.0
        out["training.pretrain_step.ms_max"] = steps[-1] if steps else 0.0
        out["training.pretrain_step.count"] = len(steps)
        n_backward = per_name.get("autodiff.backward", (0,))[0]
        out["autodiff.tape_nodes"] = self.counts["autodiff.tape_nodes"] / max(n_backward, 1)
        for name in ("autodiff.fwd_bytes", "data_io.bytes_written", "dsp.bad_channels"):
            out[name] = self.counts[name] / max(n_units, 1)
        out.update(extra)
        return out
