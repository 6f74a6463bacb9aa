"""Benchmark of the eegtransfer pipeline: one command, three workloads.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (see
README.md in this directory).  The line before it records the environment,
the output digests and each workload's own named figures.  Everything runs
in this one process with ``--jobs 1`` semantics; BLAS threads are capped at
the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from types import SimpleNamespace

clock = time.perf_counter
T_START = clock()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pretrain", "new_subject", "extract"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny model and data, for the self-test only")
    return p.parse_args(argv)


def cap_blas_threads():
    """Pin BLAS/OpenMP pools to this process's CPU count unless already set."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "eegtransfer", "__init__.py")):
        raise SystemExit(f"run.py: no eegtransfer sources under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import eegtransfer
    from eegtransfer import (augment, autodiff, config, data_io, dsp, evaluation, model,
                             training)
    if not os.path.abspath(eegtransfer.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: imported eegtransfer from {eegtransfer.__file__}, not {SRC}")
    return SimpleNamespace(augment=augment, autodiff=autodiff, config=config, data_io=data_io,
                           dsp=dsp, evaluation=evaluation, model=model, training=training)


def blas_record(np):
    import ctypes
    import glob
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, np):
    import platform
    import scipy
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_record(np), "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}


def timed_units(wl, state, until, elapsed, durations, tracer=None):
    """Run units until `until` seconds are used, stopping where the next
    unit would end more than half a unit late (at least one unit); returns
    the number of sub-units (steps, cycles, trials)."""
    n = 0
    while True:
        if tracer:
            tracer.unit_id += 1  # spans of one unit share an id
        t0 = clock()
        n += wl.unit(state)
        durations.append(clock() - t0)
        if elapsed() + sum(durations) / len(durations) / 2 > until:
            return n


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    modules = import_program()
    import numpy as np
    import tracer as tr
    import workloads
    import_s = clock() - T_START

    checks = workloads.Checks()
    tracer = tr.Tracer(modules) if args.trace else None
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as tmp:
        wl = workloads.WORKLOADS[args.workload](modules, args.seed, args.tiny, tmp, checks)
        if tracer:
            tracer.install()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            state = wl.setup()
            setup_s.append(clock() - t0)

        t0 = clock()
        wl.warm_up(state)
        warm_up_s = clock() - t0
        t_start = clock()
        elapsed = lambda: clock() - t_start  # noqa: E731
        plain_s, traced_s = [], []
        if tracer:
            # a third of the run untraced, the rest traced: the ratio is the
            # tracing overhead
            tracer.uninstall()
            timed_units(wl, state, args.seconds / 3, elapsed, plain_s)
            tracer.install()
            tracer.start_timed()
            try:
                n_units = timed_units(wl, state, args.seconds, elapsed, traced_s, tracer)
            finally:
                tracer.uninstall()
        else:
            timed_units(wl, state, args.seconds, elapsed, plain_s)
        e2e, named = wl.summary()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_median = float(np.median(setup_s))
    named["error_rate"] = (checks.failed / max(checks.attempted, 1), "ratio")
    detail = {"env": environment(args, np), "digest": wl.digest, "setup_digest": wl.setup_digest,
              "import_s": import_s, "setup_runs_s": setup_s, "warm_up_s": warm_up_s,
              "unit": wl.unit_name,
              "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "failures": checks.failures}
    if tracer:
        overhead_pct = 100.0 * ((sum(traced_s) / len(traced_s))
                                / (sum(plain_s) / len(plain_s)) - 1.0)
        detail["trace_overhead_pct"] = overhead_pct
        extra = {**wl.trace_extra(),
                 "checks.error_rate": named["error_rate"][0],
                 "trace.overhead_pct": overhead_pct}
        values = tracer.summary(n_units, extra)
        missing = set(tr.PER_LAYER) - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in tr.PER_LAYER.items()}
    else:
        units = {"throughput": "1/s", "latency_ms_mean": "ms", "latency_ms_p90": "ms"}
        metrics = {"setup_s": {"value": import_s + setup_median + warm_up_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                   **{k: {"value": v, "unit": units[k]} for k, v in e2e.items()}}
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
