"""The benchmark harness still runs against the program: its self-test passes
and every function its tracer patches still exists."""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from eegtransfer import augment, autodiff, config, data_io, dsp, evaluation, model, training

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patch_targets_exist():
    # the tracer skips names it cannot find, so a rename would silently zero
    # a per-layer metric instead of failing the benchmark
    tr = load_tracer()
    modules = SimpleNamespace(augment=augment, autodiff=autodiff, config=config,
                              data_io=data_io, dsp=dsp, evaluation=evaluation,
                              model=model, training=training)
    targets = [(path, attr) for path, attr, _ in tr.CALLS]
    targets += [("autodiff", attr) for attr in tr.OPS.values()]
    targets += [("dsp", "detect_bad_channels"), ("data_io", "write_bank"),
                ("data_io", "save_checkpoint"), ("training", "make_views"),
                ("training", "adam_step"), ("autodiff", "_make")]
    missing = [f"{path}.{attr}" for path, attr in targets
               if not hasattr(tr._resolve(modules, path), attr)]
    assert not missing


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900, check=False)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
