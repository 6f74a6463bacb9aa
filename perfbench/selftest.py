"""Quick self-test of the benchmark: tiny config, every workload, both modes.

    python3 perfbench/selftest.py

Each run is a fresh process, as in a real measurement.  The test checks
that the result line has exactly its four keys, that every metric
named in BENCHMARK.json appears with its unit, that each workload prints its
own named figures, that no check failed (error rate 0), and that the
benchmark refuses to run in a directory holding only itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180

NAMED = {
    "pretrain": {"pretrain_samples_per_s": "1/s", "pretrain_loss": "nats"},
    "new_subject": {"calibrate_epochs_per_s": "1/s", "accuracy": "ratio",
                    "predict_ms_p50": "ms", "predict_ms_p99": "ms",
                    "predict_batch_samples_per_s": "1/s"},
    "extract": {"extract_eeg_s_per_s": "s/s", "bank_io_MB_per_s": "MB/s"},
}


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)


def check_run(spec, workload, trace, problems):
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: checks failed {detail['failures']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is not None and entry["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} has unit {entry['unit']}, not {m['unit']}")
    if trace and got.get("checks.error_rate", {}).get("value") != 0:
        problems.append(f"{where}: checks.error_rate is not 0")
    named = detail["workload_metrics"]
    for name, unit in {**NAMED[workload], "error_rate": "ratio"}.items():
        if named.get(name, {}).get("unit") != unit:
            problems.append(f"{where}: named figure {name} [{unit}] missing")
    if named.get("error_rate", {}).get("value") != 0:
        problems.append(f"{where}: error_rate is not 0")


def check_refuses_bare_directory(problems):
    """Holding only BENCHMARK.json and perfbench/, the run must fail fast."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_tmp")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "pretrain", 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("a directory without the program still produced a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    for workload in NAMED:
        for trace in (0, 1):
            check_run(spec, workload, trace, problems)
    check_refuses_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
