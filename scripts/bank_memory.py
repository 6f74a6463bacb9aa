"""Memory of the raw-EEG path: synthetic raw bank, feature extraction, bank I/O.

Runs the stages of the benchmark's ``extract`` workload once on its bank (the
default timeseries `SynthSpec`: 5 subjects x 10 trials x 62 channels x 6000
samples at 200 Hz, float32) and prints, after each stage, the traced peak of
that stage (tracemalloc, the stage's own allocations above what was held
when it started), the traced memory still held and the process's RSS
high-water mark so far:

- ``gen_synthetic``: the raw bank;
- ``extract_bank_features``: every trial in turn, with preprocessing,
  segment rejection and smoothing, as one single-trial bank each;
- ``write_bank``, ``read_bank`` and ``bank_equal`` of the bank holding the
  features and the raw trials.

scipy.signal is imported before tracing starts, so no stage counts it; the
RSS high-water includes it, the interpreter and numpy, and memory that the
allocator keeps after it is freed.

Usage: PYTHONPATH=src python scripts/bank_memory.py [--seed 1]
"""

import argparse
import resource
import tempfile
import tracemalloc

from eegtransfer import data_io, dsp
from eegtransfer.config import SynthSpec

MB = 1 << 20


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1, help="bank seed (default 1)")
    args = p.parse_args()

    print(f"{'stage':<22} {'peak above start MB':>20} {'held MB':>9} {'RSS high-water MB':>18}")

    def stage(name, fn):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name:<22} {(peak - start) / MB:20.1f} {held / MB:9.1f} {rss:18.1f}")
        return out

    def extract(raw):
        samples = []
        for trial in raw.raw_trials:
            one = data_io.SampleBank(raw.dataset, raw.classes, raw.bands, raw.montage, [],
                                     [trial])
            samples.extend(data_io.extract_bank_features(
                one, preprocess=True, reject_segments=True, smooth=True).samples)
        return data_io.SampleBank(raw.dataset + "+features", raw.classes, raw.bands,
                                  raw.montage, samples, raw.raw_trials)

    dsp._signal()
    tracemalloc.start()
    raw = stage("gen_synthetic", lambda: data_io.gen_synthetic(
        SynthSpec(seed=args.seed, mode="timeseries")))
    bank = stage("extract_bank_features", lambda: extract(raw))
    with tempfile.TemporaryDirectory() as tmp:
        stage("write_bank", lambda: data_io.write_bank(bank, tmp))
        back = stage("read_bank", lambda: data_io.read_bank(tmp))
    same = stage("bank_equal", lambda: data_io.bank_equal(bank, back))
    tracemalloc.stop()
    if not same:
        raise SystemExit("bank round trip is not bit-exact")


if __name__ == "__main__":
    main()
