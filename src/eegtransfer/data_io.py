"""Sample-bank persistence, checkpoints, split protocols, synthetic data.

A bank is a directory: ``manifest.json`` (dataset metadata, counts and the
sample index table), ``features.bin`` (magic ``CLDTAFB1`` followed by
N x channels x bands float32 little-endian, row-major in index order),
``montage.csv`` (every row ending in a newline, so a file cut inside its last
row is caught) and optionally ``raw/t<id>.bin`` files (magic ``CLDTARW1``,
float64 sampling rate, then channels x samples float32).  Payloads are raw
little-endian floats so round-trips are bit-exact.  ``read_bank`` reads each
file once and returns read-only arrays that view its bytes, so a loaded bank
holds each payload once; the raw trials of a synthetic timeseries bank are
views of one float32 (trials, channels, samples) block.

Banks are immutable after load: concurrent readers are safe, one writer per
directory.  Writers stage every file under a temporary name next to its
target and move it into place with ``os.replace`` only once all files are
written (a bank's manifest last), so a write that fails part-way leaves the
earlier bank or checkpoint as it was.  Converters for licensed recordings
are out of scope; this format is the integration point (see README).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dsp
from .config import ConfigError, ModelConfig, SynthSpec, _from_dict
from .dsp import DEFAULT_BANDS, FeatureSample, RawTrial
from .model import DtaParameters, init_parameters
from .montage import ChannelMontage, MontageError, default_montage, parse_montage, save_montage

FORMAT_VERSION = 1
MAGIC_FEATURES = b"CLDTAFB1"
MAGIC_RAW = b"CLDTARW1"
MAGIC_CHECKPOINT = b"CLDTACK1"

MANIFEST_NAME = "manifest.json"
FEATURES_NAME = "features.bin"
MONTAGE_NAME = "montage.csv"

SYNTH_FS = 200.0
SYNTH_WINDOW_S = 1.0


class BankError(ValueError):
    pass


class MissingFileError(BankError):
    pass


class BadMagicError(BankError):
    pass


class TruncatedPayloadError(BankError):
    pass


class ManifestMismatchError(BankError):
    pass


class NonFinitePayloadError(BankError):
    pass


class BadMontageError(BankError):
    pass


class CheckpointError(ValueError):
    pass


class SplitError(ValueError):
    pass


# -- sample bank ---------------------------------------------------------------

@dataclass
class SampleBank:
    """Feature samples plus optional raw trials, tied to a montage."""

    dataset: str
    classes: tuple
    bands: tuple
    montage: ChannelMontage
    samples: list = field(default_factory=list)
    raw_trials: list = field(default_factory=list)

    def __post_init__(self):
        self.classes = tuple(self.classes)
        self.bands = tuple(self.bands)
        n_ch = len(self.montage)
        for s in self.samples:
            if s.label < 0 or s.label >= len(self.classes):
                raise BankError(f"sample label {s.label} outside {len(self.classes)} classes")
            if s.de.shape != (n_ch, len(self.bands)):
                raise BankError(
                    f"sample de shape {s.de.shape} != ({n_ch}, {len(self.bands)})")
        for t in self.raw_trials:
            if t.label < 0 or t.label >= len(self.classes):
                raise BankError(f"trial label {t.label} outside {len(self.classes)} classes")
            if t.n_channels != n_ch:
                raise BankError(f"trial has {t.n_channels} channels, montage {n_ch}")

    def __len__(self):
        return len(self.samples)

    def subjects(self):
        seen = dict.fromkeys(s.subject_id for s in self.samples)
        seen.update(dict.fromkeys(t.subject_id for t in self.raw_trials))
        return sorted(seen)

    def filter(self, keep) -> "SampleBank":
        """View with the samples satisfying keep(sample); shares sample objects."""
        return SampleBank(self.dataset, self.classes, self.bands, self.montage,
                          [s for s in self.samples if keep(s)], self.raw_trials)

    def feature_array(self):
        """(N, channels, bands) float64 stack plus (N,) labels."""
        return dsp.stack_samples(self.samples)


def bank_equal(a: SampleBank, b: SampleBank) -> bool:
    """Field-for-field, bit-for-bit equality (used by round-trip tests)."""
    meta = (a.dataset == b.dataset and a.classes == b.classes and a.bands == b.bands
            and a.montage.names == b.montage.names
            and np.array_equal(a.montage.positions, b.montage.positions)
            and len(a.samples) == len(b.samples)
            and len(a.raw_trials) == len(b.raw_trials))
    if not meta:
        return False
    for sa, sb in zip(a.samples, b.samples):
        if ((sa.subject_id, sa.session_id, sa.trial_id, sa.window_index, sa.label)
                != (sb.subject_id, sb.session_id, sb.trial_id, sb.window_index, sb.label)):
            return False
        if sa.de.dtype != sb.de.dtype or not np.array_equal(sa.de, sb.de):
            return False
    for ta, tb in zip(a.raw_trials, b.raw_trials):
        if ((ta.subject_id, ta.session_id, ta.trial_id, ta.label, ta.fs)
                != (tb.subject_id, tb.session_id, tb.trial_id, tb.label, tb.fs)):
            return False
        if not np.array_equal(ta.data.astype(np.float32, copy=False),
                              tb.data.astype(np.float32, copy=False)):
            return False
    return True


@contextmanager
def _staged_writes():
    """Yield `stage(path)`, which returns a temporary path next to `path` to
    write instead.  On a clean exit every staged file replaces its target,
    in staging order; on an exception the temporary files are removed and
    the targets are left untouched."""
    staged = []

    def stage(path):
        path = Path(path)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        staged.append((tmp, path))
        return tmp

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def write_bank(bank: SampleBank, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if bank.raw_trials:
        (directory / "raw").mkdir(exist_ok=True)
    with _staged_writes() as stage:
        save_montage(bank.montage, stage(directory / MONTAGE_NAME))

        index = [[s.subject_id, s.session_id, s.trial_id, s.window_index, s.label]
                 for s in bank.samples]
        stage(directory / FEATURES_NAME).write_bytes(b"".join(
            [MAGIC_FEATURES, *(np.ascontiguousarray(s.de, dtype="<f4") for s in bank.samples)]))

        raw_records = []
        for i, t in enumerate(bank.raw_trials):
            fname = f"raw/t{i}.bin"
            stage(directory / fname).write_bytes(b"".join(
                [MAGIC_RAW, struct.pack("<d", t.fs), np.ascontiguousarray(t.data, dtype="<f4")]))
            raw_records.append({
                "subject": t.subject_id, "session": t.session_id,
                "trial": t.trial_id, "label": t.label, "fs": t.fs,
                "channels": t.n_channels, "samples": t.n_samples, "file": fname,
            })

        manifest = {
            "format_version": FORMAT_VERSION,
            "dataset": bank.dataset,
            "classes": list(bank.classes),
            "bands": list(bank.bands),
            "montage_file": MONTAGE_NAME,
            "counts": {
                "n_samples": len(bank.samples),
                "n_channels": len(bank.montage),
                "n_bands": len(bank.bands),
                "n_raw_trials": len(bank.raw_trials),
            },
            "samples": index,
            "raw_trials": raw_records,
        }
        stage(directory / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1), encoding="utf-8")
    # raw trials of an earlier, larger bank in this directory
    listed = {directory / r["file"] for r in raw_records}
    for path in (directory / "raw").glob("t*.bin"):
        if path not in listed:
            path.unlink()


_RECORD_NOUN = {ManifestMismatchError: "manifest", CheckpointError: "checkpoint header"}


def _require(record, key, where, error, kind=object):
    """record[key], else `error` with a one-line message naming the key: when
    `record` is not a dict, lacks `key` or holds a value that is not a `kind`."""
    if not isinstance(record, dict) or key not in record:
        raise error(f"{where}: {_RECORD_NOUN[error]} is missing key {key!r}")
    value = record[key]
    if not isinstance(value, kind):
        raise error(f"{where}: {key} is {type(value).__name__}, expected {kind.__name__}")
    return value


def _manifest_uint(record, key, where, error):
    """record[key] as a non-negative int, else `error` as `_require` raises it."""
    value = _require(record, key, where, error)
    if type(value) is not int or value < 0:
        raise error(f"{where}: {key} is {value!r}, expected a non-negative integer")
    return value


def _read_file(directory, name):
    """The bytes of `directory / name`, else MissingFileError naming it."""
    try:
        return (directory / name).read_bytes()
    except OSError as e:
        raise MissingFileError(f"{name}: cannot read ({e.strerror}) in {directory}") from None


def read_bank(directory) -> SampleBank:
    """Load a bank; any fault in its files raises a one-line BankError
    subclass naming the file."""
    directory = Path(directory)
    mpath = directory / MANIFEST_NAME
    try:
        manifest = json.loads(_read_file(directory, MANIFEST_NAME).decode("utf-8"))
    except ValueError as e:  # bad JSON or bad UTF-8
        raise ManifestMismatchError(f"{mpath}: not valid JSON ({e})") from None

    def get(key, kind=object):
        return _require(manifest, key, str(mpath), ManifestMismatchError, kind)

    version = get("format_version")
    if version != FORMAT_VERSION:
        raise ManifestMismatchError(f"{mpath}: unsupported format_version {version}")
    counts = get("counts", dict)
    n_samples, n_ch, n_bands = (_manifest_uint(counts, k, f"{mpath} counts", ManifestMismatchError)
                                for k in ("n_samples", "n_channels", "n_bands"))
    dataset = get("dataset", str)
    classes, bands, index = (get(k, list) for k in ("classes", "bands", "samples"))
    if len(index) != n_samples:
        raise ManifestMismatchError(
            f"{mpath}: counts.n_samples={n_samples} but index table has {len(index)} rows")

    mname = get("montage_file", str)
    mtext = _read_file(directory, mname)
    if not mtext.endswith(b"\n"):  # save_montage ends every row with one
        raise TruncatedPayloadError(f"{mname}: last row does not end with a newline")
    try:
        montage = parse_montage(mtext.decode("utf-8"), mname)
    except UnicodeDecodeError:
        raise BadMontageError(f"{mname}: not valid UTF-8") from None
    except MontageError as e:
        raise BadMontageError(str(e)) from None
    if len(montage) != n_ch:
        raise ManifestMismatchError(
            f"{mname}: montage has {len(montage)} channels, manifest says {n_ch}")

    blob = _read_file(directory, FEATURES_NAME)
    if blob[:len(MAGIC_FEATURES)] != MAGIC_FEATURES:
        raise BadMagicError(f"{FEATURES_NAME}: bad magic {blob[:8]!r}")
    body = memoryview(blob)[len(MAGIC_FEATURES):]
    record = n_ch * n_bands * 4
    if record > 0 and len(body) % record != 0:
        raise TruncatedPayloadError(
            f"{FEATURES_NAME}: payload of {len(body)} bytes is not a whole "
            f"number of {record}-byte samples")
    n_found = len(body) // record if record else 0
    if n_found != n_samples:
        raise ManifestMismatchError(
            f"{FEATURES_NAME}: manifest says {n_samples} samples, payload has {n_found}")
    flat = np.frombuffer(body, dtype="<f4").reshape(n_samples, n_ch, n_bands)

    samples = []
    for i, (row, de) in enumerate(zip(index, flat)):
        if (not isinstance(row, list) or len(row) != 5
                or any(type(v) is not int or v < 0 for v in row)):
            raise ManifestMismatchError(
                f"{mpath}: samples row {i} is {row!r}, expected non-negative integers "
                "[subject, session, trial, window, label]")
        try:
            samples.append(FeatureSample(*row, de))
        except dsp.DspError as e:
            raise NonFinitePayloadError(f"{FEATURES_NAME}: sample {i}: {e}") from None

    raw_trials = []
    records = get("raw_trials", list) if "raw_trials" in manifest else []
    for i, rec in enumerate(records):
        where = f"{mpath} raw_trials[{i}]"
        fname = _require(rec, "file", where, ManifestMismatchError, str)
        n_rch, n_rs, subject, session, trial, label = (
            _manifest_uint(rec, k, where, ManifestMismatchError)
            for k in ("channels", "samples", "subject", "session", "trial", "label"))
        manifest_fs = _require(rec, "fs", where, ManifestMismatchError)
        rblob = _read_file(directory, fname)
        if rblob[:len(MAGIC_RAW)] != MAGIC_RAW:
            raise BadMagicError(f"{fname}: bad magic {rblob[:8]!r}")
        rbody = memoryview(rblob)[len(MAGIC_RAW):]
        if len(rbody) < 8:
            raise TruncatedPayloadError(f"{fname}: sampling rate cut short")
        fs = float(np.frombuffer(rbody[:8], dtype="<f8")[0])
        if not (math.isfinite(fs) and fs > 0):
            raise NonFinitePayloadError(f"{fname}: sampling rate {fs} is not positive and finite")
        if manifest_fs != fs:
            raise ManifestMismatchError(
                f"{fname}: sampling rate {fs} but manifest says {manifest_fs!r}")
        data_bytes = rbody[8:]
        expected = n_rch * n_rs * 4
        if len(data_bytes) < expected:
            raise TruncatedPayloadError(
                f"{fname}: expected {expected} data bytes, found {len(data_bytes)}")
        if len(data_bytes) > expected:
            raise ManifestMismatchError(
                f"{fname}: {len(data_bytes)} data bytes exceed manifest shape")
        data = np.frombuffer(data_bytes, dtype="<f4").reshape(n_rch, n_rs)
        try:
            raw_trials.append(RawTrial(subject, session, trial, label, fs, data))
        except dsp.DspError as e:  # no channels or no samples
            raise ManifestMismatchError(f"{where}: {e}") from None

    try:
        return SampleBank(dataset, tuple(classes), tuple(bands), montage, samples, raw_trials)
    except BankError as e:  # a label outside the classes, or a channel count
        raise ManifestMismatchError(f"{mpath}: {e}") from None


# -- checkpoints ---------------------------------------------------------------

def save_checkpoint(dta: DtaParameters, path, optimizer=None) -> None:
    """Single-file checkpoint: parameters, batch-norm state, optional Adam
    moments, and the model config for shape validation on load."""
    arrays = []
    blob = bytearray()

    def put(name, kind, arr):
        dt = "<f8" if arr.dtype == np.float64 else "<f4"
        raw = np.ascontiguousarray(arr, dtype=dt).tobytes()
        arrays.append({"name": name, "kind": kind, "shape": list(arr.shape),
                       "dtype": dt, "offset": len(blob)})
        blob.extend(raw)

    for name, t in dta.params.items():
        put(name, "param", t.data)
    for name, arr in dta.bn_state.items():
        put(name, "bn", arr)
    opt_header = None
    if optimizer is not None:
        opt_header = {"lr": optimizer.lr, "beta1": optimizer.beta1,
                      "beta2": optimizer.beta2, "eps": optimizer.eps,
                      "weight_decay": optimizer.weight_decay, "step": optimizer.step}
        for name, arr in optimizer.m.items():
            put(name, "opt_m", arr)
        for name, arr in optimizer.v.items():
            put(name, "opt_v", arr)

    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "model_config": dataclasses.asdict(dta.config),
        "optimizer": opt_header,
        "arrays": arrays,
    }).encode("utf-8")
    out = bytearray(MAGIC_CHECKPOINT)
    out += struct.pack("<I", len(header))
    out += header
    out += blob
    with _staged_writes() as stage:
        stage(path).write_bytes(bytes(out))


def load_checkpoint(path, expected_config: ModelConfig | None = None, dtype=None):
    """Load (DtaParameters, AdamState | None); optionally cast to `dtype`.

    Raises CheckpointError on an unreadable file, bad magic, truncation,
    bytes past the last array, a missing header key, an array record whose
    dtype is not <f4 or <f8 or whose shape entries or offset are not
    non-negative integers, a model config this version does not know or
    accept, or a config that does not match `expected_config`.
    """
    from .training import AdamState

    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"{path}: cannot read ({e.strerror})") from None
    if blob[:len(MAGIC_CHECKPOINT)] != MAGIC_CHECKPOINT:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    if len(blob) < len(MAGIC_CHECKPOINT) + 4:
        raise CheckpointError(f"{path}: truncated header")
    hlen = int(np.frombuffer(blob, dtype="<u4", count=1,
                             offset=len(MAGIC_CHECKPOINT))[0])
    hstart = len(MAGIC_CHECKPOINT) + 4
    try:
        header = json.loads(blob[hstart:hstart + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})") from None
    body = blob[hstart + hlen:]
    version = _require(header, "format_version", path, CheckpointError)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format_version {version}")

    try:
        config = _from_dict(ModelConfig, _require(header, "model_config", path,
                                                  CheckpointError), "model_config")
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad checkpoint {e}") from None
    if expected_config is not None and config != expected_config:
        raise CheckpointError(
            f"checkpoint config {config} does not match expected {expected_config}")

    stored = {}
    payload_end = 0
    for i, rec in enumerate(_require(header, "arrays", path, CheckpointError, list)):
        where = f"{path} arrays[{i}]"
        name, kind = (_require(rec, k, where, CheckpointError, str) for k in ("name", "kind"))
        dt = _require(rec, "dtype", where, CheckpointError)
        if dt not in ("<f4", "<f8"):
            raise CheckpointError(f"{where}: dtype is {dt!r}, expected '<f4' or '<f8'")
        dims = {f"shape[{j}]": d
                for j, d in enumerate(_require(rec, "shape", where, CheckpointError, list))}
        shape = [_manifest_uint(dims, k, where, CheckpointError) for k in dims]
        offset = _manifest_uint(rec, "offset", where, CheckpointError)
        itemsize = 8 if dt == "<f8" else 4
        nbytes = int(np.prod(shape, dtype=np.int64)) * itemsize if shape else itemsize
        end = offset + nbytes
        if end > len(body):
            raise CheckpointError(f"{path}: truncated payload at array {name}")
        payload_end = max(payload_end, end)
        stored[(kind, name)] = np.frombuffer(body[offset:end], dtype=dt).reshape(shape)
    if len(body) > payload_end:
        raise CheckpointError(
            f"{path}: {len(body) - payload_end} trailing bytes after the last array")

    dta = init_parameters(config, seed=0)
    cast = dtype
    for name, t in dta.params.items():
        if ("param", name) not in stored:
            raise CheckpointError(f"{path}: missing parameter {name}")
        arr = stored[("param", name)]
        if tuple(arr.shape) != t.data.shape:
            raise CheckpointError(f"{path}: shape mismatch for {name}")
        t.data = arr.astype(cast) if cast else arr.copy()
    for name in dta.bn_state:
        if ("bn", name) in stored:
            arr = stored[("bn", name)]
            dta.bn_state[name] = arr.astype(cast) if cast else arr.copy()

    opt = None
    if header.get("optimizer"):
        keys = ("lr", "beta1", "beta2", "eps", "weight_decay", "step")
        opt = AdamState(**{k: _require(header["optimizer"], k, path, CheckpointError)
                           for k in keys})
        for (kind, name), arr in stored.items():
            if kind == "opt_m":
                opt.m[name] = arr.astype(cast) if cast else arr.copy()
            elif kind == "opt_v":
                opt.v[name] = arr.astype(cast) if cast else arr.copy()
    return dta, opt


# -- split protocols -------------------------------------------------------------

@dataclass(frozen=True)
class SplitProtocol:
    """Per-session trial partition by ordinal position, or a ratio rule."""

    name: str
    train_trials: tuple | None = None
    test_trials: tuple | None = None
    train_ratio: float | None = None

    def __post_init__(self):
        if self.train_ratio is not None:
            if not 0.0 < self.train_ratio < 1.0:
                raise SplitError(f"train_ratio must be in (0, 1), got {self.train_ratio}")
            if self.train_trials is not None or self.test_trials is not None:
                raise SplitError("give either trial lists or a ratio, not both")
            return
        if self.train_trials is None or self.test_trials is None:
            raise SplitError("protocol needs trial lists or a ratio")
        object.__setattr__(self, "train_trials", tuple(int(i) for i in self.train_trials))
        object.__setattr__(self, "test_trials", tuple(int(i) for i in self.test_trials))
        if not self.train_trials or not self.test_trials:
            raise SplitError("both split sides must be non-empty")
        if set(self.train_trials) & set(self.test_trials):
            raise SplitError("train and test trials overlap")


BUILTIN_PROTOCOLS = {
    "first9-last6": SplitProtocol("first9-last6", tuple(range(9)), tuple(range(9, 15))),
    "first16-last8": SplitProtocol("first16-last8", tuple(range(16)), tuple(range(16, 24))),
    "first10-last5": SplitProtocol("first10-last5", tuple(range(10)), tuple(range(10, 15))),
    "ratio80": SplitProtocol("ratio80", train_ratio=0.8),
}


def get_protocol(name: str) -> SplitProtocol:
    if name not in BUILTIN_PROTOCOLS:
        raise SplitError(f"unknown protocol {name!r}; "
                         f"choose from {sorted(BUILTIN_PROTOCOLS)}")
    return BUILTIN_PROTOCOLS[name]


def split_trial_ids(trial_ids, protocol: SplitProtocol):
    """Partition one session's sorted trial ids into (train, test) id sets."""
    ids = sorted(set(trial_ids))
    if protocol.train_ratio is not None:
        n_train = int(math.floor(protocol.train_ratio * len(ids)))
        if n_train < 1 or n_train >= len(ids):
            raise SplitError(
                f"ratio {protocol.train_ratio} leaves an empty side for {len(ids)} trials")
        return set(ids[:n_train]), set(ids[n_train:])
    needed = max(max(protocol.train_trials), max(protocol.test_trials))
    if needed >= len(ids):
        raise SplitError(
            f"protocol {protocol.name} wants trial #{needed}, session has {len(ids)}")
    return ({ids[i] for i in protocol.train_trials},
            {ids[i] for i in protocol.test_trials})


def apply_split(bank: SampleBank, protocol: SplitProtocol):
    """Disjoint (train, test) views of a bank; deterministic."""
    sessions = {}
    for s in bank.samples:
        sessions.setdefault((s.subject_id, s.session_id), set()).add(s.trial_id)
    train_keys, test_keys = set(), set()
    for (subj, sess), ids in sessions.items():
        train_ids, test_ids = split_trial_ids(ids, protocol)
        train_keys.update((subj, sess, t) for t in train_ids)
        test_keys.update((subj, sess, t) for t in test_ids)
    train = bank.filter(lambda s: (s.subject_id, s.session_id, s.trial_id) in train_keys)
    test = bank.filter(lambda s: (s.subject_id, s.session_id, s.trial_id) in test_keys)
    if len(train) == 0 or len(test) == 0:
        raise SplitError("split produced an empty side")
    return train, test


# -- synthetic data ---------------------------------------------------------------

def _class_names(n):
    return tuple(f"class{i}" for i in range(n))


def synth_factors(spec: SynthSpec):
    """The generating factors (class means, subject shifts), seed-determined.

    Drawn first from the generator stream, so tests can recover the exact
    factors behind a generated bank.
    """
    rng = np.random.default_rng(spec.seed)
    mu_class = rng.normal(0.0, spec.class_mean_scale,
                          size=(spec.n_classes, spec.n_channels, spec.n_bands))
    delta_subject = rng.normal(0.0, spec.subject_shift_std,
                               size=(spec.n_subjects, spec.n_channels, spec.n_bands))
    return mu_class, delta_subject, rng


def synth_montage(n_channels: int) -> ChannelMontage:
    """The reference montage cut or extended to `n_channels` electrodes."""
    ref = default_montage()
    if n_channels == len(ref):
        return ref
    if n_channels < len(ref):
        return ChannelMontage(ref.names[:n_channels], ref.positions[:n_channels])
    # evenly spread extra electrodes on a Fibonacci sphere
    i = np.arange(n_channels)
    z = 1.0 - 2.0 * (i + 0.5) / n_channels
    r = np.sqrt(1.0 - z * z)
    phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
    pos = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return ChannelMontage(tuple(f"CH{k}" for k in range(n_channels)), pos)


def gen_synthetic(spec: SynthSpec) -> SampleBank:
    """Seed-deterministic synthetic bank with class/subject/noise structure.

    features mode: each sample is mu[class] + delta[subject] + noise.
    timeseries mode: per-band noise carriers at 200 Hz are scaled so the
    per-band log-amplitude carries the same mu + delta structure, and raw
    trials (not features) are stored; feature extraction then recovers
    separable features.
    """
    mu_class, delta_subject, rng = synth_factors(spec)
    montage = synth_montage(spec.n_channels)
    bands = DEFAULT_BANDS if spec.n_bands == len(DEFAULT_BANDS) else None
    band_names = (bands.names if bands is not None
                  else tuple(f"band{i}" for i in range(spec.n_bands)))

    if spec.mode == "features":
        samples = []
        for subj in range(spec.n_subjects):
            for trial in range(spec.trials_per_subject):
                label = trial % spec.n_classes
                base = mu_class[label] + delta_subject[subj]
                for w in range(spec.samples_per_trial):
                    de = base + rng.normal(0.0, spec.sample_noise_std,
                                           size=(spec.n_channels, spec.n_bands))
                    samples.append(FeatureSample(subj, 0, trial, w, label, de))
        return SampleBank("synthetic-features", _class_names(spec.n_classes),
                          band_names, montage, samples, [])

    if bands is None:
        raise BankError("timeseries mode requires the default 5-band layout")
    n_samples = int(spec.samples_per_trial * SYNTH_WINDOW_S * SYNTH_FS)
    n_trials = spec.n_subjects * spec.trials_per_subject
    raw = np.empty((n_trials, spec.n_channels, n_samples), dtype=np.float32)
    data = np.empty((spec.n_channels, n_samples))
    trials = []
    for subj in range(spec.n_subjects):
        for trial in range(spec.trials_per_subject):
            label = trial % spec.n_classes
            log_amp = mu_class[label] + delta_subject[subj]
            data[:] = 0.0
            for b, (_, lo, hi) in enumerate(bands.bands):
                for r0, r1, carrier in dsp.band_noise(rng, spec.n_channels, n_samples,
                                                      lo, hi, SYNTH_FS):
                    carrier *= np.exp(log_amp[r0:r1, b:b + 1])
                    data[r0:r1] += carrier
            out = raw[len(trials)]
            out[:] = data
            trials.append(RawTrial(subj, 0, trial, label, SYNTH_FS, out))
    return SampleBank("synthetic-timeseries", _class_names(spec.n_classes),
                      band_names, montage, [], trials)


def extract_bank_features(bank: SampleBank, window_s=SYNTH_WINDOW_S,
                          tail_s=dsp.DEFAULT_TAIL_SECONDS, smooth=True,
                          preprocess=False, reject_segments=False) -> SampleBank:
    """Feature bank from a raw-trial bank: per-trial conditioning, windowed
    band differential entropy, optional segment rejection and smoothing."""
    if not bank.raw_trials:
        raise BankError("bank has no raw trials to extract features from")
    if len(bank.bands) != len(DEFAULT_BANDS):
        raise BankError("feature extraction uses the default 5-band layout")
    band_spec = DEFAULT_BANDS
    samples = []
    for trial in bank.raw_trials:
        t = dsp.preprocess_trial(trial, bank.montage) if preprocess else trial
        t = dsp.trial_tail(t, tail_s)
        trial_samples = dsp.extract_de(t, band_spec, window_s, tail_s=None)
        if reject_segments:
            keep = dsp.reject_bad_segments(t, window_s)
            trial_samples = [s for s, k in zip(trial_samples, keep) if k]
            for w, s in enumerate(trial_samples):
                s.window_index = w
        if not trial_samples:
            continue
        if smooth:
            trial_samples = dsp.smooth_samples(trial_samples)
        samples.extend(trial_samples)
    return SampleBank(bank.dataset + "+features", bank.classes, bank.bands,
                      bank.montage, samples, bank.raw_trials)
