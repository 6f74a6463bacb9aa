"""Signal conditioning and per-band differential-entropy features.

All operations are pure: filters are zero-phase (forward-backward) and feature
windows are non-overlapping.  Filtering uses 4th-order Butterworth band-pass
sections and a Q=30 IIR notch from scipy.signal.  scipy.signal is imported on
the first filter call, so a process that only trains on or predicts from DE
features never loads it, and each band-pass is designed once per
(low, high, fs) and cached.

Processing runs in parallel within a trial, through the autodiff claim
runner and thread pool (one worker per CPU the process may use; scipy's
filter loops release the GIL).  ``extract_de`` filters its five bands as
five jobs, each writing its own band of the DE array, and ``bandpass`` and
``notch`` cut their channel rows into one contiguous block per worker.
Threads claim jobs from a shared counter, so a busy pool thread delays a
call by at most one job.  Every row is filtered exactly as in the whole
array, so results do not depend on the worker count.  The bad-channel scan
is array-wide: one centred pass gives every neighbour correlation, and only
rows with enough repeated values get their longest flat run measured.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .montage import ChannelMontage, nearest_neighbor

VAR_FLOOR = 1e-12
NOTCH_Q = 30.0
BUTTER_ORDER = 4

FLATLINE_SECONDS = 5.0
CHANNEL_STD_FACTOR = 4.0
NEIGHBOR_CORR_MIN = 0.6
SEGMENT_VAR_FACTOR = 7.0
INTERP_NEIGHBORS = 4

DEFAULT_TAIL_SECONDS = 30.0


class DspError(ValueError):
    pass


@dataclass
class RawTrial:
    """One continuous recording: channels x samples in microvolts."""

    subject_id: int
    session_id: int
    trial_id: int
    label: int
    fs: float
    data: np.ndarray  # (channels, samples)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.dtype not in (np.float32, np.float64):
            self.data = self.data.astype(np.float64)
        if self.fs <= 0:
            raise DspError(f"sampling rate must be positive, got {self.fs}")
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise DspError(f"trial data must be (channels, samples), got {self.data.shape}")

    @property
    def n_channels(self):
        return self.data.shape[0]

    @property
    def n_samples(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class BandSpec:
    """Ordered (name, low Hz, high Hz) frequency bands."""

    bands: tuple[tuple[str, float, float], ...] = (
        ("delta", 0.1, 4.0),
        ("theta", 4.0, 8.0),
        ("alpha", 8.0, 13.0),
        ("beta", 13.0, 31.0),
        ("gamma", 31.0, 50.0),
    )

    def __post_init__(self):
        object.__setattr__(self, "bands",
                           tuple((str(n), float(lo), float(hi)) for n, lo, hi in self.bands))
        for name, lo, hi in self.bands:
            if not 0 < lo < hi:
                raise DspError(f"band {name}: need 0 < low < high, got ({lo}, {hi})")

    @property
    def names(self):
        return tuple(b[0] for b in self.bands)

    def __len__(self):
        return len(self.bands)

    def validate_for_fs(self, fs):
        for name, lo, hi in self.bands:
            if hi >= fs / 2:
                raise DspError(f"band {name} upper edge {hi} Hz >= Nyquist ({fs / 2} Hz)")


DEFAULT_BANDS = BandSpec()


@dataclass
class FeatureSample:
    """Differential entropy of one window: channels x bands, in nats."""

    subject_id: int
    session_id: int
    trial_id: int
    window_index: int
    label: int
    de: np.ndarray  # (channels, n_bands) float32

    def __post_init__(self):
        self.de = np.asarray(self.de, dtype=np.float32)
        if self.de.ndim != 2:
            raise DspError(f"de must be 2-D, got shape {self.de.shape}")
        if not np.all(np.isfinite(self.de)):
            raise DspError("de contains non-finite values")


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """(N, channels, bands) float64 feature stack plus (N,) int64 labels."""
    if len(samples) == 0:
        raise DspError("no samples to stack")
    feats = np.stack([s.de for s in samples]).astype(np.float64)
    labels = np.array([s.label for s in samples], dtype=np.int64)
    return feats, labels


# -- filtering -------------------------------------------------------------

def _check_band(low, high, fs):
    if not 0 < low < high < fs / 2:
        raise DspError(f"band ({low}, {high}) Hz invalid for fs={fs} Hz")


def _signal():
    """scipy.signal, imported here rather than at module load."""
    from scipy import signal
    return signal


@functools.lru_cache(maxsize=32)
def _bandpass_design(low, high, fs):
    """Read-only second-order sections of the band-pass and the pad length
    sosfiltfilt uses by default for them."""
    sos = _signal().butter(BUTTER_ORDER, [low, high], btype="bandpass", fs=fs, output="sos")
    sos.setflags(write=False)
    padlen = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
    return sos, int(padlen)


def _filter_input(data, padlen, what):
    """`data` as float64, else DspError when it is not longer than the
    filter's pad length or holds non-finite values."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[-1] if data.ndim else 0
    if n <= padlen:
        raise DspError(f"{what} needs at least {padlen + 1} samples per channel, got {n}")
    if not np.all(np.isfinite(data)):
        raise DspError(f"{what} input contains non-finite values")
    return data


def _threads(n_jobs, size):
    """Threads worth using on `n_jobs` jobs over `size` elements in all: at
    most one per worker and per job, and each with at least
    `ad._MIN_SLICE_SIZE` elements, the share that pays for a hand-off."""
    return min(ad._workers, n_jobs, size // ad._MIN_SLICE_SIZE)


def _filter_rows(filt, data):
    """filt(data), for a filter that treats each row of the last axis on its
    own, with the rows cut into contiguous blocks that `ad._run_jobs` filters
    at once.  Each block is filtered exactly as within the whole array, so
    the result does not depend on the cut."""
    rows = data.reshape(-1, data.shape[-1])
    parts = _threads(len(rows), rows.size)
    if parts < 2:
        return filt(data)
    out = np.empty_like(rows)
    cuts = [len(rows) * i // parts for i in range(parts + 1)]

    def block(i):
        out[cuts[i]:cuts[i + 1]] = filt(rows[cuts[i]:cuts[i + 1]])

    ad._run_jobs(block, parts, parts)
    return out.reshape(data.shape)


def _sosfiltfilt(sos, padlen):
    """Forward-backward filter of a cached design; scipy's sosfilt needs a
    writable one."""
    return lambda x: _signal().sosfiltfilt(sos.copy(), x, axis=-1, padlen=padlen)


def bandpass(data, low, high, fs):
    """Zero-phase 4th-order Butterworth band-pass, per channel."""
    _check_band(low, high, fs)
    sos, padlen = _bandpass_design(float(low), float(high), float(fs))
    data = _filter_input(data, padlen, "bandpass")
    return _filter_rows(_sosfiltfilt(sos, padlen), data)


def notch(data, f0, fs):
    """Zero-phase second-order IIR notch at f0 with quality factor 30."""
    if not 0 < f0 < fs / 2:
        raise DspError(f"notch frequency {f0} Hz outside (0, {fs / 2}) Hz")
    signal = _signal()
    b, a = signal.iirnotch(f0, NOTCH_Q, fs=fs)
    padlen = 3 * max(len(a), len(b))  # filtfilt's default
    data = _filter_input(data, padlen, "notch")
    return _filter_rows(lambda x: signal.filtfilt(b, a, x, axis=-1, padlen=padlen), data)


# -- differential entropy ---------------------------------------------------

def differential_entropy(window):
    """0.5 * ln(2*pi*e * var) with a 1e-12 variance floor, in nats.

    Variance uses the N denominator; the floor keeps constant windows finite.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.ndim != 1 or window.size < 2:
        raise DspError("differential entropy needs a 1-D window of length >= 2")
    var = float(np.var(window))
    return 0.5 * math.log(2.0 * math.pi * math.e * max(var, VAR_FLOOR))


def _window_de(filtered, n_windows, win):
    """(channels, n_windows) DE over consecutive windows of filtered data."""
    c = filtered.shape[0]
    segs = filtered[:, : n_windows * win].reshape(c, n_windows, win)
    var = segs.var(axis=-1)
    return 0.5 * np.log(2.0 * math.pi * math.e * np.maximum(var, VAR_FLOOR))


def trial_tail(trial: RawTrial, tail_s=DEFAULT_TAIL_SECONDS) -> RawTrial:
    """The last `tail_s` seconds of a trial (whole trial if shorter or None)."""
    if tail_s is None:
        return trial
    n_tail = int(round(tail_s * trial.fs))
    if n_tail >= trial.n_samples:
        return trial
    return RawTrial(trial.subject_id, trial.session_id, trial.trial_id,
                    trial.label, trial.fs, trial.data[:, -n_tail:])


def extract_de(trial: RawTrial, bands: BandSpec = DEFAULT_BANDS,
               window_s=1.0, tail_s=DEFAULT_TAIL_SECONDS) -> list[FeatureSample]:
    """Band-filter the trial tail and emit one DE sample per window.

    Filtering runs over the full tail (so band transients settle across
    window edges) before slicing into non-overlapping `window_s` windows;
    the sample count is exactly floor(tail_length / window).
    """
    bands.validate_for_fs(trial.fs)
    tail = trial_tail(trial, tail_s)
    win = int(round(window_s * trial.fs))
    if win < 2:
        raise DspError(f"window of {window_s} s is too short at fs={trial.fs}")
    n_windows = tail.n_samples // win
    if n_windows < 1:
        raise DspError(
            f"trial has {tail.n_samples} samples, shorter than one {window_s} s window")
    designs = [_bandpass_design(lo, hi, float(trial.fs)) for _, lo, hi in bands.bands]
    data = _filter_input(tail.data, max(padlen for _, padlen in designs), "bandpass")
    de = np.empty((tail.n_channels, n_windows, len(bands)))

    def band(b):
        de[:, :, b] = _window_de(_sosfiltfilt(*designs[b])(data), n_windows, win)

    ad._run_jobs(band, len(designs), _threads(len(designs), len(designs) * data.size))
    return [
        FeatureSample(trial.subject_id, trial.session_id, trial.trial_id,
                      w, trial.label, de[:, w, :])
        for w in range(n_windows)
    ]


# -- temporal smoothing ------------------------------------------------------

def lds_smooth(sequence, q_ratio=0.01):
    """Random-walk Kalman filter + RTS smoother over a feature sequence.

    Each scalar dimension is smoothed independently with observation noise
    r = population variance of that dimension across the sequence and process
    noise q = `q_ratio` * r.  The filter is initialized at the first
    observation with P = r.  Constant dimensions (r = 0) pass through
    unchanged.
    """
    if len(sequence) == 0:
        raise DspError("cannot smooth an empty sequence")
    arrays = [np.asarray(m, dtype=np.float64) for m in sequence]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise DspError("inconsistent shapes in sequence")
    stack = np.stack(arrays)
    n = stack.shape[0]
    if n == 1:
        return [stack[0].copy()]
    y = stack.reshape(n, -1)
    r = y.var(axis=0)
    active = r > 0.0
    out = y.copy()
    if np.any(active):
        ya = y[:, active]
        ra = r[active]
        qa = q_ratio * ra
        x_filt = np.empty_like(ya)
        p_filt = np.empty_like(ya)
        x_pred = np.empty_like(ya)
        p_pred = np.empty_like(ya)
        x_filt[0] = ya[0]
        p_filt[0] = ra
        for t in range(1, n):
            x_pred[t] = x_filt[t - 1]
            p_pred[t] = p_filt[t - 1] + qa
            gain = p_pred[t] / (p_pred[t] + ra)
            x_filt[t] = x_pred[t] + gain * (ya[t] - x_pred[t])
            p_filt[t] = (1.0 - gain) * p_pred[t]
        x_smooth = x_filt.copy()
        for t in range(n - 2, -1, -1):
            c = p_filt[t] / p_pred[t + 1]
            x_smooth[t] = x_filt[t] + c * (x_smooth[t + 1] - x_pred[t + 1])
        out[:, active] = x_smooth
    return [out[t].reshape(shape) for t in range(n)]


def smooth_samples(samples: list[FeatureSample], q_ratio=0.01) -> list[FeatureSample]:
    """LDS-smooth a trial's DE sequence, keeping metadata and window order."""
    smoothed = lds_smooth([s.de for s in samples], q_ratio=q_ratio)
    return [
        FeatureSample(s.subject_id, s.session_id, s.trial_id, s.window_index,
                      s.label, m)
        for s, m in zip(samples, smoothed)
    ]


# -- artifact heuristics ------------------------------------------------------

def _max_run_length(x):
    """Longest run of identical consecutive values in a 1-D array."""
    change = np.flatnonzero(np.diff(x) != 0)
    edges = np.concatenate(([-1], change, [x.size - 1]))
    return int(np.max(np.diff(edges)))


def detect_bad_channels(trial: RawTrial, montage: ChannelMontage) -> set[int]:
    """Union of three rejection criteria.

    (a) a flatline (identical consecutive values) longer than 5 s;
    (b) channel std above 4x the mean channel std;
    (c) Pearson correlation with the nearest-neighbor channel below 0.6.
    """
    if trial.n_channels != len(montage):
        raise DspError(
            f"trial has {trial.n_channels} channels, montage has {len(montage)}")
    data = trial.data
    n = trial.n_channels
    bad: set[int] = set()

    # a run longer than the limit repeats a value more than limit - 1 times,
    # so only rows with that many repeats need their longest run measured
    flat_limit = FLATLINE_SECONDS * trial.fs
    repeats = np.count_nonzero(np.diff(data, axis=1) == 0, axis=1)
    for c in np.flatnonzero(repeats > flat_limit - 1).tolist():
        if _max_run_length(data[c]) > flat_limit:
            bad.add(c)

    stds = data.std(axis=1)
    mean_std = stds.mean()
    if mean_std > 0:
        bad.update(np.flatnonzero(stds > CHANNEL_STD_FACTOR * mean_std).tolist())

    if n >= 2:
        nb = np.array([nearest_neighbor(montage, c) for c in range(n)])
        x = np.asarray(data, dtype=np.float64)
        x = x - x.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.einsum("ij,ij->i", x, x))
        dots = np.einsum("ij,ij->i", x, x[nb])
        # a channel or neighbour whose centred row is all zeros counts as
        # uncorrelated (a float32 std can read ~1e-8 for a constant row)
        live = (norms > 0.0) & (norms[nb] > 0.0)
        corr = np.where(live, dots, 0.0) / np.where(live, norms * norms[nb], 1.0)
        bad.update(np.flatnonzero(corr < NEIGHBOR_CORR_MIN).tolist())
    return bad


def reject_bad_segments(trial: RawTrial, window_s) -> np.ndarray:
    """Keep-mask over consecutive windows; a window is dropped when any
    channel's in-window variance exceeds 7x that channel's trial variance."""
    win = int(round(window_s * trial.fs))
    if win > trial.n_samples:
        raise DspError("window longer than trial")
    if win < 1:
        raise DspError("window too short")
    n_windows = trial.n_samples // win
    segs = trial.data[:, : n_windows * win].reshape(trial.n_channels, n_windows, win)
    win_var = segs.var(axis=-1)
    trial_var = trial.data.var(axis=1, keepdims=True)
    bad = (win_var > SEGMENT_VAR_FACTOR * trial_var).any(axis=0)
    return ~bad


def interpolate_channels(trial: RawTrial, bad: set, montage: ChannelMontage) -> RawTrial:
    """Replace each bad channel by an inverse-distance-weighted average of
    its 4 nearest good channels (weights normalized to sum to 1)."""
    if trial.n_channels != len(montage):
        raise DspError("trial/montage channel mismatch")
    bad = {int(b) for b in bad}
    if any(not 0 <= b < trial.n_channels for b in bad):
        raise DspError("bad-channel index out of range")
    good = [c for c in range(trial.n_channels) if c not in bad]
    if not good:
        raise DspError("cannot interpolate: all channels are bad")
    if not bad:
        return trial
    data = trial.data.copy()
    pos = montage.positions
    for c in sorted(bad):
        d = np.linalg.norm(pos[good] - pos[c], axis=1)
        order = np.argsort(d, kind="stable")[:INTERP_NEIGHBORS]
        dd = np.maximum(d[order], 1e-12)
        w = 1.0 / dd
        w /= w.sum()
        src = np.array(good)[order]
        data[c] = w @ trial.data[src]
    return RawTrial(trial.subject_id, trial.session_id, trial.trial_id,
                    trial.label, trial.fs, data)


def rereference_mean(trial: RawTrial) -> RawTrial:
    """Subtract the instantaneous across-channel mean (idempotent)."""
    data = trial.data - trial.data.mean(axis=0, keepdims=True)
    return RawTrial(trial.subject_id, trial.session_id, trial.trial_id,
                    trial.label, trial.fs, data)


def preprocess_trial(trial: RawTrial, montage: ChannelMontage,
                     band=(0.01, 48.0), notch_hz=50.0) -> RawTrial:
    """Conditioning chain: band-pass, notch, bad-channel interpolation,
    mean re-reference.  Segment rejection is applied separately so its
    windows can align with feature windows."""
    data = bandpass(trial.data, band[0], band[1], trial.fs)
    if notch_hz is not None and 0 < notch_hz < trial.fs / 2:
        data = notch(data, notch_hz, trial.fs)
    cleaned = RawTrial(trial.subject_id, trial.session_id, trial.trial_id,
                       trial.label, trial.fs, data)
    bad = detect_bad_channels(cleaned, montage)
    if bad and len(bad) < trial.n_channels:
        cleaned = interpolate_channels(cleaned, bad, montage)
    return rereference_mean(cleaned)
