"""Signal conditioning and per-band differential-entropy features.

All operations are pure, except where a caller passes an ``out`` array to
fill: filters are zero-phase (forward-backward) and feature windows are
non-overlapping.  Filtering uses 4th-order Butterworth band-pass sections and
a Q=30 IIR notch from scipy.signal.  scipy.signal is imported on the first
filter call, so a process that only trains on or predicts from DE features
never loads it, and each band-pass is designed once per (low, high, fs) and
cached.

Filtering works on contiguous blocks of channel rows of about
``autodiff._MIN_SLICE_SIZE`` elements, so each of scipy's temporaries, and
the float64 copy of a float32 input, spans one block rather than the whole
array, and a block's filter holds at most two such arrays at once.  The
blocks run in parallel within a trial, through the autodiff claim runner
and thread pool (one worker per CPU the process may use; scipy's filter
loops release the GIL): ``bandpass`` and ``notch`` run one job per block,
and ``extract_de`` one job per (band, block), each writing its window DE
into its slice of the DE array.  ``band_noise_trials``, which builds the
synthetic timeseries trials, is a pipeline: each call filters one half-band
unit of noise in row blocks while its first job draws the next unit from
the caller's generator, in the order of whole-array draws.  Threads claim
jobs from a shared counter, so a busy pool thread delays a call by at most
one job.  Every row is filtered exactly as in the whole array, so results
do not depend on the block cut or the worker count.  ``preprocess_trial``
notches and re-references in place on the band-pass output it owns.  The
bad-channel scan is array-wide: one centred pass gives every neighbour
correlation, with the neighbour rows gathered a block at a time, and only
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
    """Read-only second-order sections of the band-pass, the pad length
    sosfiltfilt uses by default for them, and their read-only steady-state
    initial conditions, shaped to scale by a column of first samples."""
    signal = _signal()
    sos = signal.butter(BUTTER_ORDER, [low, high], btype="bandpass", fs=fs, output="sos")
    zi = signal.sosfilt_zi(sos)[:, None, :]
    sos.setflags(write=False)
    zi.setflags(write=False)
    padlen = 3 * (2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum()))
    return sos, int(padlen), zi


def _filter_input(data, padlen, what):
    """`data` as a float array, else DspError when it is not longer than the
    filter's pad length or holds non-finite values.  Float32 stays float32:
    the filters widen it a block at a time."""
    data = np.asarray(data)
    if data.dtype not in (np.float32, np.float64):
        data = data.astype(np.float64)
    n = data.shape[-1] if data.ndim else 0
    if n <= padlen:
        raise DspError(f"{what} needs at least {padlen + 1} samples per channel, got {n}")
    if not np.all(np.isfinite(data)):
        raise DspError(f"{what} input contains non-finite values")
    return data


def _row_blocks(rows, cols):
    """Cuts of `rows` rows of `cols` samples into contiguous blocks of about
    `ad._MIN_SLICE_SIZE` elements each: at least one row a block, and never
    more blocks than rows."""
    n = min(rows, max(1, -(-rows * cols // ad._MIN_SLICE_SIZE)))
    return [rows * i // n for i in range(n + 1)]


def _threads(n_jobs, size):
    """Threads worth using on `n_jobs` jobs over `size` elements in all: at
    most one per worker and per job, and each with at least
    `ad._MIN_SLICE_SIZE` elements, the share that pays for a hand-off."""
    return min(ad._workers, n_jobs, size // ad._MIN_SLICE_SIZE)


def _filter_rows(filt, data, out=None):
    """filt(data), for a float64 filter that treats each row of the last
    axis on its own, with the rows cut by `_row_blocks` into jobs that
    `ad._run_jobs` filters at once.  Each block is filtered exactly as within
    the whole array, so the result does not depend on the cut.  `out`, a
    float64 array of the shape of 2-D `data`, takes the result when given;
    it may be `data` itself, as a block is read whole before it is
    written."""
    rows = data.reshape(-1, data.shape[-1])
    cuts = _row_blocks(*rows.shape)
    if len(cuts) == 2 and out is None:
        return filt(rows).reshape(data.shape)
    out = np.empty(data.shape) if out is None else out
    out_rows = out.reshape(rows.shape)

    def block(i):
        out_rows[cuts[i]:cuts[i + 1]] = filt(rows[cuts[i]:cuts[i + 1]])

    ad._run_jobs(block, len(cuts) - 1, _threads(len(cuts) - 1, rows.size))
    return out


def _zero_phase(filt, padlen, zi):
    """Forward-backward filter of the rows of a 2-D array, op for op as
    scipy's sosfiltfilt and filtfilt do it: the rows widened to float64,
    odd extensions of `padlen` samples at both ends, then the causal pass
    filt(x, zi) forward and backward, each started from the steady-state
    initial conditions `zi` scaled by its row's first sample.  `zi` comes
    with the design, so a call on a block of rows does not solve for it
    again.  Each step drops the array before it, so a call holds at most two
    arrays of the block's size at once."""
    def run(x):
        x = np.asarray(x, dtype=np.float64)
        x = np.concatenate((2 * x[:, :1] - x[:, padlen:0:-1], x,
                            2 * x[:, -1:] - x[:, -2:-padlen - 2:-1]), axis=1)
        x = filt(x, zi * x[:, :1])
        x = filt(x[:, ::-1], zi * x[:, -1:])
        return x[:, ::-1][:, padlen:-padlen]
    return run


def _sosfiltfilt(sos, padlen, zi):
    """sosfiltfilt of a cached design; scipy's sosfilt needs a writable one."""
    signal = _signal()
    return _zero_phase(lambda x, z: signal.sosfilt(sos.copy(), x, zi=z)[0], padlen, zi)


def bandpass(data, low, high, fs):
    """Zero-phase 4th-order Butterworth band-pass, per channel."""
    _check_band(low, high, fs)
    design = _bandpass_design(float(low), float(high), float(fs))
    data = _filter_input(data, design[1], "bandpass")
    return _filter_rows(_sosfiltfilt(*design), data)



def band_noise_trials(rng, gains, fs, out):
    """Fill `out`, a float32 (trials, channels, samples) array, with noise
    trials: trial t is the float64 sum over the default bands b, in order, of
    white noise from `rng` band-passed to band b, scaled to unit std per row
    and multiplied by gains[t, :, b], rounded to float32 once.

    `rng` draws one whole (channels, samples) array per band, bands and
    trials in order, so `out` and the state `rng` is left in are those of
    drawing, filtering and summing whole arrays.  The work runs as a
    pipeline: each band's noise is cut into two units of rows, and one
    `ad._run_jobs` call filters, scales and sums one unit's row blocks while
    its first job draws the next unit into the other of two buffers.  The
    draw and scipy's filter loops both release the GIL, so they run at once
    when `_threads` finds the unit worth a hand-off.  Beside `out`, this
    holds one float64 trial sum, two units of noise and the temporaries of
    the row blocks being filtered.  The blocks are cut at a quarter of the
    usual size, so that two filtered at once hold less than one usual block,
    which pays for the second unit of noise: on 62 channels of 6000 samples
    the traced peak above `out` is 7.2 MB.
    """
    n_bands = len(DEFAULT_BANDS)
    if (out.dtype != np.float32 or out.ndim != 3 or not out.size
            or gains.shape != (*out.shape[:2], n_bands)):
        raise DspError(f"need a non-empty float32 (trials, channels, samples) out and (trials, "
                       f"channels, {n_bands}) gains, got {out.dtype} {out.shape} and {gains.shape}")
    n_trials, rows, cols = out.shape
    DEFAULT_BANDS.validate_for_fs(fs)
    designs = [_bandpass_design(lo, hi, float(fs)) for _, lo, hi in DEFAULT_BANDS.bands]
    padlen = max(d[1] for d in designs)
    if cols <= padlen:
        raise DspError(f"band noise needs at least {padlen + 1} samples per channel, got {cols}")
    filters = [_sosfiltfilt(*d) for d in designs]
    half = -(-rows // 2)
    units = [(t, b, r0, min(r0 + half, rows)) for t in range(n_trials)
             for b in range(n_bands) for r0 in range(0, rows, half)]
    total = np.zeros((rows, cols))
    now, ahead = np.empty((half, cols)), np.empty((half, cols))
    rng.standard_normal(out=now[:half])
    for (t, b, r0, r1), (_, _, n0, n1) in zip(units, units[1:] + [(0, 0, 0, 0)]):
        noise = now[:r1 - r0]
        cuts = _row_blocks(r1 - r0, 4 * cols)

        def job(j):
            if j == 0:
                rng.standard_normal(out=ahead[:n1 - n0])
                return
            k0, k1 = cuts[j - 1], cuts[j]
            carrier = filters[b](noise[k0:k1])
            carrier /= np.maximum(carrier.std(axis=1, keepdims=True), 1e-12)
            carrier *= gains[t, r0 + k0:r0 + k1, b:b + 1]
            rows_sum = total[r0 + k0:r0 + k1]
            rows_sum += carrier
            if b == n_bands - 1:  # the rows' sum is whole
                out[t, r0 + k0:r0 + k1] = rows_sum
                rows_sum[:] = 0.0

        ad._run_jobs(job, len(cuts), _threads(len(cuts), (r1 - r0 + n1 - n0) * cols))
        now, ahead = ahead, now


def notch(data, f0, fs, out=None):
    """Zero-phase second-order IIR notch at f0 with quality factor 30,
    written into `out` when given (a float64 array of 2-D `data`'s shape,
    `data` itself included)."""
    if not 0 < f0 < fs / 2:
        raise DspError(f"notch frequency {f0} Hz outside (0, {fs / 2}) Hz")
    signal = _signal()
    b, a = signal.iirnotch(f0, NOTCH_Q, fs=fs)
    padlen = 3 * max(len(a), len(b))  # filtfilt's default
    data = _filter_input(data, padlen, "notch")
    zi = signal.lfilter_zi(b, a)[None, :]
    return _filter_rows(_zero_phase(lambda x, z: signal.lfilter(b, a, x, zi=z)[0], padlen, zi),
                        data, out)


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
    data = _filter_input(tail.data, max(d[1] for d in designs), "bandpass")
    de = np.empty((tail.n_channels, n_windows, len(bands)))
    cuts = _row_blocks(*data.shape)
    n_jobs = len(designs) * (len(cuts) - 1)

    def job(j):
        b, k = divmod(j, len(cuts) - 1)
        rows = slice(cuts[k], cuts[k + 1])
        de[rows, :, b] = _window_de(_sosfiltfilt(*designs[b])(data[rows]), n_windows, win)

    ad._run_jobs(job, n_jobs, _threads(n_jobs, len(designs) * data.size))
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
    change = np.flatnonzero(x[1:] != x[:-1])
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
    repeats = np.count_nonzero(data[:, 1:] == data[:, :-1], axis=1)
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
        dots = np.empty(n)
        cuts = _row_blocks(*x.shape)
        for r0, r1 in zip(cuts, cuts[1:]):  # neighbour rows gathered a block at a time
            dots[r0:r1] = np.einsum("ij,ij->i", x[r0:r1], x[nb[r0:r1]])
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
        notch(data, notch_hz, trial.fs, out=data)
    cleaned = RawTrial(trial.subject_id, trial.session_id, trial.trial_id,
                       trial.label, trial.fs, data)
    bad = detect_bad_channels(cleaned, montage)
    if bad and len(bad) < trial.n_channels:
        cleaned = interpolate_channels(cleaned, bad, montage)
    # the mean re-reference, in place on the array this call made
    cleaned.data -= cleaned.data.mean(axis=0, keepdims=True)
    return cleaned
