"""Signal-path tests: filter responses against designed-filter oracles,
differential entropy against closed forms, smoothing against a scalar
Kalman/RTS reference."""

import math
import threading
import warnings

import numpy as np
import pytest
from scipy import signal

from eegtransfer import autodiff as ad
from eegtransfer import data_io, dsp
from eegtransfer.config import SynthSpec
from eegtransfer.montage import ChannelMontage, default_montage, nearest_neighbor

FS = 200.0


def sine(freq, seconds=10.0, fs=FS):
    t = np.arange(int(seconds * fs)) / fs
    return np.sin(2 * np.pi * freq * t)[None, :]


def central_rms(x, fs=FS, skip_s=1.0):
    skip = int(skip_s * fs)
    core = x[..., skip:-skip]
    return float(np.sqrt(np.mean(core ** 2)))


def designed_bandpass_gain(freq, low, high, fs=FS):
    """Zero-phase magnitude of the shipped band-pass design at `freq`."""
    sos = signal.butter(dsp.BUTTER_ORDER, [low, high], btype="bandpass",
                        fs=fs, output="sos")
    w, h = signal.sosfreqz(sos, worN=[freq], fs=fs)
    return float(np.abs(h[0]) ** 2)  # forward-backward squares the magnitude


def designed_notch_gain(freq, f0, fs=FS):
    b, a = signal.iirnotch(f0, dsp.NOTCH_Q, fs=fs)
    w, h = signal.freqz(b, a, worN=[freq], fs=fs)
    return float(np.abs(h[0]) ** 2)


def make_trial(data, fs=FS, label=0):
    return dsp.RawTrial(0, 0, 0, label, fs, data)


def default_montage_head(n):
    """The first `n` channels of the bundled montage."""
    ref = default_montage()
    return ChannelMontage(ref.names[:n], ref.positions[:n])


class TestFilters:
    def test_bandpass_passes_in_band_tone(self):
        x = sine(10.0)
        y = dsp.bandpass(x, 8.0, 13.0, FS)
        gain = central_rms(y) / central_rms(x)
        assert abs(designed_bandpass_gain(10.0, 8.0, 13.0) - gain) < 0.01
        assert abs(gain - 1.0) < 0.05  # RMS within 5% of input

    def test_bandpass_rejects_out_of_band_tone(self):
        # the 0.1 Hz corner rings for ~10 s, so use a long tone and skip the
        # edge transients before measuring
        x = sine(60.0, seconds=60.0)
        y = dsp.bandpass(x, 0.1, 4.0, FS)
        gain = central_rms(y, skip_s=20.0) / central_rms(x, skip_s=20.0)
        assert gain < 10 ** (-20 / 20.0)  # at least 20 dB down
        assert designed_bandpass_gain(60.0, 0.1, 4.0) < 10 ** (-20 / 20.0)

    def test_bandpass_zeros_stay_zeros(self):
        y = dsp.bandpass(np.zeros((3, 400)), 8.0, 13.0, FS)
        assert np.all(y == 0.0)

    @pytest.mark.parametrize("low,high", [(0.0, 4.0), (8.0, 8.0), (50.0, 120.0)])
    def test_bandpass_invalid_band(self, low, high):
        with pytest.raises(dsp.DspError):
            dsp.bandpass(np.zeros((1, 400)), low, high, FS)

    def test_bandpass_rejects_non_finite(self):
        bad = np.zeros((1, 400))
        bad[0, 10] = np.nan
        with pytest.raises(dsp.DspError):
            dsp.bandpass(bad, 8.0, 13.0, FS)

    def test_notch_kills_mains_tone(self):
        x = sine(50.0)
        y = dsp.notch(x, 50.0, FS)
        gain = central_rms(y) / central_rms(x)
        assert gain < 10 ** (-30 / 20.0)

    def test_notch_preserves_distant_tone(self):
        x = sine(10.0)
        y = dsp.notch(x, 50.0, FS)
        gain = central_rms(y) / central_rms(x)
        assert abs(designed_notch_gain(10.0, 50.0) - gain) < 0.01
        assert abs(gain - 1.0) < 0.02

    def test_notch_invalid_frequency(self):
        with pytest.raises(dsp.DspError):
            dsp.notch(np.zeros((1, 400)), 120.0, FS)

    def test_notch_rejects_non_finite(self):
        bad = np.zeros((1, 400))
        bad[0, 10] = np.inf
        with pytest.raises(dsp.DspError, match="non-finite"):
            dsp.notch(bad, 50.0, FS)

    @pytest.mark.parametrize("run,minimum", [
        (lambda x: dsp.bandpass(x, 8.0, 13.0, FS), 28),
        (lambda x: dsp.notch(x, 50.0, FS), 10),
        (lambda x: dsp.preprocess_trial(make_trial(x), default_montage_head(2)), 28),
        (lambda x: dsp.extract_de(make_trial(x), window_s=0.05, tail_s=None), 28),
    ], ids=["bandpass", "notch", "preprocess_trial", "extract_de"])
    def test_input_not_longer_than_pad_length_rejected(self, run, minimum):
        # forward-backward filtering pads each end; input no longer than the
        # pad is a DspError naming its length and the minimum
        x = np.random.default_rng(8).normal(size=(2, minimum))
        with pytest.raises(dsp.DspError, match=rf"at least {minimum} samples.*got {minimum - 1}$"):
            run(x[:, :-1])
        run(x)

    @pytest.mark.parametrize("rows", [3, 62])
    def test_notch_in_place_bitwise_equal(self, rows):
        # 3 rows are one block, whose band-pass is a reversed view; 62 rows
        # of 3000 samples are two blocks
        y = dsp.bandpass(np.random.default_rng(27).normal(size=(rows, 3000)), 1.0, 48.0, FS)
        want = dsp.notch(y, 50.0, FS)
        assert dsp.notch(y, 50.0, FS, out=y) is y
        assert np.array_equal(y, want)

    def test_band_noise_trials_rejects_bad_arguments(self):
        rng = np.random.default_rng(28)
        state = rng.bit_generator.state
        out = np.zeros((2, 3, 100), dtype=np.float32)
        for gains, target in [(np.ones((2, 3, 4)), out), (np.ones((2, 3, 5)), out.astype(float)),
                              (np.ones((2, 3, 5)), out[:, :, :20]),
                              (np.ones((0, 3, 5)), out[:0]), (np.ones((3, 5)), out[0])]:
            with pytest.raises(dsp.DspError):
                dsp.band_noise_trials(rng, gains, FS, target)
        assert rng.bit_generator.state == state

    def test_zero_phase_no_group_delay(self):
        x = sine(10.0)
        y = dsp.bandpass(x, 8.0, 13.0, FS)
        skip = int(FS)
        xc, yc = x[0, skip:-skip], y[0, skip:-skip]
        lags = signal.correlation_lags(len(xc), len(yc))
        corr = signal.correlate(yc, xc)
        assert lags[int(np.argmax(corr))] == 0


class TestDesignCache:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bandpass_bitwise_equal_to_fresh_design(self, dtype):
        x = np.random.default_rng(1).normal(size=(3, 600)).astype(dtype)
        for _, low, high in dsp.DEFAULT_BANDS.bands + (("pre", 0.01, 48.0),):
            sos = signal.butter(dsp.BUTTER_ORDER, [low, high], btype="bandpass", fs=FS,
                                output="sos")
            expected = signal.sosfiltfilt(sos, x.astype(np.float64), axis=-1)
            assert np.array_equal(dsp.bandpass(x, low, high, FS), expected)

    def test_repeat_band_hits_cache(self):
        x = np.random.default_rng(2).normal(size=(2, 400))
        first = dsp.bandpass(x, 7.25, 11.5, FS)
        before = dsp._bandpass_design.cache_info()
        again = dsp.bandpass(x, 7.25, 11.5, FS)
        after = dsp._bandpass_design.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert np.array_equal(first, again)
        assert after.maxsize is not None  # bounded

    def test_cached_design_unchanged_by_filtering(self):
        sos, _, zi = dsp._bandpass_design(8.0, 13.0, FS)
        before = sos.tobytes(), zi.tobytes()
        dsp.bandpass(np.random.default_rng(3).normal(size=(2, 400)), 8.0, 13.0, FS)
        assert not sos.flags.writeable and not zi.flags.writeable
        assert (sos.tobytes(), zi.tobytes()) == before


class TestDifferentialEntropy:
    def test_white_noise_matches_closed_form(self):
        rng = np.random.default_rng(0)
        vals = [dsp.differential_entropy(rng.normal(0, 1, 200)) for _ in range(500)]
        assert np.mean(vals) == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=0.02)

    def test_unit_entropy_variance(self):
        # solve 0.5 ln(2 pi e s2) = 1  ->  s2 = e / (2 pi)
        s2 = math.e / (2 * math.pi)
        assert s2 == pytest.approx(0.4326279, abs=1e-6)
        rng = np.random.default_rng(1)
        vals = [dsp.differential_entropy(rng.normal(0, math.sqrt(s2), 400))
                for _ in range(500)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.02)

    def test_constant_window_hits_variance_floor(self):
        de = dsp.differential_entropy(np.full(100, 2.5))
        assert de == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 1e-12))
        assert np.isfinite(de)

    def test_window_too_short(self):
        with pytest.raises(dsp.DspError):
            dsp.differential_entropy(np.array([1.0]))

    def test_shift_invariance_exact(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=300)
        assert dsp.differential_entropy(x + 7.25) == pytest.approx(
            dsp.differential_entropy(x), abs=1e-9)

    def test_scale_law(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=300)
        for a in (0.5, 2.0, 10.0):
            got = dsp.differential_entropy(a * x) - dsp.differential_entropy(x)
            assert got == pytest.approx(math.log(a), abs=1e-9)




class TestExtractDe:
    def test_thirty_second_trial_yields_thirty_samples(self):
        rng = np.random.default_rng(4)
        trial = make_trial(rng.normal(size=(62, int(30 * FS))))
        samples = dsp.extract_de(trial)
        assert len(samples) == 30
        assert all(s.de.shape == (62, 5) for s in samples)
        assert [s.window_index for s in samples] == list(range(30))

    def test_trial_shorter_than_window_errors(self):
        trial = make_trial(np.random.default_rng(5).normal(size=(2, int(0.5 * FS))))
        with pytest.raises(dsp.DspError):
            dsp.extract_de(trial)

    def test_scaling_adds_log_gain_to_every_band(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(3, int(5 * FS)))
        t1 = make_trial(data)
        t2 = make_trial(10.0 * data)
        de1 = np.stack([s.de for s in dsp.extract_de(t1, tail_s=None)])
        de2 = np.stack([s.de for s in dsp.extract_de(t2, tail_s=None)])
        assert np.allclose(de2 - de1, math.log(10.0), atol=1e-5)

    def test_sample_count_is_floor_of_tail_over_window(self):
        rng = np.random.default_rng(7)
        trial = make_trial(rng.normal(size=(2, int(7.6 * FS))))
        assert len(dsp.extract_de(trial, tail_s=None)) == 7
        # a long trial is cut to the configured tail
        trial_long = make_trial(rng.normal(size=(2, int(45 * FS))))
        assert len(dsp.extract_de(trial_long, tail_s=30.0)) == 30


class TestLdsSmooth:
    @staticmethod
    def reference_rts(y, q_ratio=0.01):
        """Plain scalar Kalman + RTS smoother (independent oracle)."""
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        r = y.var()
        if r == 0.0:
            return y.copy()
        q = q_ratio * r
        xf = np.zeros(n)
        pf = np.zeros(n)
        xp = np.zeros(n)
        pp = np.zeros(n)
        xf[0], pf[0] = y[0], r
        for t in range(1, n):
            xp[t] = xf[t - 1]
            pp[t] = pf[t - 1] + q
            k = pp[t] / (pp[t] + r)
            xf[t] = xp[t] + k * (y[t] - xp[t])
            pf[t] = (1 - k) * pp[t]
        xs = xf.copy()
        for t in range(n - 2, -1, -1):
            c = pf[t] / pp[t + 1]
            xs[t] = xf[t] + c * (xs[t + 1] - xp[t + 1])
        return xs

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(8)
        seq = [rng.normal(size=(4, 5)) for _ in range(20)]
        smoothed = dsp.lds_smooth(seq)
        stack = np.stack(seq)
        for c in range(4):
            for b in range(5):
                want = self.reference_rts(stack[:, c, b])
                got = np.array([m[c, b] for m in smoothed])
                assert np.allclose(got, want, atol=1e-12)

    def test_constant_sequence_unchanged(self):
        seq = [np.full((2, 3), 1.5) for _ in range(8)]
        out = dsp.lds_smooth(seq)
        for m in out:
            assert np.array_equal(m, seq[0])

    def test_impulse_peak_is_reduced(self):
        seq = [np.zeros((1, 1)) for _ in range(11)]
        seq[5] = np.ones((1, 1))
        out = dsp.lds_smooth(seq)
        vals = np.array([m[0, 0] for m in out])
        assert vals[5] < 1.0
        assert vals[5] == max(vals)
        assert np.allclose(vals, self.reference_rts(np.array(
            [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0.0])), atol=1e-12)

    def test_empty_sequence_errors(self):
        with pytest.raises(dsp.DspError):
            dsp.lds_smooth([])

    def test_inconsistent_shapes_error(self):
        with pytest.raises(dsp.DspError, match="inconsistent shapes"):
            dsp.lds_smooth([np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2))])


class TestArtifactHeuristics:
    def small_montage(self, n=6):
        return default_montage_head(n)

    def test_flatline_channel_flagged(self):
        rng = np.random.default_rng(9)
        m = default_montage()
        data = rng.normal(size=(62, int(10 * FS)))
        data[7] = 0.0  # flat for all 10 s > 5 s
        bad = dsp.detect_bad_channels(make_trial(data), m)
        assert 7 in bad

    def test_high_variance_channel_flagged(self):
        rng = np.random.default_rng(10)
        m = default_montage()
        base = rng.normal(size=(62, int(10 * FS)))
        # correlate neighbors so criterion (c) stays quiet
        common = rng.normal(size=int(10 * FS))
        data = 0.3 * base + common
        data[11] = 10.0 * rng.normal(size=int(10 * FS)) + common
        stds = data.std(axis=1)
        assert stds[11] > 4.0 * stds.mean()  # oracle for the rule itself
        bad = dsp.detect_bad_channels(make_trial(data), m)
        assert 11 in bad

    def test_uncorrelated_channels_all_flagged(self):
        rng = np.random.default_rng(11)
        m = self.small_montage()
        data = rng.normal(size=(6, int(10 * FS)))
        bad = dsp.detect_bad_channels(make_trial(data), m)
        assert bad == set(range(6))

    def test_correlated_clean_channels_not_flagged(self):
        rng = np.random.default_rng(12)
        m = self.small_montage()
        common = rng.normal(size=int(10 * FS))
        data = common + 0.1 * rng.normal(size=(6, int(10 * FS)))
        bad = dsp.detect_bad_channels(make_trial(data), m)
        assert bad == set()

    @staticmethod
    def reference_bad_channels(trial, montage):
        """The per-channel scan: one run-length pass, std pair and
        np.corrcoef call per channel."""
        data = trial.data
        bad = set()
        for c in range(trial.n_channels):
            if dsp._max_run_length(data[c]) > dsp.FLATLINE_SECONDS * trial.fs:
                bad.add(c)
        stds = data.std(axis=1)
        if stds.mean() > 0:
            bad.update(np.flatnonzero(stds > dsp.CHANNEL_STD_FACTOR * stds.mean()).tolist())
        if trial.n_channels >= 2:
            for c in range(trial.n_channels):
                x, y = data[c], data[nearest_neighbor(montage, c)]
                if x.std() == 0.0 or y.std() == 0.0:
                    corr = 0.0
                else:  # NaN where a centred row is all zeros: uncorrelated
                    with np.errstate(divide="ignore", invalid="ignore"):
                        corr = float(np.corrcoef(x, y)[0, 1])
                if corr < dsp.NEIGHBOR_CORR_MIN or np.isnan(corr):
                    bad.add(c)
        return bad

    def test_bad_channels_equal_per_channel_reference(self):
        # flatlines around the run-length limit, constant rows, rows equal to
        # their neighbour, loud rows and weakly correlated rows, float32 and
        # float64, an integer and a fractional flatline limit
        flagged = set()
        for seed in range(120):
            rng = np.random.default_rng([23, seed])
            n = int(rng.integers(2, 13))
            fs = (20.0, 20.3)[seed % 2]
            limit = dsp.FLATLINE_SECONDS * fs
            length = int(rng.integers(300, 500))
            montage = default_montage_head(n)
            common = rng.normal(size=length)
            data = common + rng.uniform(0.1, 1.5) * rng.normal(size=(n, length))
            for c in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False):
                kind = rng.integers(5)
                if kind == 0:  # flatline just below, at or above the limit
                    run = int(limit) + int(rng.integers(-2, 3))
                    start = int(rng.integers(0, length - run))
                    data[c, start:start + run] = data[c, start]
                elif kind == 1:
                    data[c] = rng.choice([0.0, 0.1, -3.7])
                elif kind == 2:
                    data[c] = data[nearest_neighbor(montage, c)]
                elif kind == 3:
                    data[c] *= 12.0
                else:
                    data[c] = rng.normal(size=length)
            if seed % 3 == 0:
                data = data.astype(np.float32)
            trial = make_trial(data, fs=fs)
            want = self.reference_bad_channels(trial, montage)
            assert dsp.detect_bad_channels(trial, montage) == want
            flagged.add((len(want) > 0, len(want) < n))
        assert flagged == {(True, True), (True, False), (False, True)}

    def test_bad_channels_equal_per_channel_reference_in_single_row_blocks(self, monkeypatch):
        # the neighbour rows are gathered a row block at a time
        monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", 1)
        self.test_bad_channels_equal_per_channel_reference()

    def test_constant_float32_row_flagged_without_warning(self):
        # float32 std reads ~1.5e-8 for a row of 0.1, and the trial is too
        # short for the flatline rule: only the correlation rule can flag it
        rng = np.random.default_rng(14)
        common = rng.normal(size=int(3 * FS))
        data = (common + 0.1 * rng.normal(size=(6, int(3 * FS)))).astype(np.float32)
        data[2] = 0.1
        assert data[2].std() != 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bad = dsp.detect_bad_channels(make_trial(data), self.small_montage())
        assert 2 in bad

    def test_stationary_noise_keeps_all_windows(self):
        rng = np.random.default_rng(13)
        keep = dsp.reject_bad_segments(make_trial(rng.normal(size=(4, int(10 * FS)))), 1.0)
        assert keep.shape == (10,)
        assert keep.all()

    def test_burst_window_rejected(self):
        rng = np.random.default_rng(14)
        data = rng.normal(size=(4, int(10 * FS)))
        w = int(FS)
        data[2, 3 * w:4 * w] *= 100.0
        trial = make_trial(data)
        win_var = data[2, 3 * w:4 * w].var()
        assert win_var > dsp.SEGMENT_VAR_FACTOR * data[2].var()  # oracle
        keep = dsp.reject_bad_segments(trial, 1.0)
        assert not keep[3]
        assert keep[:3].all() and keep[4:].all()

    def test_single_window_trial_kept(self):
        rng = np.random.default_rng(15)
        keep = dsp.reject_bad_segments(make_trial(rng.normal(size=(2, int(FS)))), 1.0)
        assert keep.tolist() == [True]

    def test_window_longer_than_trial_errors(self):
        with pytest.raises(dsp.DspError):
            dsp.reject_bad_segments(make_trial(np.zeros((1, 100))), 10.0)


class TestInterpolation:
    def test_bad_channel_surrounded_by_identical_signal(self):
        rng = np.random.default_rng(16)
        m = default_montage()
        s = rng.normal(size=int(2 * FS))
        data = np.tile(s, (62, 1))
        data[5] = 999.0
        fixed = dsp.interpolate_channels(make_trial(data), {5}, m)
        assert np.allclose(fixed.data[5], s, atol=1e-9)  # convex weights sum to 1

    def test_good_channels_untouched(self):
        rng = np.random.default_rng(17)
        m = default_montage()
        data = rng.normal(size=(62, 100))
        fixed = dsp.interpolate_channels(make_trial(data), {3, 40}, m)
        untouched = [i for i in range(62) if i not in (3, 40)]
        assert np.array_equal(fixed.data[untouched], data[untouched])

    def test_all_channels_bad_errors(self):
        m = default_montage()
        with pytest.raises(dsp.DspError):
            dsp.interpolate_channels(make_trial(np.zeros((62, 50))), set(range(62)), m)


class TestRereference:
    def test_channel_mean_is_zero_everywhere(self):
        rng = np.random.default_rng(18)
        out = dsp.rereference_mean(make_trial(rng.normal(5.0, 2.0, size=(8, 500))))
        assert np.abs(out.data.mean(axis=0)).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        once = dsp.rereference_mean(make_trial(rng.normal(size=(8, 500))))
        twice = dsp.rereference_mean(once)
        assert np.allclose(once.data, twice.data, atol=1e-12)

    def test_single_channel_goes_to_zero(self):
        out = dsp.rereference_mean(make_trial(np.random.default_rng(20).normal(size=(1, 100))))
        assert np.all(out.data == 0.0)


def test_preprocess_trial_smoke():
    rng = np.random.default_rng(21)
    m = default_montage()
    common = rng.normal(size=int(8 * FS))
    data = common + 0.2 * rng.normal(size=(62, int(8 * FS)))
    before = data.copy()
    out = dsp.preprocess_trial(make_trial(data), m)
    assert out.data.shape == data.shape
    assert np.abs(out.data.mean(axis=0)).max() < 1e-9
    assert np.array_equal(data, before)  # the notch and re-reference run on its own copy


def _pipeline_outputs():
    """Every filtering entry point on one small timeseries bank."""
    raw = data_io.gen_synthetic(SynthSpec(n_subjects=1, n_channels=8, trials_per_subject=2,
                                          samples_per_trial=3, mode="timeseries", seed=4))
    trial = raw.raw_trials[0]
    feats = data_io.extract_bank_features(raw, preprocess=True, reject_segments=True,
                                          smooth=True)
    return {
        "gen_synthetic": [t.data for t in raw.raw_trials],
        "bandpass": [dsp.bandpass(trial.data, 8.0, 13.0, trial.fs)],
        "notch": [dsp.notch(trial.data, 50.0, trial.fs)],
        "preprocess_trial": [dsp.preprocess_trial(trial, raw.montage).data],
        "extract_de": [s.de for s in dsp.extract_de(trial, tail_s=None)],
        "extract_bank_features": [s.de for s in feats.samples],
    }


def test_filtering_bitwise_equal_at_1_2_3_workers(set_workers):
    set_workers(1)
    want = _pipeline_outputs()
    assert ad._pool is None
    before = set(threading.enumerate())
    for workers in (2, 3):
        set_workers(workers)
        got = _pipeline_outputs()
        assert ad._pool is not None
        for name, arrays in want.items():
            assert len(got[name]) == len(arrays)
            assert all(np.array_equal(a, b) for a, b in zip(got[name], arrays)), name
    started = set(threading.enumerate()) - before
    assert all(t.name.startswith("autodiff") for t in started)


@pytest.mark.parametrize("min_slice", [1, 7, 1000, 4096, 1 << 17])
def test_row_blocks_cover_every_row_in_order(monkeypatch, min_slice):
    monkeypatch.setattr(ad, "_MIN_SLICE_SIZE", min_slice)
    for rows, cols in [(1, 1), (1, 5000), (3, 2), (8, 600), (62, 6000), (62, 28), (97, 13)]:
        cuts = dsp._row_blocks(rows, cols)
        sizes = np.diff(cuts)
        assert cuts[0] == 0 and cuts[-1] == rows
        assert np.all(sizes >= 1) and len(sizes) <= rows
        # about `_MIN_SLICE_SIZE` elements a block: never a row more
        assert np.all((sizes - 1) * cols < min_slice)
        assert len(sizes) == min(rows, -(-rows * cols // min_slice))


def test_smallest_slices_give_one_job_per_row(set_workers, monkeypatch):
    # with slices of any size allowed, blocks are single rows, never single
    # elements: one filter job per row, and per (band, row) in extract_de
    set_workers(3)
    jobs = []
    run_jobs = ad._run_jobs

    def counted(fn, n_jobs, threads):
        jobs.append(n_jobs)
        return run_jobs(fn, n_jobs, threads)

    monkeypatch.setattr(ad, "_run_jobs", counted)
    x = np.random.default_rng(26).normal(size=(8, int(3 * FS)))
    dsp.bandpass(x, 8.0, 13.0, FS)
    dsp.notch(x, 50.0, FS)
    dsp.extract_de(make_trial(x), tail_s=None)
    assert jobs == [8, 8, len(dsp.DEFAULT_BANDS) * 8]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_block_filters_bitwise_equal_to_whole_array_scipy(dtype):
    x = np.random.default_rng(25).normal(scale=20.0, size=(62, 3000)).astype(dtype)
    assert len(dsp._row_blocks(*x.shape)) - 1 > 1
    x64 = x.astype(np.float64)
    b, a = signal.iirnotch(50.0, dsp.NOTCH_Q, fs=FS)
    assert np.array_equal(dsp.notch(x, 50.0, FS), signal.filtfilt(b, a, x64, axis=-1))
    win = int(FS)
    de = np.stack([s.de for s in dsp.extract_de(make_trial(x), tail_s=None)], axis=1)
    for k, (_, low, high) in enumerate(dsp.DEFAULT_BANDS.bands):
        sos = signal.butter(dsp.BUTTER_ORDER, [low, high], btype="bandpass", fs=FS,
                            output="sos")
        y = signal.sosfiltfilt(sos, x64, axis=-1)
        assert np.array_equal(dsp.bandpass(x, low, high, FS), y)
        var = y.reshape(len(y), -1, win).var(axis=-1)
        want = 0.5 * np.log(2.0 * math.pi * math.e * np.maximum(var, dsp.VAR_FLOOR))
        assert np.array_equal(de[:, :, k], want.astype(np.float32))


def test_extract_de_returns_while_the_pool_thread_is_busy(set_workers):
    trial = make_trial(np.random.default_rng(24).normal(size=(4, int(3 * FS))))
    set_workers(1)
    want = np.stack([s.de for s in dsp.extract_de(trial, tail_s=None)])
    set_workers(2)
    held, release = threading.Event(), threading.Event()

    def occupy():
        held.set()
        return release.wait(timeout=10)

    blocker = ad._executor().submit(occupy)  # the pool's only thread
    try:
        assert held.wait(timeout=10)
        got = np.stack([s.de for s in dsp.extract_de(trial, tail_s=None)])
        assert not blocker.done()
    finally:
        release.set()
    assert blocker.result(timeout=10)  # released here, not timed out
    assert np.array_equal(got, want)
