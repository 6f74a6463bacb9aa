"""Evaluation protocols: LOSOCV wiring, separation metrics, robustness
sweeps, connectivity thresholding, feature export."""

import csv

import numpy as np
import pytest

from eegtransfer import evaluation as E
from eegtransfer import model as M
from eegtransfer import training as T
from eegtransfer.augment import AugmentConfig
from eegtransfer.config import ModelConfig, StageConfig, SynthSpec, TrainConfig
from eegtransfer.data_io import gen_synthetic

TINY_MODEL = ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=16,
                         n_channels=8, n_bands=5, proj_dims=(16, 16, 16),
                         clf_hidden=(8, 8), n_classes=2, init_scale=0.05)

TINY_TRAIN = TrainConfig(seed=5,
                         pretrain=StageConfig(batch_size=16, epochs=2, lr=1e-3),
                         calibrate=StageConfig(batch_size=16, epochs=10, lr=1e-3),
                         patience=4, k_per_class=4)

TINY_SYNTH = SynthSpec(n_subjects=3, n_classes=2, n_channels=8,
                       trials_per_subject=4, samples_per_trial=10, seed=5)


@pytest.fixture(scope="module")
def tiny_bank():
    return gen_synthetic(TINY_SYNTH)


@pytest.fixture(scope="module")
def tiny_model(tiny_bank):
    pre = T.pretrain(tiny_bank, tiny_bank.montage, TINY_MODEL, TINY_TRAIN,
                     AugmentConfig()).params
    labeled = [s for s in tiny_bank.samples if s.subject_id == 0]
    return T.calibrate(pre, labeled, tiny_bank.montage, TINY_TRAIN).params


class TestLosocv:
    def test_one_accuracy_entry_per_subject(self, tiny_bank):
        report = E.losocv(tiny_bank, TINY_MODEL, TINY_TRAIN, AugmentConfig())
        assert [s for s, _ in report.per_subject] == [0, 1, 2]
        assert all(0.0 <= a <= 1.0 for _, a in report.per_subject)
        assert report.std == pytest.approx(float(report.accuracies.std()))

    def test_seeded_run_reproducible(self, tiny_bank):
        a = E.losocv(tiny_bank, TINY_MODEL, TINY_TRAIN, AugmentConfig())
        b = E.losocv(tiny_bank, TINY_MODEL, TINY_TRAIN, AugmentConfig())
        assert a.per_subject == b.per_subject

    def test_single_subject_rejected(self, tiny_bank):
        solo = tiny_bank.filter(lambda s: s.subject_id == 0)
        with pytest.raises(E.EvalError):
            E.losocv(solo, TINY_MODEL, TINY_TRAIN, AugmentConfig())

    def test_subject_independent_uses_source_calibration(self, tiny_bank):
        import dataclasses
        tconf = dataclasses.replace(TINY_TRAIN, k_per_class=0)
        report = E.losocv(tiny_bank, TINY_MODEL, tconf, AugmentConfig())
        assert len(report.per_subject) == 3


class TestIcdIcs:
    def test_two_point_clusters(self):
        a = np.zeros((4, 3))
        b = np.zeros((4, 3))
        b[:, 0] = 2.0
        feats = np.vstack([a, b])
        labels = np.array([0] * 4 + [1] * 4)
        inter, intra = E.icd_ics(feats, labels)
        assert inter == pytest.approx(4.0)  # distance 2 squared
        assert intra == pytest.approx(0.0)

    def test_all_identical_points(self):
        feats = np.ones((6, 4))
        labels = np.array([0, 0, 1, 1, 0, 1])
        inter, intra = E.icd_ics(feats, labels)
        assert inter == pytest.approx(0.0, abs=1e-12)
        assert intra == pytest.approx(0.0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(E.EvalError):
            E.icd_ics(np.random.default_rng(0).normal(size=(5, 3)), np.zeros(5))

    def test_isometry_invariance(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(20, 4))
        labels = rng.integers(0, 3, 20)
        base = E.icd_ics(feats, labels)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        moved = feats @ q + rng.normal(size=4)
        rotated = E.icd_ics(moved, labels)
        assert rotated[0] == pytest.approx(base[0], abs=1e-9)
        assert rotated[1] == pytest.approx(base[1], abs=1e-9)

    def test_alpha_one_uses_plain_distances(self):
        feats = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0], [3.0, 4.0]])
        labels = np.array([0, 0, 1, 1])
        inter, intra = E.icd_ics(feats, labels, alpha=1.0)
        assert inter == pytest.approx(5.0)
        assert intra == pytest.approx(0.0)


class TestRobustness:
    def test_zero_failures_equals_baseline(self, tiny_bank, tiny_model):
        samples = [s for s in tiny_bank.samples if s.subject_id == 1]
        rng = np.random.default_rng(0)
        feats = np.stack([s.de for s in samples]).astype(np.float64)
        labels = np.array([s.label for s in samples])
        base = T.evaluate_accuracy(tiny_model, feats, labels, tiny_bank.montage)
        out = E.electrode_failure_sweep(tiny_model, samples, tiny_bank.montage,
                                        [0], "zero", rng)
        assert out[0] == (0, base)

    def test_neighbor_mode_copies_nearest_working_row(self, tiny_bank):
        feats = np.arange(2 * 8 * 5, dtype=float).reshape(2, 8, 5)
        broken = E.apply_electrode_failure(feats, [3], tiny_bank.montage, "neighbor")
        nb = E._nearest_working(tiny_bank.montage, 3, [3])
        assert np.array_equal(broken[:, 3, :], feats[:, nb, :])
        untouched = [i for i in range(8) if i != 3]
        assert np.array_equal(broken[:, untouched], feats[:, untouched])

    def test_zero_mode_zeroes_rows(self, tiny_bank):
        feats = np.ones((3, 8, 5))
        broken = E.apply_electrode_failure(feats, [1, 4], tiny_bank.montage, "zero")
        assert np.all(broken[:, [1, 4], :] == 0.0)
        assert np.all(broken[:, [0, 2, 3, 5, 6, 7], :] == 1.0)

    def test_too_many_failures_rejected(self, tiny_bank, tiny_model):
        with pytest.raises(E.EvalError):
            E.electrode_failure_sweep(tiny_model, tiny_bank.samples[:4],
                                      tiny_bank.montage, [8], "zero",
                                      np.random.default_rng(0))

    def test_sweep_seeded_reproducible(self, tiny_bank, tiny_model):
        samples = tiny_bank.samples[:40]
        a = E.electrode_failure_sweep(tiny_model, samples, tiny_bank.montage,
                                      [2, 4], "zero", np.random.default_rng(3))
        b = E.electrode_failure_sweep(tiny_model, samples, tiny_bank.montage,
                                      [2, 4], "zero", np.random.default_rng(3))
        assert a == b

    def test_noise_sweep_limit_and_validation(self, tiny_bank, tiny_model):
        samples = [s for s in tiny_bank.samples if s.subject_id == 1]
        feats = np.stack([s.de for s in samples]).astype(np.float64)
        labels = np.array([s.label for s in samples])
        base = T.evaluate_accuracy(tiny_model, feats, labels, tiny_bank.montage)
        out = E.noise_sweep(tiny_model, samples, tiny_bank.montage, [1e-9],
                            np.random.default_rng(1))
        assert abs(out[0][1] - base) <= 0.01
        with pytest.raises(E.EvalError):
            E.noise_sweep(tiny_model, samples, tiny_bank.montage, [0.0],
                          np.random.default_rng(1))


SWEEP_FAULTS = {
    "noise_no_samples": lambda dta, bank, rng: E.noise_sweep(
        dta, [], bank.montage, [1.0], rng),
    "failure_no_samples": lambda dta, bank, rng: E.electrode_failure_sweep(
        dta, [], bank.montage, [1], "zero", rng),
    "failure_negative_count": lambda dta, bank, rng: E.electrode_failure_sweep(
        dta, bank.samples[:4], bank.montage, [-1], "zero", rng),
}


@pytest.mark.parametrize("fault", list(SWEEP_FAULTS))
def test_empty_or_invalid_sweep_raises_eval_error(tiny_bank, tiny_model, fault):
    with pytest.raises(E.EvalError) as exc:
        SWEEP_FAULTS[fault](tiny_model, tiny_bank, np.random.default_rng(0))
    assert "\n" not in str(exc.value)


class TestConnectivity:
    def test_two_orthogonal_groups_exact_edges(self):
        # two parallel pairs plus two isolated channels, all groups mutually
        # orthogonal; off-diagonal entries: 4 ones, 26 zeros ->
        # threshold = 2/15 + 1.8*sqrt((2/15)(13/15)) ~ 0.745, so exactly the
        # within-pair edges survive
        reps = np.zeros((6, 4))
        reps[0, 0] = reps[1, 0] = 1.0
        reps[2, 1] = reps[3, 1] = 1.0
        reps[4, 2] = 1.0
        reps[5, 3] = 1.0
        result = E.connectivity_from_representations(reps)
        mean = 4.0 / 30.0
        std = np.sqrt(mean * (1.0 - mean))
        assert result.threshold == pytest.approx(mean + 1.8 * std, abs=1e-12)
        expect = np.zeros((6, 6), dtype=bool)
        expect[0, 1] = expect[1, 0] = True
        expect[2, 3] = expect[3, 2] = True
        assert np.array_equal(result.retained, expect)
        assert np.allclose(result.degree_centrality,
                           [0.2, 0.2, 0.2, 0.2, 0.0, 0.0])

    def test_all_equal_representations_give_empty_edges(self):
        reps = np.tile(np.array([1.0, 2.0, 0.5, -1.0]), (5, 1))
        result = E.connectivity_from_representations(reps)
        assert not result.retained.any()
        assert np.all(result.degree_centrality == 0.0)

    def test_adjacency_symmetric_and_bounded(self, tiny_bank, tiny_model):
        result = E.connectivity(tiny_model, tiny_bank.samples[:50], tiny_bank.montage)
        adj = result.adjacency
        assert np.allclose(adj, adj.T, atol=1e-9)
        assert np.all(adj <= 1.0 + 1e-9) and np.all(adj >= -1.0 - 1e-9)
        assert np.all(result.degree_centrality >= 0.0)
        assert np.all(result.degree_centrality <= 1.0)

    def test_zero_norm_representation_rejected(self):
        reps = np.zeros((3, 4))
        with pytest.raises(E.EvalError):
            E.connectivity_from_representations(reps)

    def test_position_table_variant(self, tiny_bank, tiny_model):
        result = E.connectivity_from_representations(tiny_model.params["pos_table"].data)
        assert result.adjacency.shape == (8, 8)


class TestExport:
    def test_row_counts_and_stages(self, tiny_bank, tiny_model, tmp_path):
        path = tmp_path / "features.csv"
        E.export_features(tiny_bank, path, encoded=tiny_model,
                          calibrated=tiny_model)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        n = len(tiny_bank.samples)
        assert len(body) == 3 * n
        stages = [r[5] for r in body]
        assert stages.count("raw") == n
        assert stages.count("encoded") == n
        assert stages.count("calibrated") == n
        assert header[:6] == ["subject", "session", "trial", "window", "label", "stage"]
        assert header[6] == "f0"

    def test_raw_rows_equal_flattened_features(self, tiny_bank, tmp_path):
        path = tmp_path / "features.csv"
        E.export_features(tiny_bank, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        first = rows[1]
        want = np.asarray(tiny_bank.samples[0].de, dtype=np.float64).ravel()
        got = np.array([float(v) for v in first[6:6 + want.size]])
        assert np.allclose(got, want, rtol=1e-6)

    def test_re_export_bit_identical(self, tiny_bank, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        E.export_features(tiny_bank, p1, encoded=tiny_model)
        E.export_features(tiny_bank, p2, encoded=tiny_model)
        assert p1.read_bytes() == p2.read_bytes()
