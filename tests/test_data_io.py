"""Bank/checkpoint persistence, split protocols, synthetic generation."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eegtransfer import autodiff as ad
from eegtransfer import data_io as io
from eegtransfer import model as M
from eegtransfer import training as T
from eegtransfer.config import (ConfigError, ModelConfig, StageConfig, SynthSpec, TrainConfig,
                                run_config_from_dict)
from eegtransfer.dsp import DEFAULT_BANDS, BUTTER_ORDER, extract_de

SMALL = SynthSpec(n_subjects=2, n_classes=3, n_channels=8, trials_per_subject=3,
                  samples_per_trial=4, seed=11)


TINY_RAW = SynthSpec(n_subjects=1, n_classes=2, n_channels=4, trials_per_subject=2,
                    samples_per_trial=3, seed=5, mode="timeseries")


def root_base(a):
    """The object at the end of an array's chain of bases."""
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


@pytest.fixture()
def small_bank():
    return io.gen_synthetic(SMALL)


class TestBankRoundTrip:
    def test_feature_bank_bitwise(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        loaded = io.read_bank(tmp_path / "bank")
        assert io.bank_equal(small_bank, loaded)
        # and a second generation pass is bit-identical too
        assert io.bank_equal(small_bank, io.gen_synthetic(SMALL))

    def test_raw_bank_bitwise(self, tmp_path):
        spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                         trials_per_subject=2, samples_per_trial=3, seed=5,
                         mode="timeseries")
        bank = io.gen_synthetic(spec)
        assert bank.raw_trials and not bank.samples
        io.write_bank(bank, tmp_path / "raw")
        loaded = io.read_bank(tmp_path / "raw")
        assert io.bank_equal(bank, loaded)
        again_dir = tmp_path / "again"
        io.write_bank(loaded, again_dir)
        assert io.bank_equal(loaded, io.read_bank(again_dir))

    def test_loaded_arrays_are_read_only_views_of_the_file_bytes(self, tmp_path):
        bank = io.gen_synthetic(TINY_RAW)
        io.write_bank(bank, tmp_path / "raw")
        loaded = io.read_bank(tmp_path / "raw")
        for t in loaded.raw_trials:
            assert not t.data.flags.writeable
            assert isinstance(root_base(t.data), memoryview)
            assert isinstance(root_base(t.data).obj, bytes)
        # gen_synthetic's trials are views of one float32 block
        block = root_base(bank.raw_trials[0].data)
        assert block.shape == (len(bank.raw_trials), *bank.raw_trials[0].data.shape)
        assert all(root_base(t.data) is block for t in bank.raw_trials)

    def test_read_bank_peak_is_payload_plus_one_file(self, tmp_path):
        spec = dataclasses.replace(TINY_RAW, n_subjects=2, n_channels=8, samples_per_trial=20)
        bank = io.gen_synthetic(spec)
        io.write_bank(bank, tmp_path / "raw")
        payload = sum(t.data.nbytes for t in bank.raw_trials)
        largest = max(p.stat().st_size for p in (tmp_path / "raw" / "raw").iterdir())
        tracemalloc.start()
        try:
            loaded = io.read_bank(tmp_path / "raw")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert io.bank_equal(bank, loaded)
        assert peak <= payload + largest

    def test_manifest_has_documented_keys(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        manifest = json.loads((tmp_path / "bank" / "manifest.json").read_text())
        for key in ("format_version", "dataset", "classes", "bands",
                    "montage_file", "counts", "samples"):
            assert key in manifest
        assert manifest["format_version"] == 1
        assert manifest["counts"]["n_samples"] == len(small_bank.samples)

    def test_magic_bytes(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        blob = (tmp_path / "bank" / "features.bin").read_bytes()
        assert blob[:8] == b"CLDTAFB1"

    def test_bad_magic_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        f = tmp_path / "bank" / "features.bin"
        blob = bytearray(f.read_bytes())
        blob[:8] = b"NOTMYFMT"
        f.write_bytes(bytes(blob))
        with pytest.raises(io.BadMagicError):
            io.read_bank(tmp_path / "bank")

    def test_truncated_payload_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        f = tmp_path / "bank" / "features.bin"
        blob = f.read_bytes()
        f.write_bytes(blob[:-1])  # one byte short
        with pytest.raises(io.TruncatedPayloadError):
            io.read_bank(tmp_path / "bank")

    def test_count_mismatch_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        f = tmp_path / "bank" / "features.bin"
        blob = f.read_bytes()
        record = 8 * 5 * 4
        f.write_bytes(blob[:-record])  # drop exactly one sample
        with pytest.raises(io.ManifestMismatchError):
            io.read_bank(tmp_path / "bank")

    @pytest.mark.parametrize("key", ["format_version", "dataset", "classes", "bands",
                                     "montage_file", "samples", "counts.n_samples",
                                     "counts.n_channels", "counts.n_bands"])
    def test_missing_manifest_key_raises(self, small_bank, tmp_path, key):
        io.write_bank(small_bank, tmp_path / "bank")
        mpath = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        *parents, leaf = key.split(".")
        section = manifest
        for part in parents:
            section = section[part]
        del section[leaf]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(io.ManifestMismatchError, match=repr(leaf)):
            io.read_bank(tmp_path / "bank")

    @pytest.mark.parametrize("key", ["file", "channels", "samples", "subject",
                                     "session", "trial", "label", "fs"])
    def test_missing_raw_trial_key_raises(self, tmp_path, key):
        io.write_bank(io.gen_synthetic(TINY_RAW), tmp_path / "raw")
        mpath = tmp_path / "raw" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        del manifest["raw_trials"][1][key]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(io.ManifestMismatchError, match=rf"raw_trials\[1\].*{key!r}"):
            io.read_bank(tmp_path / "raw")

    def test_short_sample_row_raises(self, small_bank, tmp_path):
        io.write_bank(small_bank, tmp_path / "bank")
        mpath = tmp_path / "bank" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["samples"][2] = manifest["samples"][2][:4]
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(io.ManifestMismatchError, match="samples row 2"):
            io.read_bank(tmp_path / "bank")


def _corrupt_json(bank):
    (bank / "manifest.json").write_text('{"format_version": 1,', encoding="utf-8")


def _edit_manifest(edit):
    def apply(bank):
        mpath = bank / "manifest.json"
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))
    return apply


def _nan_payload(bank):
    f = bank / "features.bin"
    blob = bytearray(f.read_bytes())
    at = 8 + (3 * 8 * 5 + 2) * 4  # sample 3 of the 8-channel, 5-band bank
    blob[at:at + 4] = np.float32(np.nan).tobytes()
    f.write_bytes(bytes(blob))


def _raw_fs_mismatch(bank):
    """Replace the bank by a raw-trial bank whose second record says 123 Hz."""
    io.write_bank(io.gen_synthetic(TINY_RAW), bank)
    _edit_manifest(lambda m: m["raw_trials"][1].update(fs=123.0))(bank)


BANK_FAULTS = {
    "corrupt_json": (_corrupt_json, io.ManifestMismatchError,
                     r"manifest\.json: not valid JSON"),
    "samples_not_a_list": (_edit_manifest(lambda m: m.update(samples=4)),
                           io.ManifestMismatchError, "samples is int"),
    "dataset_not_a_string": (_edit_manifest(lambda m: m.update(dataset=5)),
                             io.ManifestMismatchError, "dataset is int"),
    "classes_not_a_list": (_edit_manifest(lambda m: m.update(classes=3)),
                           io.ManifestMismatchError, "classes is int"),
    "montage_file_not_a_string": (_edit_manifest(lambda m: m.update(montage_file=7)),
                                  io.ManifestMismatchError, "montage_file is int"),
    "raw_trials_not_a_list": (_edit_manifest(lambda m: m.update(raw_trials=3)),
                              io.ManifestMismatchError, "raw_trials is int"),
    "string_label": (_edit_manifest(lambda m: m["samples"][1].__setitem__(4, "1")),
                     io.ManifestMismatchError, "samples row 1"),
    "string_count": (_edit_manifest(lambda m: m["counts"].update(n_samples="24")),
                     io.ManifestMismatchError, "n_samples is '24'"),
    "label_outside_classes": (_edit_manifest(lambda m: m["samples"][1].__setitem__(4, 3)),
                              io.ManifestMismatchError,
                              r"manifest\.json: sample label 3 outside 3 classes"),
    "raw_fs_differs_from_manifest": (
        _raw_fs_mismatch, io.ManifestMismatchError,
        r"raw/t1\.bin: sampling rate 200\.0 but manifest says 123\.0"),
    "nan_in_payload": (_nan_payload, io.NonFinitePayloadError,
                       r"features\.bin: sample 3"),
    "montage_bad_header": (lambda bank: (bank / "montage.csv").write_text("nm,x,y,z\n"),
                           io.BadMontageError, r"montage\.csv: expected header"),
    "montage_bad_row": (lambda bank: (bank / "montage.csv").write_text("name,x,y,z\nA,0,0\n"),
                        io.BadMontageError, r"montage\.csv:2: expected 4 fields"),
    "montage_not_utf8": (lambda bank: (bank / "montage.csv").write_bytes(b"name,x,y,z\n\xff\n"),
                         io.BadMontageError, r"montage\.csv: not valid UTF-8"),
}


@pytest.mark.parametrize("fault", list(BANK_FAULTS))
def test_malformed_bank_raises_typed_error(small_bank, tmp_path, fault):
    corrupt, error, message = BANK_FAULTS[fault]
    io.write_bank(small_bank, tmp_path / "bank")
    corrupt(tmp_path / "bank")
    with pytest.raises(error, match=message) as exc:
        io.read_bank(tmp_path / "bank")
    assert isinstance(exc.value, io.BankError) and "\n" not in str(exc.value)


def load_error(load, target):
    """The exception `load(target)` raises, or None when it loads."""
    try:
        load(target)
    except Exception as e:  # the caller checks its type
        return e
    return None


def assert_damage_never_loads(load, target, path, error):
    """Cut the file at `path` at every offset, then delete it: each time
    `load(target)` must raise a one-line `error` naming the file."""
    blob = path.read_bytes()
    for cut in [*range(len(blob)), None]:
        if cut is None:
            path.unlink()
        else:
            path.write_bytes(blob[:cut])
        e = load_error(load, target)
        where = f"{path.name} {'deleted' if cut is None else f'cut at {cut}'}"
        assert isinstance(e, error), f"{where}: {e!r}"
        assert path.name in str(e) and "\n" not in str(e), f"{where}: {e}"
    path.write_bytes(blob)


BANK_ERRORS = (io.MissingFileError, io.BadMagicError, io.TruncatedPayloadError,
               io.ManifestMismatchError, io.NonFinitePayloadError, io.BadMontageError)
TINY_BANKS = {
    "features": SynthSpec(n_subjects=1, n_classes=2, n_channels=2, trials_per_subject=2,
                          samples_per_trial=2, seed=7),
    "timeseries": SynthSpec(n_subjects=1, n_classes=2, n_channels=1, trials_per_subject=2,
                            samples_per_trial=1, seed=7, mode="timeseries"),
}


@pytest.mark.parametrize("kind", list(TINY_BANKS))
def test_damaged_bank_file_never_loads(tmp_path, kind):
    bank = io.gen_synthetic(TINY_BANKS[kind])
    directory = tmp_path / "bank"
    io.write_bank(bank, directory)
    names = sorted(file_tree(directory))
    assert len(names) == (3 if kind == "features" else 5)
    for name in names:
        assert_damage_never_loads(io.read_bank, directory, directory / name, BANK_ERRORS)
    assert io.bank_equal(io.read_bank(directory), bank)


@pytest.mark.parametrize("key", ["channels", "samples", "subject", "session", "trial",
                                 "label"])
def test_non_integer_raw_trial_field_raises(tmp_path, key):
    spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                     trials_per_subject=2, samples_per_trial=3, seed=5,
                     mode="timeseries")
    io.write_bank(io.gen_synthetic(spec), tmp_path / "raw")
    _edit_manifest(lambda m: m["raw_trials"][1].update({key: "1"}))(tmp_path / "raw")
    with pytest.raises(io.ManifestMismatchError, match=rf"raw_trials\[1\].*{key} is '1'"):
        io.read_bank(tmp_path / "raw")


def fail_nth_write(monkeypatch, n):
    """Make the n-th file write (from 0) write half its content, then raise."""
    count = [0]

    def hook(real):
        def write(self, data, *args, **kwargs):
            k, count[0] = count[0], count[0] + 1
            if k == n:
                real(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("injected: disk full")
            return real(self, data, *args, **kwargs)
        return write
    monkeypatch.setattr(Path, "write_bytes", hook(Path.write_bytes))
    monkeypatch.setattr(Path, "write_text", hook(Path.write_text))


def file_tree(directory):
    """Relative path -> bytes of every file under `directory`."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in Path(directory).rglob("*") if p.is_file()}


RAW_SPEC = SynthSpec(n_subjects=1, n_classes=2, n_channels=4, trials_per_subject=2,
                     samples_per_trial=3, seed=5, mode="timeseries")


# a timeseries bank writes montage, features, two raw trials, then the manifest
@pytest.mark.parametrize("fail_at", range(5))
def test_failed_bank_write_leaves_earlier_bank(tmp_path, monkeypatch, fail_at):
    directory = tmp_path / "bank"
    earlier = io.gen_synthetic(RAW_SPEC)
    io.write_bank(earlier, directory)
    before = file_tree(directory)
    newer = io.gen_synthetic(dataclasses.replace(RAW_SPEC, seed=6))
    with monkeypatch.context() as mp:
        fail_nth_write(mp, fail_at)
        with pytest.raises(OSError, match="injected"):
            io.write_bank(newer, directory)
    assert file_tree(directory) == before  # bit for bit, and no temp file left
    assert io.bank_equal(io.read_bank(directory), earlier)
    io.write_bank(newer, directory)
    assert set(file_tree(directory)) == set(before)
    assert io.bank_equal(io.read_bank(directory), newer)


def test_smaller_bank_overwrite_removes_stale_raw_files(tmp_path):
    directory = tmp_path / "bank"
    io.write_bank(io.gen_synthetic(dataclasses.replace(RAW_SPEC, trials_per_subject=3)),
                  directory)
    assert sorted(p.name for p in (directory / "raw").iterdir()) == ["t0.bin", "t1.bin",
                                                                      "t2.bin"]
    smaller = io.gen_synthetic(dataclasses.replace(RAW_SPEC, trials_per_subject=1))
    assert len(smaller.raw_trials) == 1
    io.write_bank(smaller, directory)
    assert [p.name for p in (directory / "raw").iterdir()] == ["t0.bin"]
    assert io.bank_equal(io.read_bank(directory), smaller)


def _raw_fs(value):
    def apply(bank):
        f = bank / "raw" / "t1.bin"
        blob = f.read_bytes()
        f.write_bytes(blob[:8] + np.array(value, dtype="<f8").tobytes() + blob[16:])
    return apply


def _empty_raw_trial(bank):
    _edit_manifest(lambda m: m["raw_trials"][1].update(samples=0))(bank)
    f = bank / "raw" / "t1.bin"
    f.write_bytes(f.read_bytes()[:16])  # magic and sampling rate only


RAW_FAULTS = {
    "nan_fs": (_raw_fs(np.nan), io.NonFinitePayloadError, r"raw/t1\.bin: sampling rate nan"),
    "zero_fs": (_raw_fs(0.0), io.NonFinitePayloadError, r"raw/t1\.bin: sampling rate 0\.0"),
    "no_samples": (_empty_raw_trial, io.ManifestMismatchError,
                   r"raw_trials\[1\]: trial data must be"),
}


@pytest.mark.parametrize("fault", list(RAW_FAULTS))
def test_malformed_raw_trial_raises_typed_error(tmp_path, fault):
    corrupt, error, message = RAW_FAULTS[fault]
    io.write_bank(io.gen_synthetic(RAW_SPEC), tmp_path / "raw")
    corrupt(tmp_path / "raw")
    with pytest.raises(error, match=message):
        io.read_bank(tmp_path / "raw")


def rewrite_header(path, edit):
    """Re-serialise a checkpoint after `edit(header)` changed its header."""
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(blob[:8] + len(new).to_bytes(4, "little") + new + blob[12 + hlen:])


class TestCheckpoints:
    def make_model(self):
        cfg = ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=8,
                          n_channels=8, n_bands=5, proj_dims=(8, 8, 8),
                          clf_hidden=(4, 4), n_classes=3)
        return cfg, M.init_parameters(cfg, seed=3)

    def test_round_trip_identical_forward(self, small_bank, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        loaded, opt = io.load_checkpoint(path)
        assert opt is None
        probe = np.stack([s.de for s in small_bank.samples[:4]]).astype(np.float64)
        a = M.encode(probe, small_bank.montage.positions, dta).data
        b = M.encode(probe, small_bank.montage.positions, loaded).data
        assert np.array_equal(a, b)

    def test_failed_save_leaves_earlier_checkpoint(self, tmp_path, monkeypatch):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        before = path.read_bytes()
        newer = M.init_parameters(cfg, seed=4)
        with monkeypatch.context() as mp:
            fail_nth_write(mp, 0)
            with pytest.raises(OSError, match="injected"):
                io.save_checkpoint(newer, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() == before
        loaded, _ = io.load_checkpoint(path)
        for name, t in dta.params.items():
            assert loaded.params[name].data.tobytes() == t.data.tobytes()
        io.save_checkpoint(newer, path)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        assert path.read_bytes() != before

    def test_optimizer_state_round_trip(self, tmp_path):
        cfg, dta = self.make_model()
        opt = T.AdamState(lr=1e-3, weight_decay=0.01)
        for name, t in dta.params.items():
            t.grad = np.ones_like(t.data)
        T.adam_step(dta.params, opt)
        path = tmp_path / "with_opt.ckpt"
        io.save_checkpoint(dta, path, optimizer=opt)
        _, opt2 = io.load_checkpoint(path)
        assert opt2.step == 1 and opt2.lr == 1e-3
        for name in opt.m:
            assert np.array_equal(opt.m[name], opt2.m[name])
            assert np.array_equal(opt.v[name], opt2.v[name])

    def test_config_mismatch_rejected(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        other = ModelConfig(n_layers=1, d_model=8, n_heads=2, ffn_hidden=8,
                            n_channels=16, n_bands=5, proj_dims=(8, 8, 8),
                            clf_hidden=(4, 4), n_classes=3)
        with pytest.raises(io.CheckpointError, match="config"):
            io.load_checkpoint(path, expected_config=other)

    def test_float32_cast_on_load(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        f32, _ = io.load_checkpoint(path, dtype=np.float32)
        assert f32.dtype == np.float32
        for name in dta.params.names():
            assert np.array_equal(
                f32.params[name].data,
                dta.params[name].data.astype(np.float32))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"CLDTACK1" + b"\x00\x00\x00\x10" + b"notjson")
        with pytest.raises(io.CheckpointError):
            io.load_checkpoint(path)
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(io.CheckpointError, match="magic"):
            io.load_checkpoint(path)

    def test_damaged_checkpoint_never_loads(self, tmp_path):
        cfg = ModelConfig(n_layers=1, d_model=4, n_heads=1, ffn_hidden=4, n_channels=2,
                          n_bands=5, proj_dims=(4, 4, 4), clf_hidden=(2, 2), n_classes=2)
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(M.init_parameters(cfg, seed=3), path)
        assert_damage_never_loads(io.load_checkpoint, path, path, io.CheckpointError)
        io.load_checkpoint(path, cfg)

    def test_trailing_payload_byte_rejected(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(io.CheckpointError, match="1 trailing bytes"):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("key", ["format_version", "model_config", "arrays"])
    def test_missing_header_key_rejected(self, tmp_path, key):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h.pop(key))
        with pytest.raises(io.CheckpointError, match=repr(key)):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("section,key", [
        *(("arrays", k) for k in ("name", "kind", "dtype", "shape", "offset")),
        *(("optimizer", k) for k in ("lr", "beta1", "beta2", "eps", "weight_decay", "step"))])
    def test_missing_nested_header_key_rejected(self, tmp_path, section, key):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path, optimizer=T.AdamState(lr=1e-3))

        def drop(header):
            part = header["arrays"][0] if section == "arrays" else header[section]
            del part[key]

        rewrite_header(path, drop)
        with pytest.raises(io.CheckpointError, match=repr(key)):
            io.load_checkpoint(path)

    def test_unknown_model_config_key_rejected(self, tmp_path):
        # checkpoints that carry the removed literal_diag_mask switch are
        # refused with the key named, not loaded with it silently dropped
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h["model_config"].update(literal_diag_mask=False))
        with pytest.raises(io.CheckpointError, match="literal_diag_mask") as err:
            io.load_checkpoint(path)
        assert "\n" not in str(err.value)

    def test_bad_model_config_value_rejected(self, tmp_path):
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h["model_config"].update(n_heads=3))
        with pytest.raises(io.CheckpointError, match="n_heads"):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("proj_dims", [8, 8]), ("clf_hidden", [4, 4, 4]), ("proj_dims", 8),
        ("n_layers", 2.5), ("proj_dims", [8, 8.0, 8]), ("n_heads", True),
        ("init_scale", float("nan")), ("init_scale", float("inf")), ("dropout", float("nan"))])
    def test_malformed_model_config_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key) as err:
            run_config_from_dict({"model": {key: value}})
        assert "\n" not in str(err.value)
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h["model_config"].update({key: value}))
        with pytest.raises(io.CheckpointError, match=key) as err:
            io.load_checkpoint(path)
        assert "\n" not in str(err.value)

    def corrupt_array_record(self, tmp_path, key, value):
        """A saved checkpoint whose first array record holds `value` at `key`."""
        cfg, dta = self.make_model()
        path = tmp_path / "model.ckpt"
        io.save_checkpoint(dta, path)
        rewrite_header(path, lambda h: h["arrays"][0].update({key: value}))
        return path

    @pytest.mark.parametrize("value", ["<i2", "zz", "<f2", 4])
    def test_array_dtype_other_than_f4_or_f8_rejected(self, tmp_path, value):
        path = self.corrupt_array_record(tmp_path, "dtype", value)
        with pytest.raises(io.CheckpointError, match="dtype"):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("value", [-8, "0", 1.0, None])
    def test_array_offset_not_a_non_negative_integer_rejected(self, tmp_path, value):
        path = self.corrupt_array_record(tmp_path, "offset", value)
        with pytest.raises(io.CheckpointError, match="offset"):
            io.load_checkpoint(path)

    @pytest.mark.parametrize("value", [[-1, 8], "ab", [8, "8"], [2.0]])
    def test_array_shape_not_non_negative_integers_rejected(self, tmp_path, value):
        path = self.corrupt_array_record(tmp_path, "shape", value)
        with pytest.raises(io.CheckpointError, match="shape"):
            io.load_checkpoint(path)


class TestSplits:
    def seed_style_bank(self, trials=15):
        spec = SynthSpec(n_subjects=1, n_classes=3, n_channels=4,
                         trials_per_subject=trials, samples_per_trial=30, seed=2)
        return io.gen_synthetic(spec)

    def test_first9_last6_sample_counts(self):
        bank = self.seed_style_bank(15)
        train, test = io.apply_split(bank, io.get_protocol("first9-last6"))
        assert len(train.samples) == 270
        assert len(test.samples) == 180

    def test_ratio_80_20_trial_counts(self):
        bank = self.seed_style_bank(40)
        train, test = io.apply_split(bank, io.get_protocol("ratio80"))
        train_trials = {s.trial_id for s in train.samples}
        test_trials = {s.trial_id for s in test.samples}
        assert len(train_trials) == 32
        assert len(test_trials) == 8

    def test_split_partitions_bank(self):
        bank = self.seed_style_bank(15)
        train, test = io.apply_split(bank, io.get_protocol("first9-last6"))
        key = lambda s: (s.subject_id, s.session_id, s.trial_id, s.window_index)
        union = {key(s) for s in train.samples} | {key(s) for s in test.samples}
        assert union == {key(s) for s in bank.samples}
        assert not ({key(s) for s in train.samples} & {key(s) for s in test.samples})

    def test_overlapping_protocol_rejected(self):
        with pytest.raises(io.SplitError, match="overlap"):
            io.SplitProtocol("bad", (0, 1, 2), (2, 3))

    def test_protocol_wanting_missing_trial_rejected(self):
        bank = self.seed_style_bank(8)
        with pytest.raises(io.SplitError):
            io.apply_split(bank, io.get_protocol("first9-last6"))

    def test_unknown_protocol_name(self):
        with pytest.raises(io.SplitError, match="unknown"):
            io.get_protocol("nope")


class TestSynthetic:
    def test_sample_counting(self):
        spec = SynthSpec(n_subjects=5, n_classes=3, trials_per_subject=10,
                         samples_per_trial=30, n_channels=8, seed=1)
        bank = io.gen_synthetic(spec)
        assert len(bank.samples) == 5 * 10 * 30

    def test_same_seed_bit_identical(self):
        a = io.gen_synthetic(SMALL)
        b = io.gen_synthetic(SMALL)
        assert io.bank_equal(a, b)

    def test_class_means_recovered_from_samples(self):
        spec = SynthSpec(n_subjects=4, n_classes=3, n_channels=6,
                         trials_per_subject=9, samples_per_trial=40, seed=3)
        bank = io.gen_synthetic(spec)
        mu, delta, _ = io.synth_factors(spec)
        feats, labels = bank.feature_array()
        for c in range(3):
            got = feats[labels == c].mean(axis=0)
            # per-class mean converges to mu[c] + mean over subjects of delta
            want = mu[c] + delta.mean(axis=0)
            n = (labels == c).sum()
            tol = 3.0 * spec.sample_noise_std / np.sqrt(n) + 3.0 * 0.02
            assert np.abs(got - want).max() < tol + 0.2  # subject-shift sampling slack

    def test_between_class_separation_positive(self):
        bank = io.gen_synthetic(SMALL)
        feats, labels = bank.feature_array()
        means = np.stack([feats[labels == c].mean(axis=0) for c in range(3)])
        d01 = np.linalg.norm(means[0] - means[1])
        assert d01 > 0.5

    def test_timeseries_mode_recovers_separable_features(self):
        spec = SynthSpec(n_subjects=2, n_classes=2, n_channels=4,
                         trials_per_subject=4, samples_per_trial=6, seed=9,
                         mode="timeseries")
        bank = io.gen_synthetic(spec)
        feat_bank = io.extract_bank_features(bank, smooth=False)
        assert len(feat_bank.samples) == 2 * 4 * 6
        feats, labels = feat_bank.feature_array()
        mu, _, _ = io.synth_factors(spec)
        # class contrast of band log-amplitudes shows up in the features
        got = feats[labels == 0].mean(axis=0) - feats[labels == 1].mean(axis=0)
        want = mu[0] - mu[1]
        corr = np.corrcoef(got.ravel(), want.ravel())[0, 1]
        assert corr > 0.8

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_timeseries_bitwise_equal_to_whole_array_draws(self, set_workers, monkeypatch,
                                                           workers):
        # the reference draws, filters and scales each band's whole
        # (channels, samples) carrier at once and sums in float64; at 2 and 3
        # workers the next unit is drawn beside the filters
        from scipy import signal

        spec = dataclasses.replace(TINY_RAW, n_subjects=2, n_classes=3, n_channels=5)
        mu, delta, rng = io.synth_factors(spec)
        n = int(spec.samples_per_trial * io.SYNTH_WINDOW_S * io.SYNTH_FS)
        want = []
        for subj in range(spec.n_subjects):
            for trial in range(spec.trials_per_subject):
                log_amp = mu[trial % spec.n_classes] + delta[subj]
                data = np.zeros((spec.n_channels, n))
                for b, (_, lo, hi) in enumerate(DEFAULT_BANDS.bands):
                    carrier = rng.standard_normal((spec.n_channels, n))
                    sos = signal.butter(BUTTER_ORDER, [lo, hi], btype="bandpass",
                                        fs=io.SYNTH_FS, output="sos")
                    carrier = signal.sosfiltfilt(sos, carrier, axis=-1)
                    carrier /= np.maximum(carrier.std(axis=1, keepdims=True), 1e-12)
                    data += np.exp(log_amp[:, b:b + 1]) * carrier
                want.append(data.astype(np.float32))

        factors, used = io.synth_factors, []

        def recorded(spec):
            out = factors(spec)
            used.append(out[2])
            return out
        monkeypatch.setattr(io, "synth_factors", recorded)
        set_workers(workers)  # one row a block: slices of any size are allowed
        got = io.gen_synthetic(spec).raw_trials
        assert len(got) == len(want)
        assert all(t.data.dtype == np.float32 and np.array_equal(t.data, w)
                   for t, w in zip(got, want))
        assert used[0].bit_generator.state == rng.bit_generator.state

    def test_invalid_spec_rejected(self):
        with pytest.raises(Exception):
            SynthSpec(n_subjects=0)
        with pytest.raises(Exception):
            SynthSpec(mode="other")
        # counts and seed must be integers: a float count, a bool or a string
        # seed fails with a message naming the field, not inside numpy
        for field, value in [("n_channels", 2.5), ("seed", "abc"), ("samples_per_trial", 1.5),
                             ("n_subjects", True), ("trials_per_subject", 3.0),
                             ("n_classes", "3"), ("n_bands", None), ("seed", -1)]:
            with pytest.raises(ConfigError, match=f"^config.synth: {field} must be a .*integer, got"):
                run_config_from_dict({"synth": {field: value, "mode": "timeseries"}})
        # scales must be finite: json reads NaN and Infinity
        for field, value in [("sample_noise_std", float("nan")),
                             ("class_mean_scale", float("inf")), ("subject_shift_std", -0.5),
                             ("sample_noise_std", "0.5")]:
            with pytest.raises(ConfigError, match=f"^config.synth: {field} must be a .*finite number, got"):
                run_config_from_dict({"synth": {field: value}})

    def test_numpy_integer_counts_accepted_as_ints(self):
        spec = SynthSpec(n_channels=np.int64(4), seed=np.uint32(7))
        assert (spec.n_channels, spec.seed) == (4, 7)
        assert type(spec.n_channels) is int and type(spec.seed) is int
        # every config record stores its integer fields the same way
        train = TrainConfig(seed=np.int64(3), pretrain=StageConfig(np.int32(8), 1, 1e-4))
        model = ModelConfig(d_model=np.int64(8), n_heads=2, proj_dims=(np.int16(4), 4, 4))
        assert type(train.seed) is int and type(train.pretrain.batch_size) is int
        assert type(model.d_model) is int and type(model.proj_dims[0]) is int

    def test_tiny_timeseries_spec_hands_no_job_to_the_pool(self, monkeypatch):
        # at the default slice size a TINY_RAW unit is far below what pays
        # for a hand-off, so every pipeline call runs on the calling thread
        threads, run_jobs, before = [], ad._run_jobs, ad._workers

        def counted(fn, n_jobs, n_threads):
            threads.append(n_threads)
            return run_jobs(fn, n_jobs, n_threads)

        monkeypatch.setattr(ad, "_run_jobs", counted)
        ad._set_workers(2)
        try:
            io.gen_synthetic(TINY_RAW)
        finally:
            ad._set_workers(before)
        # one call per unit: two halves of each band of each trial
        assert len(threads) == TINY_RAW.n_subjects * TINY_RAW.trials_per_subject * 5 * 2
        assert max(threads) < 2


def test_extract_bank_features_window_counts():
    spec = SynthSpec(n_subjects=1, n_classes=2, n_channels=4,
                     trials_per_subject=2, samples_per_trial=5, seed=4,
                     mode="timeseries")
    bank = io.gen_synthetic(spec)
    feat = io.extract_bank_features(bank, smooth=True)
    per_trial = {}
    for s in feat.samples:
        per_trial.setdefault(s.trial_id, []).append(s.window_index)
    for trial, windows in per_trial.items():
        assert windows == list(range(5))
