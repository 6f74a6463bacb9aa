"""Command-line interface: exit codes, artifacts, reproducibility."""

import faulthandler
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from eegtransfer import autodiff as ad
from eegtransfer import cli
from eegtransfer.config import ConfigError, RunConfig, load_run_config, run_config_from_dict
from eegtransfer.data_io import apply_split, get_protocol, read_bank

# Small enough for tier-1, big enough to learn: the default init scale, a
# calibration lr and epoch budget that move the zero-initialised output layer,
# and 6 trials per subject so ratio80 tests on trials 4 and 5 (labels 0 and 1)
TINY_CONFIG = {
    "seed": 11,
    "model": {"n_layers": 1, "d_model": 8, "n_heads": 2, "ffn_hidden": 16,
              "n_channels": 8, "n_bands": 5, "proj_dims": [16, 16, 16],
              "clf_hidden": [8, 8], "n_classes": 2},
    "train": {"pretrain": {"batch_size": 16, "epochs": 2, "lr": 1e-3},
              "calibrate": {"batch_size": 16, "epochs": 20, "lr": 1e-2},
              "patience": 10, "k_per_class": 4},
    "synth": {"n_subjects": 2, "n_classes": 2, "n_channels": 8,
              "trials_per_subject": 6, "samples_per_trial": 8},
}
TRIALS = TINY_CONFIG["synth"]["trials_per_subject"]
WINDOWS = TINY_CONFIG["synth"]["samples_per_trial"]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    path.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def bank_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("bank")
    assert cli.main(["gen-synth", "--config", config_path, "--out", str(out)]) == 0
    return str(out)


@pytest.fixture(scope="module")
def pretrained_dir(tmp_path_factory, config_path, bank_dir):
    out = tmp_path_factory.mktemp("pre")
    code = cli.main(["pretrain", "--config", config_path, "--bank", bank_dir,
                     "--out", str(out)])
    assert code == 0
    return str(out)


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pretrain", "--out", "x"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-synth", "--out", "x", "--wat"])
        assert exc.value.code == 2

    def test_runtime_error_exits_1(self, capsys, tmp_path):
        code = cli.main(["pretrain", "--bank", str(tmp_path / "missing"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1  # one machine-parsable line


class TestGenSynth:
    def test_writes_bank_files(self, bank_dir, tmp_path):
        d = Path(bank_dir)
        assert (d / "manifest.json").exists()
        assert (d / "features.bin").exists()
        assert (d / "montage.csv").exists()


class TestPipeline:
    def test_pretrain_outputs(self, pretrained_dir):
        d = Path(pretrained_dir)
        assert (d / "pretrained.ckpt").exists()
        loss_csv = (d / "pretrain_loss.csv").read_text()
        assert loss_csv.startswith("# config_hash=")
        assert "epoch,loss" in loss_csv

    def test_calibrate_and_predict(self, config_path, bank_dir, pretrained_dir,
                                   tmp_path, capsys):
        out = tmp_path / "cal"
        code = cli.main(["calibrate", "--config", config_path, "--bank", bank_dir,
                         "--checkpoint", f"{pretrained_dir}/pretrained.ckpt",
                         "--subject", "0", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        code = cli.main(["predict", "--bank", bank_dir,
                         "--checkpoint", str(out / "calibrated.ckpt"),
                         "--subject", "1"])
        assert code == 0
        stdout = capsys.readouterr().out
        lines = stdout.strip().splitlines()
        assert len(lines) == TRIALS * WINDOWS  # every window of subject 1
        for line in lines:
            parts = line.split(",")
            assert len(parts) == 1 + 2  # label + one probability per class
            probs = [float(p) for p in parts[1:]]
            assert abs(sum(probs) - 1.0) < 1e-6
            assert int(parts[0]) == int(np.argmax(probs))

    def test_scipy_signal_loads_only_when_a_filter_runs(self, config_path, bank_dir,
                                                         tmp_path):
        # pretrain, calibrate and predict on DE features never filter, so a
        # fresh process running them never imports scipy.signal
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from eegtransfer import cli, dsp
            cfg, bank, out = sys.argv[1:]
            assert cli.main(["pretrain", "--config", cfg, "--bank", bank, "--out", out]) == 0
            assert cli.main(["calibrate", "--config", cfg, "--bank", bank, "--checkpoint",
                             out + "/pretrained.ckpt", "--subject", "0", "--out", out]) == 0
            assert cli.main(["predict", "--bank", bank, "--checkpoint",
                             out + "/calibrated.ckpt", "--subject", "1"]) == 0
            assert "scipy.signal" not in sys.modules, "loaded without a filter"
            dsp.bandpass(np.ones((1, 100)), 8.0, 13.0, 200.0)
            assert "scipy.signal" in sys.modules, "not loaded by bandpass"
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        proc = subprocess.run([sys.executable, "-c", script, config_path, bank_dir,
                               str(tmp_path)], env=env, capture_output=True, text=True,
                              timeout=300, check=False)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert len(proc.stdout.splitlines()) == TRIALS * WINDOWS

    def test_evaluate_writes_stamped_report(self, config_path, bank_dir, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["evaluate", "--config", config_path, "--bank", bank_dir,
                         "--out", str(out)])
        assert code == 0
        text = (out / "report.csv").read_text()
        first = text.splitlines()[0]
        assert first.startswith("# config_hash=") and "seed=11" in first
        assert text.splitlines()[1] == "subject,accuracy"
        report = json.loads((out / "report.json").read_text())
        assert set(report["per_subject"]) == {"0", "1"}
        # the tiny run learns: LOSOCV accuracy beats chance on 2 classes
        assert np.mean(list(report["per_subject"].values())) > 0.5

    def test_evaluate_subject_dependent_names_protocol(self, config_path, bank_dir,
                                                       tmp_path):
        # every subject's ratio80 test split holds both classes
        bank = read_bank(bank_dir)
        for subject in bank.subjects():
            target = bank.filter(lambda s: s.subject_id == subject)
            test = apply_split(target, get_protocol("ratio80"))[1]
            assert {s.label for s in test.samples} == {0, 1}
        out = tmp_path / "sd"
        assert cli.main(["evaluate", "--config", config_path, "--bank", bank_dir,
                         "--mode", "subject-dependent", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["protocol"] == "subject-dependent+ratio80"
        assert set(report["per_subject"]) == {"0", "1"}

    def test_evaluate_byte_identical_reruns(self, config_path, bank_dir, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert cli.main(["evaluate", "--config", config_path, "--bank", bank_dir,
                         "--out", str(out1), "--jobs", "1"]) == 0
        assert cli.main(["evaluate", "--config", config_path, "--bank", bank_dir,
                         "--out", str(out2), "--jobs", "1"]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_evaluate_jobs_2_byte_identical_to_jobs_1(self, config_path, bank_dir,
                                                       tmp_path, set_workers):
        # a pretrain in this process starts the fused ops' thread pool, so
        # the fold processes are forked from a process that has one
        set_workers(2)
        assert cli.main(["pretrain", "--config", config_path, "--bank", bank_dir,
                         "--out", str(tmp_path / "pre")]) == 0
        assert ad._pool is not None
        outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
        faulthandler.dump_traceback_later(300, exit=True)  # a hung fold ends the run
        try:
            for jobs, out in zip((1, 2), outs):
                assert cli.main(["evaluate", "--config", config_path, "--bank", bank_dir,
                                 "--out", str(out), "--jobs", str(jobs)]) == 0
        finally:
            faulthandler.cancel_dump_traceback_later()
        for name in ("report.json", "report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_robustness_and_connectivity_and_export(self, config_path, bank_dir,
                                                    pretrained_dir, tmp_path):
        ckpt = f"{pretrained_dir}/pretrained.ckpt"
        rob = tmp_path / "rob"
        assert cli.main(["robustness", "--config", config_path, "--bank", bank_dir,
                         "--checkpoint", ckpt, "--mode", "failure",
                         "--sweep", "0,1,2", "--out", str(rob)]) == 0
        lines = (rob / "robustness.csv").read_text().splitlines()
        assert lines[1] == "param,accuracy"
        assert len(lines) == 5

        noise = tmp_path / "noise"
        assert cli.main(["robustness", "--config", config_path, "--bank", bank_dir,
                         "--checkpoint", ckpt, "--mode", "noise",
                         "--sweep", "0.1,1.0", "--out", str(noise)]) == 0

        conn = tmp_path / "conn"
        assert cli.main(["connectivity", "--config", config_path, "--bank", bank_dir,
                         "--checkpoint", ckpt, "--out", str(conn)]) == 0
        edges = (conn / "edges.csv").read_text().splitlines()
        assert edges[1] == "i,j,cosine,retained"
        assert len(edges) == 2 + 8 * 7 // 2
        cent = (conn / "centrality.csv").read_text().splitlines()
        assert cent[1] == "node,degree_centrality"

        exp = tmp_path / "exp"
        assert cli.main(["export-features", "--bank", bank_dir,
                         "--checkpoint", ckpt, "--out", str(exp)]) == 0
        header = (exp / "features.csv").read_text().splitlines()[0]
        assert header.startswith("subject,session,trial,window,label,stage,f0")

    def test_default_failure_sweep_stops_below_channel_count(self, config_path, bank_dir,
                                                             pretrained_dir, tmp_path, capsys):
        # the 8-channel bank: the default sweep's counts from 8 up are dropped
        assert cli.main(["robustness", "--config", config_path, "--bank", bank_dir,
                         "--checkpoint", f"{pretrained_dir}/pretrained.ckpt",
                         "--mode", "failure", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "robustness.csv").read_text().splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["0", "1", "2", "4", "6"]
        # an explicit sweep is taken as given
        assert cli.main(["robustness", "--config", config_path, "--bank", bank_dir,
                         "--checkpoint", f"{pretrained_dir}/pretrained.ckpt",
                         "--mode", "failure", "--sweep", "0,8",
                         "--out", str(tmp_path / "explicit")]) == 1
        assert "EvalError: cannot fail 8 of 8 channels" in capsys.readouterr().err

    def test_extract_features_from_timeseries(self, tmp_path, config_path):
        cfg = dict(TINY_CONFIG)
        cfg["synth"] = dict(cfg["synth"], mode="timeseries", trials_per_subject=2,
                            samples_per_trial=4, n_subjects=1)
        cpath = tmp_path / "ts.json"
        cpath.write_text(json.dumps(cfg), encoding="utf-8")
        raw = tmp_path / "raw"
        assert cli.main(["gen-synth", "--config", str(cpath), "--out", str(raw)]) == 0
        feat = tmp_path / "feat"
        assert cli.main(["extract-features", "--bank", str(raw),
                         "--out", str(feat)]) == 0
        manifest = json.loads((feat / "manifest.json").read_text())
        assert manifest["counts"]["n_samples"] == 2 * 4

    def test_grad_check_passes_on_tiny_model(self, tmp_path, capsys):
        """The `tiny.json` README shows for `grad-check`, run as README runs it."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"This `tiny\.json`[^`]*```json\n(.*?)```", readme, re.S)
        assert block is not None, "README shows no tiny.json"
        cpath = tmp_path / "tiny.json"
        cpath.write_text(block.group(1), encoding="utf-8")
        assert cli.main(["grad-check", "--config", str(cpath)]) == 0
        err = capsys.readouterr().err
        assert "max relative error" in err
        assert "PASSED" in err

    def test_grad_check_refuses_the_default_model(self, monkeypatch, capsys):
        """The reference model is far past GRAD_CHECK_MAX_PARAMS: the command
        exits 1 with one line naming the count, without perturbing anything."""
        def never(*args, **kwargs):
            raise AssertionError("grad_check ran")

        monkeypatch.setattr(cli, "grad_check", never)
        assert cli.main(["grad-check"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "417283" in lines[0] and "--config" in lines[0]


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            run_config_from_dict({"modle": {}})
        with pytest.raises(ConfigError, match="unknown keys"):
            run_config_from_dict({"model": {"d_modle": 3}})

    def test_readme_config_block_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"### Config file\s+```json\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        # the example spells out the defaults, so it must load to them
        assert run_config_from_dict(json.loads(blocks[0])) == RunConfig()

    def test_defaults_match_training_recipe(self):
        cfg = load_run_config(None)
        assert cfg.model.n_layers == 4
        assert cfg.model.d_model == 32
        assert cfg.model.n_heads == 4
        assert cfg.model.ffn_hidden == 64
        assert cfg.model.dropout == 0.1
        assert cfg.model.proj_dims == (128, 256, 128)
        assert cfg.model.clf_hidden == (32, 32)
        assert cfg.train.seed == 42
        assert cfg.train.weight_decay == 0.005
        assert cfg.train.pretrain.batch_size == 256
        assert cfg.train.pretrain.epochs == 30
        assert cfg.train.pretrain.lr == 1e-4
        assert cfg.train.calibrate.batch_size == 128
        assert cfg.train.calibrate.epochs == 100
        assert cfg.train.calibrate.lr == 1e-5
        assert cfg.train.patience == 20

    def test_seed_override_propagates(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        cfg = load_run_config(path, seed=99)
        assert cfg.seed == 99
        assert cfg.train.seed == 99
        assert cfg.synth.seed == 99

    def test_top_level_seed_fills_sections(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 123}), encoding="utf-8")
        cfg = load_run_config(path)
        assert cfg.train.seed == 123
        assert cfg.synth.seed == 123

    def test_explicit_section_seed_wins(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 123, "train": {"seed": 7}}),
                        encoding="utf-8")
        cfg = load_run_config(path)
        assert cfg.train.seed == 7
        assert cfg.synth.seed == 123

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_run_config(path)
