"""Command-line entry point wiring the pipeline into reproducible runs.

Every subcommand reads an optional ``--config`` JSON (strict keys, defaults
match the reference recipe) plus overriding flags, writes CSV/JSON results
under ``--out``, and stamps each result CSV with a config-hash + seed comment
line.  Progress goes to stderr; stdout stays empty except for ``predict``.
Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data_io, evaluation, losses, model, training
from .autodiff import finite_checks, grad_check
from .config import RunConfig, config_hash, load_run_config
from .dsp import stack_samples

GRAD_CHECK_LIMIT = 1e-4
# most model parameters `grad-check` perturbs: each costs two forward passes
# of a head, and on 2 vCPUs a 2-layer, d_model 16, 19-channel model of 18 043
# parameters took 64 s; the reference model has 417 283
GRAD_CHECK_MAX_PARAMS = 20_000

FAILURE_SWEEP_DEFAULT = "0,1,2,4,6,8,10,15,20,30,40"
NOISE_SWEEP_DEFAULT = "0.1,0.5,1.0,1.5,2.0,2.5,3.0"


def _info(msg):
    print(msg, file=sys.stderr, flush=True)


def _stamp(cfg: RunConfig):
    return f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n"


def _write_csv(path, cfg, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_stamp(cfg))
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_sweep(text, cast):
    return [cast(tok) for tok in text.split(",") if tok.strip()]


# -- subcommand handlers ---------------------------------------------------------


def _cmd_gen_synth(args, cfg: RunConfig):
    bank = data_io.gen_synthetic(cfg.synth)
    out = _out_dir(args)
    data_io.write_bank(bank, out)
    _info(f"wrote bank: {len(bank.samples)} samples, "
          f"{len(bank.raw_trials)} raw trials -> {out}")
    return 0


def _cmd_extract_features(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    feat = data_io.extract_bank_features(
        bank, smooth=not args.no_smooth, preprocess=args.preprocess,
        reject_segments=args.reject_segments)
    out = _out_dir(args)
    data_io.write_bank(feat, out)
    _info(f"extracted {len(feat.samples)} samples from "
          f"{len(bank.raw_trials)} trials -> {out}")
    return 0


def _cmd_pretrain(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    result = training.pretrain(bank, bank.montage, cfg.model, cfg.train,
                               cfg.augment, log=True)
    out = _out_dir(args)
    data_io.save_checkpoint(result.params, out / "pretrained.ckpt")
    _write_csv(out / "pretrain_loss.csv", cfg, ["epoch", "loss"],
               [(i + 1, f"{v:.8f}") for i, v in enumerate(result.epoch_losses)])
    _info(f"pretrained checkpoint -> {out / 'pretrained.ckpt'}")
    return 0


def _cmd_calibrate(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    dta, _ = data_io.load_checkpoint(args.checkpoint, dtype=np.float32)
    target = bank.filter(lambda s: s.subject_id == args.subject)
    if not target.samples:
        raise ValueError(f"no samples for subject {args.subject}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.train.seed, args.subject, 1]))
    labeled, _rest = evaluation.draw_labeled(
        target.samples, cfg.train.k_per_class, dta.config.n_classes, rng)
    cal = training.calibrate(dta, labeled, bank.montage, cfg.train,
                             seed=np.random.SeedSequence([cfg.train.seed, args.subject, 2]),
                             log=True)
    out = _out_dir(args)
    data_io.save_checkpoint(cal.params, out / "calibrated.ckpt")
    summary = {"subject": args.subject, "k_per_class": cfg.train.k_per_class,
               "best_epoch": cal.best_epoch, "epochs_run": cal.epochs_run,
               "val_accuracy": cal.val_accuracy, "seed": cfg.seed,
               "config_hash": config_hash(cfg)}
    (out / "calibration.json").write_text(json.dumps(summary, indent=1), "utf-8")
    _info(f"calibrated checkpoint -> {out / 'calibrated.ckpt'} "
          f"(best epoch {cal.best_epoch}, val {cal.val_accuracy:.3f})")
    return 0


def _cmd_predict(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    dta, _ = data_io.load_checkpoint(args.checkpoint)
    samples = bank.samples
    if args.subject is not None:
        samples = [s for s in samples if s.subject_id == args.subject]
    if not samples:
        raise ValueError("no samples to predict")
    feats, _ = stack_samples(samples)
    labels, probs = training.predict_batch(dta, feats, bank.montage)
    for lab, p in zip(labels, probs):
        print(f"{lab}," + ",".join(f"{v:.9g}" for v in p))
    return 0


def _cmd_evaluate(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    protocol = data_io.get_protocol(cfg.protocol) if cfg.protocol else None
    if args.mode == "subject-dependent" and protocol is None:
        protocol = data_io.get_protocol("ratio80")
    report = evaluation.losocv(
        bank, cfg.model, cfg.train, cfg.augment, protocol=protocol,
        from_scratch=args.from_scratch, jobs=args.jobs, log=True)
    if args.mode == "subject-dependent":
        # calibration draws from each subject's protocol training trials and
        # testing uses its protocol test trials
        report.protocol = f"subject-dependent+{protocol.name}"
    out = _out_dir(args)
    _write_csv(out / "report.csv", cfg, ["subject", "accuracy"],
               [(s, f"{a:.6f}") for s, a in report.per_subject])
    doc = {"protocol": report.protocol, "seed": report.seed,
           "mean_accuracy": report.mean, "std_accuracy": report.std,
           "per_subject": {str(s): a for s, a in report.per_subject},
           "folds": [{k: v for k, v in f.items() if k != "pretrain_losses"}
                     for f in report.details["folds"]],
           "config_hash": config_hash(cfg)}
    (out / "report.json").write_text(json.dumps(doc, indent=1), "utf-8")
    _info(f"mean accuracy {report.mean:.4f} (std {report.std:.4f}) -> {out}")
    return 0


def _cmd_robustness(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    dta, _ = data_io.load_checkpoint(args.checkpoint)
    samples = bank.samples
    if args.subject is not None:
        samples = [s for s in samples if s.subject_id == args.subject]
    if not samples:
        raise ValueError("no evaluation samples")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 77]))
    if args.mode == "noise":
        sweep = args.sweep or NOISE_SWEEP_DEFAULT
        results = evaluation.noise_sweep(dta, samples, bank.montage,
                                         _parse_sweep(sweep, float), rng)
    else:
        if args.sweep:
            counts = _parse_sweep(args.sweep, int)
        else:  # the default sweep stops below the montage's channel count
            counts = [m for m in _parse_sweep(FAILURE_SWEEP_DEFAULT, int) if m < len(bank.montage)]
        results = evaluation.electrode_failure_sweep(
            dta, samples, bank.montage, counts, args.failure_mode, rng)
    out = _out_dir(args)
    _write_csv(out / "robustness.csv", cfg, ["param", "accuracy"],
               [(p, f"{a:.6f}") for p, a in results])
    _info(f"{args.mode} sweep -> {out / 'robustness.csv'}")
    return 0


def _cmd_connectivity(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    dta, _ = data_io.load_checkpoint(args.checkpoint)
    result = evaluation.connectivity(dta, bank.samples, bank.montage)
    out = _out_dir(args)
    n = result.adjacency.shape[0]
    edges = [(i, j, f"{result.adjacency[i, j]:.9g}", int(result.retained[i, j]))
             for i in range(n) for j in range(i + 1, n)]
    _write_csv(out / "edges.csv", cfg, ["i", "j", "cosine", "retained"], edges)
    _write_csv(out / "centrality.csv", cfg, ["node", "degree_centrality"],
               [(i, f"{c:.9g}") for i, c in enumerate(result.degree_centrality)])
    _info(f"{int(result.retained.sum() // 2)} retained edges -> {out}")
    return 0


def _cmd_export_features(args, cfg: RunConfig):
    bank = data_io.read_bank(args.bank)
    encoded = calibrated = None
    if args.checkpoint:
        encoded, _ = data_io.load_checkpoint(args.checkpoint)
    if args.calibrated_checkpoint:
        calibrated, _ = data_io.load_checkpoint(args.calibrated_checkpoint)
    out = _out_dir(args)
    evaluation.export_features(bank, out / "features.csv",
                               encoded=encoded, calibrated=calibrated)
    _info(f"feature export -> {out / 'features.csv'}")
    return 0


def _cmd_grad_check(args, cfg: RunConfig):
    mcfg = cfg.model
    dta = model.init_parameters(mcfg, seed=cfg.seed + 1, dtype=np.float64)
    n_params = sum(t.data.size for _, t in dta.params.items())
    if n_params > GRAD_CHECK_MAX_PARAMS:
        _info(f"error: grad-check perturbs at most {GRAD_CHECK_MAX_PARAMS} parameters and this "
              f"model has {n_params}; pass a smaller model with --config")
        return 1
    montage = data_io.synth_montage(mcfg.n_channels)
    rng = np.random.default_rng(cfg.seed)
    feats = rng.normal(size=(8, mcfg.n_channels, mcfg.n_bands))  # two views of 4 samples
    labels = np.arange(4) % mcfg.n_classes
    pos = montage.positions

    def contrastive_head():
        # masked (training) attention; projector batch norm in eval mode so
        # batch-mean subtraction leaves no parameter without influence
        z = model.project(model.encode(feats, pos, dta, mask_diagonal=True), dta)
        return losses.contrastive_loss(z, labels)

    def cross_entropy_head():
        enc = model.encode(feats[:4], pos, dta)
        return losses.cross_entropy(model.classify(enc, dta), labels)

    with finite_checks():
        err_con = grad_check(contrastive_head, dta.params,
                             names=dta.encoder_names() + dta.projector_names())
        err_ce = grad_check(cross_entropy_head, dta.params,
                            names=dta.encoder_names() + dta.classifier_names())
    _info(f"max relative error (contrastive head): {err_con:.3e}")
    _info(f"max relative error (cross-entropy head): {err_ce:.3e}")
    ok = err_con < GRAD_CHECK_LIMIT and err_ce < GRAD_CHECK_LIMIT
    _info("gradient check PASSED" if ok else "gradient check FAILED")
    return 0 if ok else 1


# -- parser -----------------------------------------------------------------------


def _positive_int(text):
    """argparse type of a count that must be at least 1 (`--jobs`)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer of at least 1, got {text!r}")
    return value


def _add_common(sp):
    sp.add_argument("--config", help="JSON run config")
    sp.add_argument("--seed", type=int, help="override every seed in the config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegtransfer",
        description="Contrastive pretraining and few-shot calibration for "
                    "channel-attention EEG emotion features")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-synth", help="generate a synthetic sample bank")
    _add_common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_gen_synth)

    sp = sub.add_parser("extract-features", help="raw-trial bank -> feature bank")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--no-smooth", action="store_true")
    sp.add_argument("--preprocess", action="store_true",
                    help="filter / interpolate / re-reference before extraction")
    sp.add_argument("--reject-segments", action="store_true")
    sp.set_defaults(handler=_cmd_extract_features)

    sp = sub.add_parser("pretrain", help="contrastive pretraining on a bank")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_pretrain)

    sp = sub.add_parser("calibrate", help="few-shot fine-tune for one subject")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--subject", type=int, required=True)
    sp.add_argument("--k-per-class", type=int)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_calibrate)

    sp = sub.add_parser("predict", help="print label,probabilities per sample")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--subject", type=int)
    sp.set_defaults(handler=_cmd_predict)

    sp = sub.add_parser("evaluate", help="cross-subject transfer evaluation")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=["losocv", "subject-dependent"],
                    default="losocv")
    sp.add_argument("--k-per-class", type=int)
    sp.add_argument("--from-scratch", action="store_true",
                    help="skip pretraining (randomly initialized baseline)")
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.set_defaults(handler=_cmd_evaluate)

    sp = sub.add_parser("robustness", help="electrode-failure / noise sweeps")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--mode", choices=["failure", "noise"], default="failure")
    sp.add_argument("--failure-mode", choices=["zero", "neighbor"], default="zero")
    sp.add_argument("--sweep", help="comma-separated sweep values")
    sp.add_argument("--subject", type=int)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_robustness)

    sp = sub.add_parser("connectivity", help="channel connectivity analysis")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_connectivity)

    sp = sub.add_parser("export-features", help="per-stage feature CSV export")
    _add_common(sp)
    sp.add_argument("--bank", required=True)
    sp.add_argument("--checkpoint")
    sp.add_argument("--calibrated-checkpoint")
    sp.add_argument("--out", required=True)
    sp.set_defaults(handler=_cmd_export_features)

    sp = sub.add_parser("grad-check", help="finite-difference check of the full model")
    _add_common(sp)
    sp.set_defaults(handler=_cmd_grad_check)

    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    import dataclasses

    if getattr(args, "k_per_class", None) is not None:
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, k_per_class=args.k_per_class))
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed=args.seed)
        cfg = _apply_overrides(cfg, args)
        return args.handler(args, cfg)
    except BrokenPipeError:
        return 1
    except Exception as e:  # one machine-parsable line, exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
