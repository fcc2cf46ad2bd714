"""Experiment runner: split, pretrain, train, eval, and report commands.

One JSON configuration document describes an experiment (data paths,
vocabulary settings, encoder shape, training hyperparameters); unknown
keys are rejected anywhere in the document so sweep typos fail loudly.
The SNOIC_SEED environment variable overrides the configured seed.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .corpus import (
    Dataset,
    SplitSpec,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_split,
    subsample_labeled,
)
from .encoder import EncoderConfig, init_params
from .errors import CheckpointError, ConfigError, SnoicError
from .metrics import evaluate
from .trainer import (
    Model,
    TrainConfig,
    baseline_predictions,
    batched_logits,
    load_model,
    open_predictions,
    pretrain,
    save_model,
    train_open,
)

ABLATION_TOGGLES = (
    "disable_soft_labeling",
    "disable_additive_noise",
    "disable_multiplicative_noise",
)

_TOP_KEYS = {"name", "data", "seed", "r", "labeled_data_ratio", "vocab", "encoder", "train", "out_dir"}
_DATA_KEYS = {"train", "val", "test"}
_VOCAB_KEYS = {"min_freq", "max_size"}
_ENCODER_KEYS = {"hidden", "num_layers", "ffn", "dim", "max_len", "attention"}
_TRAIN_KEYS = {
    "lr",
    "weight_decay",
    "batch_size",
    "max_epochs",
    "patience",
    "rho",
    "alpha",
    "gamma_mode",
    "gamma",
    "delta_add",
    "delta_mul",
    *ABLATION_TOGGLES,
}


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"{path}: unknown keys {sorted(extra)}")


def _expect_map(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _expect_str(obj: dict, key: str, path: str, default=None, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: missing")
        return default
    # an echoed null counts as absent; keeps normalize(normalize(x)) == normalize(x)
    if obj[key] is None and default is None and not required:
        return None
    if not isinstance(obj[key], str) or not obj[key]:
        raise ConfigError(f"{path}.{key}: expected a nonempty string")
    return obj[key]


def _expect_int(obj: dict, key: str, path: str, default):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    return v


def _expect_num(obj: dict, key: str, path: str, default):
    if key not in obj:
        return default
    v = obj[key]
    if v is None and default is None:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    return float(v)


def _expect_bool(obj: dict, key: str, path: str, default):
    if key not in obj:
        return default
    if not isinstance(obj[key], bool):
        raise ConfigError(f"{path}.{key}: expected true or false")
    return obj[key]


def normalize_experiment_config(raw: dict) -> dict:
    """Validate a raw config document and fill in every default.

    The result is a fully explicit nested dict; normalizing it again is
    the identity, which is what makes report config echoes re-runnable.
    """
    raw = _expect_map(raw, "config")
    _reject_unknown(raw, _TOP_KEYS, "config")
    data = _expect_map(raw.get("data", {}), "config.data")
    _reject_unknown(data, _DATA_KEYS, "config.data")
    data_norm = {
        role: _expect_str(data, role, "config.data", required=True) for role in ("train", "val", "test")
    }
    vocab = _expect_map(raw.get("vocab", {}), "config.vocab")
    _reject_unknown(vocab, _VOCAB_KEYS, "config.vocab")
    encoder = _expect_map(raw.get("encoder", {}), "config.encoder")
    _reject_unknown(encoder, _ENCODER_KEYS, "config.encoder")
    train = _expect_map(raw.get("train", {}), "config.train")
    _reject_unknown(train, _TRAIN_KEYS, "config.train")

    seed = _expect_int(raw, "seed", "config", 0)
    env_seed = os.environ.get("SNOIC_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SNOIC_SEED must be an integer, got {env_seed!r}") from None

    name = _expect_str(raw, "name", "config", default=None)
    if name is None:
        name = Path(data_norm["train"]).stem

    enc_defaults = EncoderConfig(vocab_size=3)
    tc_defaults = TrainConfig()
    norm = {
        "name": name,
        "data": data_norm,
        "seed": seed,
        "r": _expect_num(raw, "r", "config", None),
        "labeled_data_ratio": _expect_num(raw, "labeled_data_ratio", "config", 1.0),
        "out_dir": _expect_str(raw, "out_dir", "config", default=None),
        "vocab": {
            "min_freq": _expect_int(vocab, "min_freq", "config.vocab", 1),
            "max_size": _expect_int(vocab, "max_size", "config.vocab", 50000),
        },
        "encoder": {
            "hidden": _expect_int(encoder, "hidden", "config.encoder", enc_defaults.hidden),
            "num_layers": _expect_int(encoder, "num_layers", "config.encoder", enc_defaults.num_layers),
            "ffn": _expect_int(encoder, "ffn", "config.encoder", enc_defaults.ffn),
            "dim": _expect_int(encoder, "dim", "config.encoder", enc_defaults.dim),
            "max_len": _expect_int(encoder, "max_len", "config.encoder", enc_defaults.max_len),
            "attention": _expect_bool(encoder, "attention", "config.encoder", enc_defaults.attention),
        },
        "train": {
            "lr": _expect_num(train, "lr", "config.train", tc_defaults.lr),
            "weight_decay": _expect_num(train, "weight_decay", "config.train", tc_defaults.weight_decay),
            "batch_size": _expect_int(train, "batch_size", "config.train", tc_defaults.batch_size),
            "max_epochs": _expect_int(train, "max_epochs", "config.train", tc_defaults.max_epochs),
            "patience": _expect_int(train, "patience", "config.train", tc_defaults.patience),
            "rho": _expect_num(train, "rho", "config.train", tc_defaults.rho),
            "alpha": _expect_num(train, "alpha", "config.train", tc_defaults.alpha),
            "gamma_mode": _expect_str(train, "gamma_mode", "config.train", tc_defaults.gamma_mode),
            "gamma": _expect_num(train, "gamma", "config.train", tc_defaults.gamma),
            "delta_add": _expect_num(train, "delta_add", "config.train", tc_defaults.delta_add),
            "delta_mul": _expect_num(train, "delta_mul", "config.train", tc_defaults.delta_mul),
            "disable_soft_labeling": _expect_bool(train, "disable_soft_labeling", "config.train", False),
            "disable_additive_noise": _expect_bool(train, "disable_additive_noise", "config.train", False),
            "disable_multiplicative_noise": _expect_bool(train, "disable_multiplicative_noise", "config.train", False),
        },
    }
    if norm["r"] is not None and not 0.0 < norm["r"] < 1.0:
        raise ConfigError(f"config.r: must be in (0, 1), got {norm['r']}")
    if not 0.0 < norm["labeled_data_ratio"] <= 1.0:
        raise ConfigError(
            f"config.labeled_data_ratio: must be in (0, 1], got {norm['labeled_data_ratio']}"
        )
    return norm


def load_experiment_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from None
    return normalize_experiment_config(raw)


def train_config_from(norm: dict, ablations: list[str] | None = None) -> TrainConfig:
    t = dict(norm["train"])
    for name in ablations or []:
        if name not in ABLATION_TOGGLES:
            raise ConfigError(f"unknown ablation toggle {name!r}; choose from {list(ABLATION_TOGGLES)}")
        t[name] = True
    try:
        return TrainConfig(
            lr=t["lr"],
            weight_decay=t["weight_decay"],
            batch_size=t["batch_size"],
            max_epochs=t["max_epochs"],
            patience=t["patience"],
            rho=t["rho"],
            alpha=t["alpha"],
            gamma_mode=t["gamma_mode"],
            gamma=t["gamma"],
            delta_add=t["delta_add"],
            delta_mul=t["delta_mul"],
            seed=norm["seed"],
            use_soft_labels=not t["disable_soft_labeling"],
            use_additive_noise=not t["disable_additive_noise"],
            use_multiplicative_noise=not t["disable_multiplicative_noise"],
        )
    except KeyError as exc:
        raise ConfigError(f"config.train: missing {exc}") from None


def variant_name(tc: TrainConfig) -> str:
    parts = []
    if not tc.use_soft_labels:
        parts.append("SL")
    if not tc.use_additive_noise:
        parts.append("AN")
    if not tc.use_multiplicative_noise:
        parts.append("MN")
    return "SNOiC" + "".join(f"-{p}" for p in parts)


def _check_split_consistency(norm: dict, split: SplitSpec) -> None:
    if norm["r"] is not None and norm["r"] != split.r:
        raise ConfigError(f"config.r={norm['r']} does not match split file r={split.r}")


def _known_only(ds: Dataset, split: SplitSpec) -> Dataset:
    known = set(split.known_classes)
    return Dataset(examples=[ex for ex in ds.examples if ex.label in known])


def _resolve_out(args, norm: dict | None = None) -> str:
    if args.out:
        return args.out
    if norm and norm.get("out_dir"):
        return norm["out_dir"]
    raise ConfigError("no output path: pass --out or set out_dir in the config")


# ---------------------------------------------------------------------------
# commands


def cmd_split(args) -> int:
    if not 0.0 < args.r < 1.0:
        raise ConfigError(f"--r must be in (0, 1), got {args.r}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    ds = load_dataset(args.data)
    spec = make_split(ds, args.r, args.seed)
    spec.save(args.out)
    print(f"split: {spec.num_known} known / {len(spec.open_classes)} open -> {args.out}")
    return 0


def _prepare_stage_data(norm: dict, split: SplitSpec):
    ds_train = load_dataset(norm["data"]["train"])
    ds_val = load_dataset(norm["data"]["val"])
    ds_train = subsample_labeled(ds_train, norm["labeled_data_ratio"], norm["seed"])
    cds_train = apply_split(ds_train, split, "train")
    cds_val = apply_split(ds_val, split, "val")
    return ds_train, cds_train, cds_val


def cmd_pretrain(args) -> int:
    norm = load_experiment_config(args.config)
    split = SplitSpec.load(args.split)
    _check_split_consistency(norm, split)
    out = _resolve_out(args, norm)
    tc = train_config_from(norm)
    ds_train, cds_train, cds_val = _prepare_stage_data(norm, split)
    vocab = build_vocab(
        _known_only(ds_train, split),
        min_freq=norm["vocab"]["min_freq"],
        max_size=norm["vocab"]["max_size"],
    )
    enc_cfg = EncoderConfig(vocab_size=len(vocab), **norm["encoder"])
    params = init_params(enc_cfg, split.num_known, norm["seed"])
    train_enc = encode_dataset(cds_train, vocab, enc_cfg.max_len)
    val_enc = encode_dataset(cds_val, vocab, enc_cfg.max_len)
    best, log = pretrain(params, train_enc, val_enc, tc)
    meta = {
        "stage": "pretrain",
        "dataset": norm["name"],
        "variant": variant_name(tc),
        "seed": norm["seed"],
        "M": split.num_known,
        "r": split.r,
        "train_examples": len(train_enc),
        "val_examples": len(val_enc),
        "config": norm,
    }
    save_model(Model(params=best, vocab=vocab), out, meta=meta, log=log)
    print(f"pretrain: {len(log)} epochs, model -> {out}")
    return 0


def cmd_train(args) -> int:
    norm = load_experiment_config(args.config)
    split = SplitSpec.load(args.split)
    _check_split_consistency(norm, split)
    out = _resolve_out(args, norm)
    tc = train_config_from(norm, args.ablation)
    model, _ = load_model(args.init)
    if model.params.M != split.num_known:
        raise CheckpointError(
            f"init checkpoint head width {model.params.M + 1} does not match "
            f"split head width {split.num_known + 1}"
        )
    ds_train, cds_train, cds_val = _prepare_stage_data(norm, split)
    max_len = model.params.cfg.max_len
    train_enc = encode_dataset(cds_train, model.vocab, max_len)
    val_enc = encode_dataset(cds_val, model.vocab, max_len)
    best, log = train_open(model.params, train_enc, val_enc, tc)
    meta = {
        "stage": "train",
        "dataset": norm["name"],
        "variant": variant_name(tc),
        "seed": norm["seed"],
        "M": split.num_known,
        "r": split.r,
        "train_examples": len(train_enc),
        "val_examples": len(val_enc),
        "config": norm,
    }
    save_model(Model(params=best, vocab=model.vocab), out, meta=meta, log=log)
    print(f"train: variant {meta['variant']}, {len(log)} epochs, model -> {out}")
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(f"--threshold must be in [0, 1], got {args.threshold}")
    model, meta = load_model(args.model)
    split = SplitSpec.load(args.split)
    if model.params.M != split.num_known:
        raise CheckpointError(
            f"model head width {model.params.M + 1} does not match "
            f"split head width {split.num_known + 1}"
        )
    if model.params.cfg.vocab_size != len(model.vocab):
        raise CheckpointError(
            f"model expects vocabulary of {model.params.cfg.vocab_size} ids, "
            f"stored vocabulary has {len(model.vocab)}"
        )
    ds_test = load_dataset(args.test)
    cds_test = apply_split(ds_test, split, "test")
    enc_test = encode_dataset(cds_test, model.vocab, model.params.cfg.max_len)
    golds = enc_test.class_ids.tolist()
    num_classes = split.num_known + 1
    logits = batched_logits(model.params, enc_test)
    preds = open_predictions(logits).tolist()
    base = baseline_predictions(logits, model.params.M, args.threshold).tolist()
    report = {
        "dataset": meta.get("dataset", Path(args.test).stem),
        "variant": meta.get("variant", "SNOiC"),
        "seed": meta.get("seed"),
        "config": meta.get("config", {}),
        "split": {
            "seed": split.seed,
            "r": split.r,
            "num_known": split.num_known,
            "known": split.known_classes,
            "open": split.open_classes,
        },
        "threshold": args.threshold,
        "test_examples": len(enc_test),
        "snoic": evaluate(preds, golds, num_classes).to_dict(),
        "baseline": evaluate(base, golds, num_classes).to_dict(),
        "wall_clock_sec": round(time.monotonic() - started, 3),
        "version": __version__,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, sort_keys=True, indent=1)
        f.write("\n")
    print(
        f"eval: f1_open {report['snoic']['f1_open']:.4f}, "
        f"accuracy {report['snoic']['accuracy']:.4f} -> {args.out}"
    )
    return 0


def _report_rows(paths: list[str]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            try:
                rep = json.load(f)
            except json.JSONDecodeError as exc:
                raise SnoicError(f"{path}: not a run report: {exc}") from None
        if "snoic" not in rep or "split" not in rep:
            raise SnoicError(f"{path}: not a run report")
        dataset = rep.get("dataset", "?")
        r = rep["split"]["r"]
        groups.setdefault((dataset, r, rep.get("variant", "SNOiC")), []).append(rep["snoic"])
        groups.setdefault((dataset, r, f"threshold@{rep.get('threshold', 0.5)}"), []).append(
            rep["baseline"]
        )
    rows = []
    for (dataset, r, variant), reps in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        row = {"dataset": dataset, "r": r, "variant": variant, "runs": len(reps)}
        for metric in ("accuracy", "f1_all", "f1_known", "f1_open"):
            mean = sum(rep[metric] for rep in reps) / len(reps)
            row[metric] = round(100.0 * mean, 2)
        rows.append(row)
    return rows


def cmd_report(args) -> int:
    paths = sorted(globmod.glob(args.inputs))
    if not paths:
        raise SnoicError(f"no run reports match {args.inputs!r}")
    rows = _report_rows(paths)
    fields = ["dataset", "r", "variant", "runs", "accuracy", "f1_all", "f1_known", "f1_open"]
    csv_path = args.out + ".csv"
    json_path = args.out + ".json"
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(rows, f, sort_keys=True, indent=1)
        f.write("\n")
    for row in rows:
        print(
            f"{row['dataset']} r={row['r']} {row['variant']}: "
            f"acc {row['accuracy']:.2f} f1 {row['f1_all']:.2f} "
            f"f1_known {row['f1_known']:.2f} f1_open {row['f1_open']:.2f}"
        )
    print(f"report: {len(rows)} rows -> {csv_path}, {json_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snoic", description="open intent classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="draw a seeded known/open class split")
    p.add_argument("--data", required=True, help="JSON Lines dataset defining the class inventory")
    p.add_argument("--r", type=float, required=True, help="known-class ratio in (0, 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="split file to write")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("pretrain", help="stage one: known-class pretraining")
    p.add_argument("--config", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", default=None, help="model directory (defaults to config out_dir)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="stage two: soft labels + noisy mixup")
    p.add_argument("--config", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--init", required=True, help="pretrained model directory")
    p.add_argument("--out", default=None, help="model directory (defaults to config out_dir)")
    p.add_argument(
        "--ablation",
        action="append",
        default=None,
        help=f"repeatable; one of {', '.join(ABLATION_TOGGLES)}",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a test file")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--split", required=True)
    p.add_argument("--test", required=True, help="test JSON Lines file")
    p.add_argument("--threshold", type=float, default=0.5, help="baseline rejection threshold")
    p.add_argument("--out", required=True, help="run report JSON to write")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="aggregate run reports into a table")
    p.add_argument("--inputs", required=True, help="glob of run report JSON files")
    p.add_argument("--out", required=True, help="output base path (.csv and .json are appended)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SnoicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
