"""Experiment runner: split, pretrain, train, eval, and report commands.

One JSON configuration document describes an experiment (data paths,
vocabulary settings, encoder shape, training hyperparameters); unknown
keys are rejected anywhere in the document so sweep typos fail loudly.
The SNOIC_SEED environment variable overrides the configured seed.

The paper's ablations are magnitudes at zero: rho (soft labeling),
delta_add or delta_mul set to 0 in config.train, or by an ``--ablation``
of ``snoic train``, which writes the 0 into the config that the model
directory echoes. A run's variant name (SNOiC, SNOiC-SL, SNOiC-AN,
SNOiC-MN) follows which of the three is 0. ``snoic train`` refuses a
config.encoder that differs from its ``--init`` checkpoint's, and a
config.vocab that differs from the one its ``--init`` model records.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob as globmod
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    Dataset,
    SplitSpec,
    _load_json,
    apply_split,
    build_vocab,
    encode_dataset,
    load_dataset,
    make_split,
    subsample_labeled,
)
from .encoder import EncoderConfig, init_params
from .errors import CheckpointError, ConfigError, DataError, SnoicError, fraction, integer
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

# --ablation name -> the TrainConfig magnitude it sets to 0
ABLATIONS = {
    "disable_soft_labeling": "rho",
    "disable_additive_noise": "delta_add",
    "disable_multiplicative_noise": "delta_mul",
}

_TOP_KEYS = {"name", "data", "seed", "r", "labeled_data_ratio", "vocab", "encoder", "train", "out_dir"}
_DATA_KEYS = {"train", "val", "test"}
# config.vocab keys and their defaults, as build_vocab's signature declares them
_VOCAB_DEFAULTS = {
    k: p.default for k, p in inspect.signature(build_vocab).parameters.items() if p.default is not p.empty
}
# EncoderConfig fields set from config.encoder; the vocabulary size comes from the data
_ENCODER_KEYS = {f.name for f in fields(EncoderConfig)} - {"vocab_size"}
# TrainConfig fields set from config.train; the seed comes from config.seed
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"seed"}


def _blas_threads() -> int | None:
    """Thread count read back from the OpenBLAS that numpy loaded; None for any other BLAS."""
    for path in globmod.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    """The numerics a result came from: numpy's version, its BLAS's name and
    version, and the BLAS thread count. ``meta.json`` and the eval report
    record it; it is not a timing field."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
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


def _owned(prefix: str, owner, **values):
    """``owner(**values)``; the owner's own check of a value fails as a
    ConfigError whose message, the owner's behind ``prefix`` (``config.``,
    ``config.train.``, ``--``), names the value's path."""
    try:
        return owner(**values)
    except (DataError, ConfigError) as exc:
        raise ConfigError(f"{prefix}{exc}") from None


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
    _reject_unknown(vocab, set(_VOCAB_DEFAULTS), "config.vocab")
    encoder = _expect_map(raw.get("encoder", {}), "config.encoder")
    _reject_unknown(encoder, _ENCODER_KEYS, "config.encoder")
    train = _expect_map(raw.get("train", {}), "config.train")
    _reject_unknown(train, _TRAIN_KEYS, "config.train")

    seed = integer("config.seed", raw.get("seed", 0), 0, ConfigError)
    env_seed = os.environ.get("SNOIC_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"SNOIC_SEED must be an integer, got {env_seed!r}") from None
        seed = integer("SNOIC_SEED", seed, 0, ConfigError)

    name = _expect_str(raw, "name", "config", default=None)
    if name is None:
        name = Path(data_norm["train"]).stem

    # each value is checked by its owner, now, so that a bad value is a configuration error
    r, ratio = raw.get("r"), raw.get("labeled_data_ratio", 1.0)
    if r is not None:
        r = _owned("config.", SplitSpec, seed=seed, r=r, known_classes=[], open_classes=[]).r
    _owned("config.", subsample_labeled, ds=Dataset(examples=[]), ratio=ratio, seed=seed)
    norm = {
        "name": name,
        "data": data_norm,
        "seed": seed,
        "r": r,
        "labeled_data_ratio": float(ratio),
        "out_dir": _expect_str(raw, "out_dir", "config", default=None),
    }
    # max_size, once build_vocab accepts it, is a valid vocab_size
    norm["vocab"] = {**_VOCAB_DEFAULTS, **vocab}
    _owned("config.vocab.", build_vocab, ds=Dataset(examples=[]), **norm["vocab"])
    enc_cfg = _owned("config.encoder.", EncoderConfig, vocab_size=norm["vocab"]["max_size"], **encoder)
    norm["encoder"] = {k: v for k, v in asdict(enc_cfg).items() if k != "vocab_size"}
    norm["train"] = {k: v for k, v in asdict(_owned("config.train.", TrainConfig, **train)).items() if k != "seed"}
    return norm


def load_experiment_config(path: str) -> dict:
    try:
        raw = _load_json(path, "config")
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from None
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return normalize_experiment_config(raw)


def with_ablations(norm: dict, ablations: list[str] | None) -> dict:
    """``norm`` with the magnitude of each named ablation set to 0."""
    zeroed = {}
    for name in ablations or []:
        if name not in ABLATIONS:
            raise ConfigError(f"unknown ablation {name!r}; choose from {list(ABLATIONS)}")
        zeroed[ABLATIONS[name]] = 0.0
    return {**norm, "train": {**norm["train"], **zeroed}}


def train_config_from(norm: dict) -> TrainConfig:
    """The TrainConfig of a normalized config, whose train section its owner checked."""
    return TrainConfig(**norm["train"], seed=norm["seed"])


def variant_name(tc: TrainConfig) -> str:
    """SNOiC, with -SL, -AN and -MN for each of rho, delta_add and delta_mul that is 0."""
    suffixes = {"rho": "SL", "delta_add": "AN", "delta_mul": "MN"}
    return "SNOiC" + "".join(f"-{suffix}" for name, suffix in suffixes.items() if getattr(tc, name) == 0.0)


def _check_split_consistency(norm: dict, split: SplitSpec) -> None:
    if norm["r"] is not None and norm["r"] != split.r:
        raise ConfigError(f"config.r={norm['r']} does not match split file r={split.r}")


def _check_head_width(model: Model, split: SplitSpec, what: str) -> None:
    if model.params.M != split.num_known:
        raise CheckpointError(
            f"{what} head width {model.params.M + 1} does not match split head width {split.num_known + 1}"
        )


def _resolve_out(args, norm: dict | None = None) -> str:
    if args.out:
        return args.out
    if norm and norm.get("out_dir"):
        return norm["out_dir"]
    raise ConfigError("no output path: pass --out or set out_dir in the config")


# ---------------------------------------------------------------------------
# commands


def cmd_split(args) -> int:
    _owned("--", SplitSpec, seed=args.seed, r=args.r, known_classes=[], open_classes=[])
    ds = load_dataset(args.data)
    spec = make_split(ds, args.r, args.seed)
    spec.save(args.out)
    print(f"split: {spec.num_known} known / {len(spec.open_classes)} open -> {args.out}")
    return 0


def _train_command(args, stage: str, train, model_and_data, ablations=None) -> int:
    """The flow of ``snoic pretrain`` and ``snoic train`` around the ``train``
    stage. ``model_and_data(norm, split, load_data)`` gives the model to
    train and the result of ``load_data()``; whether it loads the data before
    or after the model decides which of two faults a run reports."""
    norm = with_ablations(load_experiment_config(args.config), ablations)
    split = SplitSpec.load(args.split)
    _check_split_consistency(norm, split)
    out = _resolve_out(args, norm)
    tc = train_config_from(norm)

    def load_data():
        ds_train = load_dataset(norm["data"]["train"])
        ds_val = load_dataset(norm["data"]["val"])
        ds_train = subsample_labeled(ds_train, norm["labeled_data_ratio"], norm["seed"])
        return ds_train, apply_split(ds_train, split, "train"), apply_split(ds_val, split, "val")

    model, (_, cds_train, cds_val) = model_and_data(norm, split, load_data)
    train_enc = encode_dataset(cds_train, model.vocab, model.params.cfg.max_len)
    val_enc = encode_dataset(cds_val, model.vocab, model.params.cfg.max_len)
    best, log = train(model.params, train_enc, val_enc, tc)
    meta = {
        "stage": stage,
        "dataset": norm["name"],
        "variant": variant_name(tc),
        "seed": norm["seed"],
        "M": split.num_known,
        "r": split.r,
        "train_examples": len(train_enc),
        "val_examples": len(val_enc),
        "config": norm,
        "environment": environment(),
    }
    save_model(Model(params=best, vocab=model.vocab), out, meta=meta, log=log)
    variant = f" variant {meta['variant']}," if stage == "train" else ""
    print(f"{stage}:{variant} {len(log)} epochs, model -> {out}")
    return 0


def cmd_pretrain(args) -> int:
    def fresh_model(norm, split, load_data):
        data = load_data()
        known = set(split.known_classes)
        vocab = build_vocab(
            Dataset(examples=[ex for ex in data[0].examples if ex.label in known]),
            min_freq=norm["vocab"]["min_freq"],
            max_size=norm["vocab"]["max_size"],
        )
        enc_cfg = EncoderConfig(vocab_size=len(vocab), **norm["encoder"])
        return Model(params=init_params(enc_cfg, split.num_known, norm["seed"]), vocab=vocab), data

    return _train_command(args, "pretrain", pretrain, fresh_model)


def cmd_train(args) -> int:
    def init_model(norm, split, load_data):
        model, init_meta = load_model(args.init)
        _check_head_width(model, split, "init checkpoint")
        init_cfg = model.params.cfg
        for key, value in norm["encoder"].items():
            if getattr(init_cfg, key) != value:
                raise ConfigError(f"config.encoder.{key} is {value}, the init checkpoint's is {getattr(init_cfg, key)}")
        # the vocabulary comes from --init too; its settings are what its meta.json records, if anything
        init_config = init_meta.get("config")
        init_vocab = init_config.get("vocab") if isinstance(init_config, dict) else None
        if isinstance(init_vocab, dict):
            for key, value in norm["vocab"].items():
                if init_vocab.get(key, value) != value:
                    raise ConfigError(f"config.vocab.{key} is {value}, the init model's is {init_vocab[key]}")
        return model, load_data()

    return _train_command(args, "train", train_open, init_model, args.ablation)


def cmd_eval(args) -> int:
    started = time.monotonic()
    _owned("--", baseline_predictions, logits=np.zeros((0, 2)), M=1, threshold=args.threshold)
    model, meta = load_model(args.model)
    split = SplitSpec.load(args.split)
    _check_head_width(model, split, "model")
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
        "environment": environment(),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(report, f, sort_keys=True, indent=1)
        f.write("\n")
    print(
        f"eval: f1_open {report['snoic']['f1_open']:.4f}, "
        f"accuracy {report['snoic']['accuracy']:.4f} -> {args.out}"
    )
    return 0


_REPORT_METRICS = ("accuracy", "f1_all", "f1_known", "f1_open")


def _report_rows(paths: list[str]) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        rep = _load_json(path, "run report")
        try:
            r = fraction("split.r", rep["split"]["r"], interior=True)
            threshold = fraction("threshold", rep.get("threshold", 0.5))
            snoic, base = ({m: fraction(f"{s}.{m}", rep[s][m]) for m in _REPORT_METRICS} for s in ("snoic", "baseline"))
        except (KeyError, TypeError, DataError) as exc:
            raise DataError(f"{path}: not a run report: {exc}") from None
        # both are sort keys, so a value of another type would fail the sort
        dataset, variant = rep.get("dataset", "?"), rep.get("variant", "SNOiC")
        if not isinstance(dataset, str) or not isinstance(variant, str):
            raise DataError(f"{path}: not a run report: dataset and variant must be strings")
        groups.setdefault((dataset, r, variant), []).append(snoic)
        groups.setdefault((dataset, r, f"threshold@{threshold}"), []).append(base)
    rows = []
    for (dataset, r, variant), reps in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        row = {"dataset": dataset, "r": r, "variant": variant, "runs": len(reps)}
        for metric in _REPORT_METRICS:
            mean = sum(rep[metric] for rep in reps) / len(reps)
            row[metric] = round(100.0 * mean, 2)
        rows.append(row)
    return rows


def cmd_report(args) -> int:
    paths = sorted(globmod.glob(args.inputs))
    if not paths:
        raise SnoicError(f"no run reports match {args.inputs!r}")
    rows = _report_rows(paths)
    fields = ["dataset", "r", "variant", "runs", *_REPORT_METRICS]
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
        help=f"repeatable; sets a magnitude to 0: {', '.join(f'{k} ({v})' for k, v in ABLATIONS.items())}",
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
    except (SnoicError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
