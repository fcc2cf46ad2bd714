"""End-to-end command line coverage: exit codes, artifacts, report tables."""

import csv
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from snoic.cli import ABLATIONS, environment, main, normalize_experiment_config, train_config_from, with_ablations
from snoic.corpus import SplitSpec, build_vocab, load_dataset, make_split
from snoic.encoder import EncoderConfig
from snoic.errors import ConfigError
from snoic import synth
from snoic.synth import write_corpus
from snoic.trainer import TrainConfig


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    os.environ.pop("SNOIC_SEED", None)
    paths = write_corpus(
        str(root / "corpus"), seed=0, train_per_class=30, val_per_class=10, test_per_class=10
    )
    config = {
        "name": "toy",
        "data": {role: str(paths[role]) for role in ("train", "val", "test")},
        "seed": 3,
        "r": 0.5,
        "vocab": {"min_freq": 2, "max_size": 4000},
        "encoder": {"hidden": 16, "num_layers": 1, "ffn": 32, "dim": 16, "max_len": 12},
        "train": {"lr": 0.005, "batch_size": 20, "max_epochs": 2, "patience": 2},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return SimpleNamespace(
        root=root, paths={k: str(v) for k, v in paths.items()}, config=config,
        config_path=str(config_path),
    )


@pytest.fixture(scope="module")
def pipeline(cli_env):
    """One full split -> pretrain -> train -> eval pass shared by the tests."""
    root = cli_env.root
    split = str(root / "split.json")
    pre = str(root / "model_pre")
    opened = str(root / "model_open")
    report = str(root / "run.json")
    assert main(["split", "--data", cli_env.paths["train"], "--r", "0.5", "--seed", "3", "--out", split]) == 0
    assert main(["pretrain", "--config", cli_env.config_path, "--split", split, "--out", pre]) == 0
    assert main(["train", "--config", cli_env.config_path, "--split", split, "--init", pre, "--out", opened]) == 0
    assert main(["eval", "--model", opened, "--split", split, "--test", cli_env.paths["test"], "--out", report]) == 0
    return SimpleNamespace(split=split, pre=pre, open=opened, report=report)


def read_json(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


class TestSplitCommand:
    def test_split_file_matches_library_call(self, cli_env, pipeline):
        spec = SplitSpec.load(pipeline.split)
        expected = make_split(load_dataset(cli_env.paths["train"]), 0.5, 3)
        assert spec.to_json() == expected.to_json()
        assert spec.num_known == 4

    def test_ratio_out_of_range_exits_2(self, cli_env, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert main(["split", "--data", cli_env.paths["train"], "--r", "1.5", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --r must be in (0, 1), got 1.5\n"

    def test_negative_seed_exits_2(self, cli_env, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        args = ["split", "--data", cli_env.paths["train"], "--r", "0.5", "--seed", "-1", "--out", out]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_non_finite_ratio_exits_2(self, cli_env, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert main(["split", "--data", cli_env.paths["train"], "--r", "nan", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --r must be finite, got nan\n"

    def test_missing_data_file_exits_1(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert main(["split", "--data", str(tmp_path / "nope.jsonl"), "--r", "0.5", "--out", out]) == 1

    def test_data_file_that_is_not_utf8_exits_1(self, cli_env, tmp_path, capsys):
        data = tmp_path / "utf16.jsonl"
        data.write_bytes(b"\xff\xfe" + Path(cli_env.paths["train"]).read_text().encode("utf-16-le"))
        assert main(["split", "--data", str(data), "--r", "0.5", "--out", str(tmp_path / "s.json")]) == 1
        assert f"error: {data}: not UTF-8 text" in capsys.readouterr().err

    def test_data_directory_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "s.json")
        assert main(["split", "--data", str(tmp_path), "--r", "0.5", "--out", out]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSynthCommand:
    """python -m snoic.synth: 0 ok, 1 when the files cannot be written, 2 on bad usage."""

    BAD_COUNTS = [("--seed", "-1"), ("--train-per-class", "-3"), ("--train-per-class", "0"),
                  ("--val-per-class", "0"), ("--test-per-class", "0")]

    @pytest.mark.parametrize("flag,value", BAD_COUNTS)
    def test_bad_count_exits_2_and_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "corpus"
        assert synth.main(["--out", str(out), flag, value]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", BAD_COUNTS)
    def test_write_corpus_rejects_the_same_counts(self, tmp_path, flag, value):
        with pytest.raises(ConfigError):
            write_corpus(str(tmp_path), **{flag[2:].replace("-", "_"): int(value)})

    def test_out_below_a_regular_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert synth.main(["--out", str(tmp_path / "file" / "corpus")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_module_run_writes_the_library_files(self, tmp_path):
        counts = {"train_per_class": 12, "val_per_class": 5, "test_per_class": 7}
        expected = write_corpus(str(tmp_path / "lib"), seed=3, **counts)
        flags = [arg for key, n in counts.items() for arg in ("--" + key.replace("_", "-"), str(n))]
        src = str(Path(synth.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "snoic.synth", "--out", str(tmp_path / "cli"), "--seed", "3", *flags],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        for role, path in expected.items():
            assert (tmp_path / "cli" / f"{role}.jsonl").read_bytes() == Path(path).read_bytes()


class TestConfigValidation:
    def minimal(self, cli_env):
        return {"data": dict(cli_env.config["data"])}

    def test_unknown_top_level_key(self, cli_env):
        raw = self.minimal(cli_env)
        raw["zz"] = 1
        with pytest.raises(ConfigError, match=r"config: unknown keys \['zz'\]"):
            normalize_experiment_config(raw)

    def test_unknown_nested_keys_report_their_path(self, cli_env):
        # no setting is a boolean: attention is always on, and an ablation is its magnitude at 0
        retired = [("encoder", "attention", True), *(("train", name, True) for name in ABLATIONS)]
        for section, key, value in [("vocab", "zz", 1), ("encoder", "zz", 1), ("train", "zz", 1), *retired]:
            raw = self.minimal(cli_env)
            raw[section] = {key: value}
            with pytest.raises(ConfigError, match=re.escape(f"config.{section}: unknown keys ['{key}']")):
                normalize_experiment_config(raw)

    def test_missing_train_path(self, cli_env):
        raw = {"data": {"val": cli_env.config["data"]["val"], "test": cli_env.config["data"]["test"]}}
        with pytest.raises(ConfigError, match=r"config.data.train: missing"):
            normalize_experiment_config(raw)

    def test_type_errors(self, cli_env):
        raw = self.minimal(cli_env)
        raw["train"] = {"lr": "fast"}
        with pytest.raises(ConfigError, match=r"^config\.train\.lr must be a number, got 'fast'$"):
            normalize_experiment_config(raw)
        raw = self.minimal(cli_env)
        raw["encoder"] = {"max_len": "yes"}
        with pytest.raises(ConfigError, match=r"^config\.encoder\.max_len must be an integer, got 'yes'$"):
            normalize_experiment_config(raw)

    def test_ratio_bounds(self, cli_env):
        raw = self.minimal(cli_env)
        raw["r"] = 1.0
        with pytest.raises(ConfigError, match=r"^config\.r must be in \(0, 1\), got 1\.0$"):
            normalize_experiment_config(raw)
        raw = self.minimal(cli_env)
        raw["labeled_data_ratio"] = 0.0
        with pytest.raises(ConfigError, match=r"^config\.labeled_data_ratio must be in \(0, 1\], got 0\.0$"):
            normalize_experiment_config(raw)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("seed", True, "config.seed must be an integer, got True"),
            ("seed", 1.5, "config.seed must be an integer, got 1.5"),
            ("r", "0.5", "config.r must be a number, got '0.5'"),
            ("r", False, "config.r must be a number, got False"),
            ("labeled_data_ratio", None, "config.labeled_data_ratio must be a number, got None"),
            ("labeled_data_ratio", True, "config.labeled_data_ratio must be a number, got True"),
        ],
    )
    def test_top_level_values_are_checked_by_their_owners(self, cli_env, key, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            normalize_experiment_config({**self.minimal(cli_env), key: value})

    @pytest.mark.parametrize("section, key", [("train", "lr"), (None, "r"), (None, "labeled_data_ratio")])
    def test_huge_integer_in_a_float_setting_exits_2(self, cli_env, pipeline, tmp_path, capsys, section, key):
        """An integer too large for a float is not finite: it used to end
        in a raw OverflowError, not a configuration error."""
        cfg = json.loads(json.dumps(cli_env.config))
        (cfg[section] if section else cfg)[key] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        assert main(["pretrain", "--config", str(path), "--split", pipeline.split, "--out", str(tmp_path / "m")]) == 2
        dotted = f"config.{section}.{key}" if section else f"config.{key}"
        assert capsys.readouterr().err == f"error: {dotted} must be finite, got inf\n"

    def test_normalization_is_idempotent(self, cli_env):
        for raw in (self.minimal(cli_env), dict(cli_env.config)):
            norm = normalize_experiment_config(raw)
            assert normalize_experiment_config(norm) == norm

    def test_defaults_are_filled(self, cli_env):
        norm = normalize_experiment_config(self.minimal(cli_env))
        assert norm["seed"] == 0
        assert norm["r"] is None
        assert norm["labeled_data_ratio"] == 1.0
        assert norm["vocab"] == {"min_freq": 1, "max_size": 50000}
        assert norm["train"]["rho"] == 0.3
        assert (norm["train"]["alpha"], norm["train"]["delta_add"], norm["train"]["delta_mul"]) == (2.0, 0.4, 0.2)
        assert norm["name"] == "train"  # stem of the train file

    def test_encoder_section_comes_from_the_config_dataclass(self, cli_env):
        norm = normalize_experiment_config(self.minimal(cli_env))
        assert norm["encoder"] == {f.name: f.default for f in fields(EncoderConfig) if f.name != "vocab_size"}
        raw = self.minimal(cli_env)
        raw["encoder"] = {"hidden": True}
        with pytest.raises(ConfigError, match=r"^config\.encoder\.hidden must be an integer, got True$"):
            normalize_experiment_config(raw)

    def test_vocab_section_comes_from_build_vocab(self, cli_env):
        """A config without ``vocab`` gets exactly build_vocab's own defaults."""
        defaults = {
            name: par.default
            for name, par in inspect.signature(build_vocab).parameters.items()
            if par.default is not inspect.Parameter.empty
        }
        assert normalize_experiment_config(self.minimal(cli_env))["vocab"] == defaults
        raw = self.minimal(cli_env)
        raw["vocab"] = {"min_freq": True}
        with pytest.raises(ConfigError, match=r"^config\.vocab\.min_freq must be an integer, got True$"):
            normalize_experiment_config(raw)

    def test_seed_env_override(self, cli_env, monkeypatch):
        monkeypatch.setenv("SNOIC_SEED", "9")
        assert normalize_experiment_config(self.minimal(cli_env))["seed"] == 9
        monkeypatch.setenv("SNOIC_SEED", "abc")
        with pytest.raises(ConfigError, match="SNOIC_SEED"):
            normalize_experiment_config(self.minimal(cli_env))

    @pytest.mark.parametrize(
        "section, key, value",
        [("encoder", "hidden", 0), ("encoder", "max_len", 1), ("vocab", "min_freq", 0), ("vocab", "max_size", 2)],
    )
    def test_out_of_range_value_exits_2(self, cli_env, pipeline, tmp_path, capsys, section, key, value):
        cfg = json.loads(json.dumps(cli_env.config))
        cfg[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["pretrain", "--config", str(path), "--split", pipeline.split, "--out", str(tmp_path / "m")]) == 2
        assert f"error: config.{section}.{key} must be >= " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    @pytest.mark.parametrize(
        "key, value",
        [("lr", "NaN"), ("weight_decay", "Infinity"), ("alpha", "Infinity"), ("delta_add", "NaN"), ("delta_mul", "-Infinity")],
    )
    def test_non_finite_train_value_exits_2(self, cli_env, pipeline, tmp_path, capsys, command, key, value):
        cfg = json.loads(json.dumps(cli_env.config))
        cfg["train"][key] = float(value.lower())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert value in path.read_text()
        args = [command, "--config", str(path), "--split", pipeline.split, "--out", str(tmp_path / "m")]
        if command == "train":
            args += ["--init", pipeline.pre]
        assert main(args) == 2
        assert f"error: config.train.{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("lr", -1, "lr must be >= 0, got -1.0"),
            ("delta_mul", -0.5, "delta_mul must be >= 0, got -0.5"),
            ("rho", 1.0, "rho must be in [0, 1)"),
            ("batch_size", 0, "batch_size must be >= 1, got 0"),
        ],
    )
    def test_out_of_range_train_value_exits_2(self, cli_env, pipeline, tmp_path, capsys, command, key, value, message):
        cfg = json.loads(json.dumps(cli_env.config))
        cfg["train"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        args = [command, "--config", str(path), "--split", pipeline.split, "--out", str(tmp_path / "m")]
        if command == "train":
            args += ["--init", pipeline.pre]
        assert main(args) == 2
        assert f"error: config.train.{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lr", "weight_decay", "rho", "alpha", "gamma", "delta_add", "delta_mul"])
    def test_boolean_train_value_exits_2(self, cli_env, pipeline, tmp_path, capsys, key):
        """TrainConfig rejects a JSON true in a float key of config.train
        when the config is loaded, and the error names the key's path."""
        cfg = json.loads(json.dumps(cli_env.config))
        cfg["train"][key] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert f'"{key}": true' in path.read_text()
        assert main(["pretrain", "--config", str(path), "--split", pipeline.split, "--out", str(tmp_path / "m")]) == 2
        assert f"error: config.train.{key} must be a number, got True\n" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_train_range_errors_name_their_path(self, cli_env, value):
        """TrainConfig checks config.train when the config is loaded, as
        EncoderConfig and build_vocab check their sections."""
        with pytest.raises(ConfigError, match=r"^config\.train\.lr must be "):
            normalize_experiment_config({**cli_env.config, "train": {**cli_env.config["train"], "lr": value}})

    def test_negative_seed_names_its_source(self, cli_env, monkeypatch):
        with pytest.raises(ConfigError, match=r"^config\.seed must be >= 0, got -1$"):
            normalize_experiment_config({**cli_env.config, "seed": -1})
        monkeypatch.setenv("SNOIC_SEED", "-2")
        with pytest.raises(ConfigError, match=r"^SNOIC_SEED must be >= 0, got -2$"):
            normalize_experiment_config(cli_env.config)

    def test_readme_example_matches_the_dataclasses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        raw = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        normalize_experiment_config(raw)
        assert set(raw["encoder"]) == {f.name for f in fields(EncoderConfig)} - {"vocab_size"}
        assert set(raw["train"]) == {f.name for f in fields(TrainConfig)} - {"seed"}

    @pytest.mark.parametrize(
        "magnitude, toggle",
        [
            ("rho", "disable_soft_labeling"),
            ("delta_add", "disable_additive_noise"),
            ("delta_mul", "disable_multiplicative_noise"),
        ],
        ids=["rho", "delta_add", "delta_mul"],
    )
    def test_ablation_zeroes_exactly_its_magnitude(self, cli_env, magnitude, toggle):
        norm = normalize_experiment_config(cli_env.config)
        base, ablated = asdict(train_config_from(norm)), asdict(train_config_from(with_ablations(norm, [toggle])))
        assert base[magnitude] > 0.0 and ablated[magnitude] == 0.0
        assert {k: v for k, v in ablated.items() if k != magnitude} == {k: v for k, v in base.items() if k != magnitude}

    def test_malformed_config_file_exits_2(self, cli_env, pipeline, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["pretrain", "--config", str(bad), "--split", pipeline.split, "--out", str(tmp_path / "m")]) == 2

    def test_missing_config_file_exits_2(self, pipeline, tmp_path):
        args = ["pretrain", "--config", str(tmp_path / "none.json"), "--split", pipeline.split, "--out", str(tmp_path / "m")]
        assert main(args) == 2

    def test_integer_past_the_digit_limit_exits_2(self, cli_env, pipeline, tmp_path, capsys):
        """json.loads raises a plain ValueError, not a JSONDecodeError, for an
        integer of more than 4300 digits; it used to end in a traceback."""
        bad = tmp_path / "digits.json"
        bad.write_text(json.dumps(cli_env.config).replace('"seed": 3', '"seed": 1' + "0" * 5000))
        args = ["pretrain", "--config", str(bad), "--split", pipeline.split, "--out", str(tmp_path / "m")]
        assert main(args) == 2
        assert f"error: {bad}: malformed config file: Exceeds the limit" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_exits_2(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        args = ["pretrain", "--config", str(bad), "--split", pipeline.split, "--out", str(tmp_path / "m")]
        assert main(args) == 2
        assert f"error: {bad}: malformed config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_config_path_that_is_a_directory_exits_2(self, pipeline, tmp_path, capsys, command):
        # an OSError other than a missing file, like an unreadable one
        args = [command, "--config", str(tmp_path), "--split", pipeline.split, "--out", str(tmp_path / "m")]
        if command == "train":
            args += ["--init", pipeline.pre]
        assert main(args) == 2
        assert f"error: {tmp_path}: cannot read config file" in capsys.readouterr().err


class TestPretrainCommand:
    def test_artifacts_and_meta(self, cli_env, pipeline):
        for name in ("model.ckpt", "vocab.json", "meta.json", "train_log.jsonl"):
            assert os.path.exists(os.path.join(pipeline.pre, name))
        meta = read_json(os.path.join(pipeline.pre, "meta.json"))
        assert meta["stage"] == "pretrain"
        assert meta["variant"] == "SNOiC"
        assert meta["seed"] == 3
        assert meta["M"] == 4
        assert meta["r"] == 0.5
        assert meta["train_examples"] == 120  # 4 known classes x 30
        assert meta["val_examples"] == 40
        assert meta["config"] == normalize_experiment_config(cli_env.config)
        lines = open(os.path.join(pipeline.pre, "train_log.jsonl")).read().splitlines()
        assert len(lines) == 2
        assert all(json.loads(ln)["stage"] == "pretrain" for ln in lines)

    def test_seed_env_override_reaches_meta(self, cli_env, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOIC_SEED", "9")
        out = str(tmp_path / "m9")
        assert main(["pretrain", "--config", cli_env.config_path, "--split", pipeline.split, "--out", out]) == 0
        assert read_json(os.path.join(out, "meta.json"))["seed"] == 9

    def test_labeled_data_ratio_subsamples_train(self, cli_env, pipeline, tmp_path):
        cfg = dict(cli_env.config)
        cfg["labeled_data_ratio"] = 0.5
        path = tmp_path / "half.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "mhalf")
        assert main(["pretrain", "--config", str(path), "--split", pipeline.split, "--out", out]) == 0
        meta = read_json(os.path.join(out, "meta.json"))
        assert meta["train_examples"] == 60  # ceil(30 * 0.5) per known class
        assert meta["val_examples"] == 40

    def test_config_split_mismatch_exits_2(self, cli_env, pipeline, tmp_path, capsys):
        cfg = dict(cli_env.config)
        cfg["r"] = 0.25
        path = tmp_path / "r25.json"
        path.write_text(json.dumps(cfg))
        assert main(["pretrain", "--config", str(path), "--split", pipeline.split, "--out", str(tmp_path / "m")]) == 2
        assert "does not match split file" in capsys.readouterr().err

    def test_missing_out_dir_exits_2(self, cli_env, pipeline):
        assert main(["pretrain", "--config", cli_env.config_path, "--split", pipeline.split]) == 2


class TestTrainCommand:
    def test_meta_marks_stage_and_variant(self, pipeline):
        meta = read_json(os.path.join(pipeline.open, "meta.json"))
        assert meta["stage"] == "train"
        assert meta["variant"] == "SNOiC"
        lines = open(os.path.join(pipeline.open, "train_log.jsonl")).read().splitlines()
        assert all(json.loads(ln)["stage"] == "open" for ln in lines)

    def test_ablation_changes_variant_name(self, cli_env, pipeline, tmp_path):
        """Each ablation names its variant, and the config the model
        directory echoes trains the same TrainConfig, ablation included."""
        for ablation, variant in zip(ABLATIONS, ("SNOiC-SL", "SNOiC-AN", "SNOiC-MN")):
            out = str(tmp_path / ablation)
            args = [
                "train", "--config", cli_env.config_path, "--split", pipeline.split,
                "--init", pipeline.pre, "--out", out, "--ablation", ablation,
            ]
            assert main(args) == 0
            meta = read_json(os.path.join(out, "meta.json"))
            trained = train_config_from(with_ablations(normalize_experiment_config(cli_env.config), [ablation]))
            assert meta["variant"] == variant and getattr(trained, ABLATIONS[ablation]) == 0.0
            assert train_config_from(normalize_experiment_config(meta["config"])) == trained

    def test_zero_rho_is_the_soft_label_ablation(self, cli_env, pipeline, tmp_path):
        cfg = json.loads(json.dumps(cli_env.config))
        cfg["train"]["rho"] = 0
        path = tmp_path / "rho0.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "mrho0")
        args = ["train", "--config", str(path), "--split", pipeline.split, "--init", pipeline.pre, "--out", out]
        assert main(args) == 0
        assert read_json(os.path.join(out, "meta.json"))["variant"] == "SNOiC-SL"

    def test_unknown_ablation_exits_2(self, cli_env, pipeline, tmp_path):
        args = [
            "train", "--config", cli_env.config_path, "--split", pipeline.split,
            "--init", pipeline.pre, "--out", str(tmp_path / "m"), "--ablation", "disable_dropout",
        ]
        assert main(args) == 2

    def test_encoder_section_unlike_the_init_checkpoint_exits_2(self, cli_env, pipeline, tmp_path, capsys):
        cfg = json.loads(json.dumps(cli_env.config))
        cfg["encoder"].update(hidden=32, num_layers=3)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "m"
        args = ["train", "--config", str(path), "--split", pipeline.split, "--init", pipeline.pre, "--out", str(out)]
        assert main(args) == 2
        assert "error: config.encoder.hidden is 32, the init checkpoint's is 16" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_section_unlike_the_init_model_exits_2(self, cli_env, pipeline, tmp_path, capsys):
        """The vocabulary comes from --init, so a config.vocab other than the
        one its meta.json records is refused, not echoed into the new one."""
        cfg = json.loads(json.dumps(cli_env.config))
        cfg["vocab"].update(min_freq=7, max_size=30)
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "m"
        args = ["train", "--config", str(path), "--split", pipeline.split, "--init", pipeline.pre, "--out", str(out)]
        assert main(args) == 2
        assert "error: config.vocab.min_freq is 7, the init model's is 2" in capsys.readouterr().err
        assert not out.exists()

    def test_init_vocabulary_unlike_the_checkpoint_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        broken = str(tmp_path / "broken_model")
        shutil.copytree(pipeline.pre, broken)
        vpath = os.path.join(broken, "vocab.json")
        obj = read_json(vpath)
        obj["tokens"] = obj["tokens"][:20]
        with open(vpath, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        out = tmp_path / "m"
        args = ["train", "--config", cli_env.config_path, "--split", pipeline.split, "--init", broken, "--out", str(out)]
        assert main(args) == 1
        assert "stored vocabulary has 20" in capsys.readouterr().err
        assert not out.exists()

    def test_head_width_mismatch_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        narrow = str(tmp_path / "narrow.json")
        assert main(["split", "--data", cli_env.paths["train"], "--r", "0.25", "--seed", "3", "--out", narrow]) == 0
        cfg = dict(cli_env.config)
        del cfg["r"]  # avoid the consistency error; probe the checkpoint check
        path = tmp_path / "nor.json"
        path.write_text(json.dumps(cfg))
        args = [
            "train", "--config", str(path), "--split", narrow,
            "--init", pipeline.pre, "--out", str(tmp_path / "m"),
        ]
        assert main(args) == 1
        assert "head width" in capsys.readouterr().err


class TestEvalCommand:
    def test_report_contents(self, cli_env, pipeline):
        rep = read_json(pipeline.report)
        assert rep["dataset"] == "toy"
        assert rep["variant"] == "SNOiC"
        assert rep["seed"] == 3
        assert rep["threshold"] == 0.5
        assert rep["test_examples"] == 80
        assert rep["split"]["num_known"] == 4
        assert rep["split"]["r"] == 0.5
        assert sorted(rep["split"]["known"] + rep["split"]["open"]) == sorted(
            load_dataset(cli_env.paths["train"]).label_set
        )
        assert rep["config"] == normalize_experiment_config(cli_env.config)
        for section in ("snoic", "baseline"):
            for key in ("accuracy", "f1_all", "f1_known", "f1_open", "per_class", "M", "count"):
                assert key in rep[section]
        assert rep["wall_clock_sec"] >= 0

    def test_rerun_is_identical_up_to_wall_clock(self, cli_env, pipeline, tmp_path):
        again = str(tmp_path / "again.json")
        args = ["eval", "--model", pipeline.open, "--split", pipeline.split, "--test", cli_env.paths["test"], "--out", again]
        assert main(args) == 0
        a, b = read_json(pipeline.report), read_json(again)
        a.pop("wall_clock_sec"), b.pop("wall_clock_sec")
        assert a == b

    def test_zero_threshold_baseline_never_rejects(self, cli_env, pipeline, tmp_path):
        out = str(tmp_path / "t0.json")
        args = [
            "eval", "--model", pipeline.open, "--split", pipeline.split,
            "--test", cli_env.paths["test"], "--threshold", "0", "--out", out,
        ]
        assert main(args) == 0
        rep = read_json(out)
        assert rep["baseline"]["f1_open"] == 0.0

    def test_threshold_out_of_range_exits_2(self, cli_env, pipeline, tmp_path, capsys):
        args = [
            "eval", "--model", pipeline.open, "--split", pipeline.split,
            "--test", cli_env.paths["test"], "--threshold", "1.5", "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: --threshold must be in [0, 1], got 1.5\n"

    def test_split_mismatch_exits_1(self, cli_env, pipeline, tmp_path):
        narrow = str(tmp_path / "narrow.json")
        assert main(["split", "--data", cli_env.paths["train"], "--r", "0.25", "--seed", "3", "--out", narrow]) == 0
        args = [
            "eval", "--model", pipeline.open, "--split", narrow,
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1

    def test_tampered_vocabulary_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        broken = str(tmp_path / "broken_model")
        shutil.copytree(pipeline.open, broken)
        vpath = os.path.join(broken, "vocab.json")
        obj = read_json(vpath)
        obj["tokens"].append("stowaway")
        with open(vpath, "w", encoding="utf-8") as f:
            json.dump(obj, f)
        args = [
            "eval", "--model", broken, "--split", pipeline.split,
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1
        assert "vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["{not json", "[1, 2]"], ids=["malformed", "not_an_object"])
    def test_malformed_meta_exits_1(self, cli_env, pipeline, tmp_path, capsys, content):
        broken = str(tmp_path / "broken_model")
        shutil.copytree(pipeline.open, broken)
        meta = os.path.join(broken, "meta.json")
        with open(meta, "w", encoding="utf-8") as f:
            f.write(content)
        args = [
            "eval", "--model", broken, "--split", pipeline.split,
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1
        assert f"error: {meta}: " in capsys.readouterr().err

    def test_wrongly_typed_checkpoint_header_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        broken = str(tmp_path / "broken_model")
        shutil.copytree(pipeline.open, broken)
        ckpt = os.path.join(broken, "model.ckpt")
        with open(ckpt, "rb") as f:
            header, payload = f.read().split(b"\n", 1)
        doc = json.loads(header)
        doc["config"]["hidden"] = str(doc["config"]["hidden"])
        with open(ckpt, "wb") as f:
            f.write(json.dumps(doc).encode() + b"\n" + payload)
        args = [
            "eval", "--model", broken, "--split", pipeline.split,
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1
        assert f"error: {ckpt}: hidden must be an integer" in capsys.readouterr().err

    def test_checkpoint_header_that_is_not_an_object_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        broken = str(tmp_path / "broken_model")
        shutil.copytree(pipeline.pre, broken)
        ckpt = os.path.join(broken, "model.ckpt")
        with open(ckpt, "rb") as f:
            payload = f.read().split(b"\n", 1)[1]
        with open(ckpt, "wb") as f:
            f.write(b"null\n" + payload)
        out = tmp_path / "m"
        args = ["train", "--config", cli_env.config_path, "--split", pipeline.split, "--init", broken, "--out", str(out)]
        assert main(args) == 1
        assert f"error: {ckpt}: malformed header: expected a JSON object" in capsys.readouterr().err
        assert not out.exists()


    def test_malformed_split_file_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        bad = tmp_path / "split.json"
        bad.write_text('{"seed": 3, "r": 0.5,')
        args = [
            "eval", "--model", pipeline.open, "--split", str(bad),
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1
        assert "malformed split file" in capsys.readouterr().err

    def test_overlapping_split_file_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        spec = read_json(pipeline.split)
        spec["open"].append(spec["known"][0])
        bad = tmp_path / "split.json"
        bad.write_text(json.dumps(spec))
        args = [
            "eval", "--model", pipeline.open, "--split", str(bad),
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1
        assert "listed twice" in capsys.readouterr().err

    def test_malformed_vocabulary_exits_1(self, cli_env, pipeline, tmp_path, capsys):
        broken = str(tmp_path / "broken_model")
        shutil.copytree(pipeline.open, broken)
        with open(os.path.join(broken, "vocab.json"), "w", encoding="utf-8") as f:
            f.write('{"tokens": ["<pad>",')
        args = [
            "eval", "--model", broken, "--split", pipeline.split,
            "--test", cli_env.paths["test"], "--out", str(tmp_path / "x.json"),
        ]
        assert main(args) == 1
        assert "malformed vocabulary file" in capsys.readouterr().err


def fake_report(dataset, variant, thr, sn, base, r=0.5):
    def metrics(vals):
        acc, f1a, f1k, f1o = vals
        return {"accuracy": acc, "f1_all": f1a, "f1_known": f1k, "f1_open": f1o}

    return {
        "dataset": dataset, "variant": variant, "threshold": thr,
        "split": {"r": r}, "snoic": metrics(sn), "baseline": metrics(base),
    }


GOOD_REPORT = fake_report("toy", "SNOiC", 0.5, (0.5,) * 4, (0.5,) * 4)
MALFORMED_REPORTS = {
    "no-split-r": json.dumps({**GOOD_REPORT, "split": {}}).encode(),
    "no-baseline": json.dumps({k: v for k, v in GOOD_REPORT.items() if k != "baseline"}).encode(),
    "split-not-object": json.dumps({**GOOD_REPORT, "split": 3}).encode(),
    "dataset-not-string": json.dumps({**GOOD_REPORT, "dataset": None}).encode(),
    "not-utf8": b'{"dataset": "\xff\xfe"}',
}


class TestEnvironment:
    def test_model_dirs_and_report_name_the_environment(self, pipeline):
        env = environment()
        assert set(env) == {"numpy", "blas", "blas_version", "blas_threads"}
        assert env["numpy"] == np.__version__
        for doc in (
            read_json(os.path.join(pipeline.pre, "meta.json")),
            read_json(os.path.join(pipeline.open, "meta.json")),
            read_json(pipeline.report),
        ):
            assert doc["environment"] == env

    def test_pretrain_at_one_and_two_blas_threads(self, cli_env, pipeline, tmp_path):
        """Two seeded `snoic pretrain` runs, each in its own process: each
        meta.json names its own thread count (OpenBLAS caps it at the usable
        CPUs), and the two checkpoints are byte-equal."""
        src = str(Path(synth.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        ckpts = []
        for threads in (1, 2):
            out = str(tmp_path / f"threads{threads}")
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(threads)}
            env.pop("SNOIC_SEED", None)
            run = subprocess.run(
                [sys.executable, "-m", "snoic.cli", "pretrain", "--config", cli_env.config_path,
                 "--split", pipeline.split, "--out", out],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert run.returncode == 0, run.stderr
            recorded = read_json(os.path.join(out, "meta.json"))["environment"]["blas_threads"]
            assert recorded == min(threads, len(os.sched_getaffinity(0)))
            ckpts.append(Path(out, "model.ckpt").read_bytes())
        assert ckpts[0] == ckpts[1]


class TestReportCommand:
    def write_reports(self, tmp_path):
        reports = [
            fake_report("toy", "SNOiC", 0.5, (0.5, 0.4, 0.45, 0.2), (0.25, 0.2, 0.3, 0.1)),
            fake_report("toy", "SNOiC", 0.5, (0.7, 0.6, 0.65, 0.4), (0.25, 0.2, 0.3, 0.1)),
            fake_report("alpha", "SNOiC-SL", 0.25, (0.3, 0.3, 0.3, 0.3), (0.1, 0.1, 0.1, 0.1), r=0.3),
        ]
        for i, rep in enumerate(reports):
            (tmp_path / f"run{i}.json").write_text(json.dumps(rep))
        return str(tmp_path / "run*.json")

    def test_groups_and_percentages(self, tmp_path):
        pattern = self.write_reports(tmp_path)
        out = str(tmp_path / "table")
        assert main(["report", "--inputs", pattern, "--out", out]) == 0
        rows = read_json(out + ".json")
        assert [(r["dataset"], r["variant"]) for r in rows] == [
            ("alpha", "SNOiC-SL"), ("alpha", "threshold@0.25"),
            ("toy", "SNOiC"), ("toy", "threshold@0.5"),
        ]
        merged = next(r for r in rows if r["variant"] == "SNOiC")
        assert merged["runs"] == 2
        assert merged["accuracy"] == round(100.0 * ((0.5 + 0.7) / 2), 2)
        assert merged["f1_open"] == round(100.0 * ((0.2 + 0.4) / 2), 2)
        solo = next(r for r in rows if r["variant"] == "SNOiC-SL")
        assert solo["runs"] == 1 and solo["accuracy"] == 30.0 and solo["r"] == 0.3

    def test_csv_matches_json(self, tmp_path):
        pattern = self.write_reports(tmp_path)
        out = str(tmp_path / "table")
        assert main(["report", "--inputs", pattern, "--out", out]) == 0
        with open(out + ".csv", newline="") as f:
            csv_rows = list(csv.DictReader(f))
        json_rows = read_json(out + ".json")
        assert len(csv_rows) == len(json_rows) == 4
        for crow, jrow in zip(csv_rows, json_rows):
            assert crow["variant"] == jrow["variant"]
            assert float(crow["f1_open"]) == jrow["f1_open"]

    def test_no_matches_exits_1(self, tmp_path):
        assert main(["report", "--inputs", str(tmp_path / "zzz*.json"), "--out", str(tmp_path / "t")]) == 1

    @pytest.mark.parametrize("content", list(MALFORMED_REPORTS.values()), ids=list(MALFORMED_REPORTS))
    def test_malformed_report_exits_1(self, tmp_path, capsys, content):
        path = tmp_path / "run0.json"
        path.write_bytes(content)
        assert main(["report", "--inputs", str(tmp_path / "run*.json"), "--out", str(tmp_path / "t")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_non_report_file_exits_1(self, tmp_path, capsys):
        (tmp_path / "run0.json").write_text(json.dumps({"hello": 1}))
        assert main(["report", "--inputs", str(tmp_path / "run*.json"), "--out", str(tmp_path / "t")]) == 1
        assert "not a run report" in capsys.readouterr().err
