"""Config dataclass, file parsing, validation, and canonical hashing."""
from __future__ import annotations

import dataclasses
import math

import pytest

from dove.config import (ConfigError, TrainConfig, config_hash,
                         config_to_text, load_config_file, parse_config_text)


def test_defaults():
    cfg = TrainConfig()
    assert cfg.d == 512
    assert cfg.alpha == 0.2
    assert cfg.lambda_g == 10.0
    assert cfg.lr0 == 0.0002
    assert cfg.decay_factor == 0.7
    assert cfg.decay_every == 20
    assert cfg.epochs == 50
    assert cfg.batch_size == 100
    assert cfg.heads == 2
    assert cfg.dtga_inputs == "fb"
    assert (cfg.no_dtga, cfg.no_ifa, cfg.no_iga) == (False, False, False)
    assert cfg.ifa_head == "linear"
    assert cfg.iga_head == "nonlinear"
    cfg.validate()  # defaults must validate


def test_text_round_trip():
    cfg = TrainConfig(d=64, heads=4, lr0=0.003, no_ifa=True,
                      dtga_inputs="avg", val_fraction=0.0)
    assert parse_config_text(config_to_text(cfg)) == cfg


def test_parse_over_base_and_comments():
    text = "# comment line\n\nepochs = 3\nalpha = 0.3\n"
    cfg = parse_config_text(text)
    assert cfg.epochs == 3 and cfg.alpha == 0.3 and cfg.d == TrainConfig().d


def test_parse_booleans():
    for raw, expect in (("true", True), ("1", True), ("yes", True),
                        ("false", False), ("0", False), ("no", False)):
        assert parse_config_text(f"no_dtga = {raw}").no_dtga is expect
    with pytest.raises(ConfigError):
        parse_config_text("no_dtga = maybe")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("epochz = 3\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("epochs 3\n")
    with pytest.raises(ConfigError):
        parse_config_text("epochs = many\n")


@pytest.mark.parametrize("text,first,second", [
    ("epochs = 3\nepochs = 5\n", 1, 2),
    ("threads = 1\nd = 8\n\nthreads = 1\n", 1, 4),   # a retired line too
])
def test_parse_rejects_repeated_key(text, first, second):
    with pytest.raises(ConfigError,
                       match=f"line {second}: .* repeats line {first}$"):
        parse_config_text(text)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("d = 16\nheads = 2\n", encoding="utf-8")
    cfg = load_config_file(str(path))
    assert cfg.d == 16


@pytest.mark.parametrize("field,value", [
    ("d", 0), ("d", 7),                      # must be positive and even
    ("heads", 0), ("heads", 3),              # must divide d (512)
    ("alpha", 0.0), ("alpha", 1.0),
    ("lambda_g", -0.5),
    ("lr0", 0.0),
    ("decay_factor", 0.0), ("decay_factor", 1.5),
    ("decay_every", 0),
    ("epochs", 0),
    ("batch_size", 1),
    ("dtga_inputs", "xx"),
    ("ifa_head", "cubic"), ("iga_head", ""),
    ("val_fraction", 1.0), ("val_fraction", -0.1),
    ("lr0", math.nan), ("lr0", math.inf),
    ("lambda_g", math.nan), ("lambda_g", math.inf),
])
def test_validate_rejects(field, value):
    cfg = dataclasses.replace(TrainConfig(), **{field: value})
    with pytest.raises(ConfigError):
        cfg.validate()


def test_hash_is_stable_and_sensitive():
    h0 = config_hash(TrainConfig())
    assert h0 == config_hash(TrainConfig())
    assert len(h0) == 64 and set(h0) <= set("0123456789abcdef")
    assert config_hash(TrainConfig(d=64)) != h0
    assert config_hash(TrainConfig(no_iga=True)) != h0
    assert config_hash(TrainConfig(seed=7)) != h0


def test_default_text_is_the_dovecp01_config_block():
    # checkpoints embed this block byte for byte; the retired threads line
    # keeps its sorted place
    assert config_to_text(TrainConfig()) == (
        "alpha = 0.2\n"
        "batch_size = 100\n"
        "d = 512\n"
        "decay_every = 20\n"
        "decay_factor = 0.7\n"
        "dtga_inputs = fb\n"
        "epochs = 50\n"
        "heads = 2\n"
        "ifa_head = linear\n"
        "iga_head = nonlinear\n"
        "lambda_g = 10.0\n"
        "lr0 = 0.0002\n"
        "no_dtga = false\n"
        "no_ifa = false\n"
        "no_iga = false\n"
        "seed = 42\n"
        "threads = 1\n"
        "val_fraction = 0.2\n")


def test_default_hash_is_pinned():
    assert config_hash(TrainConfig()) == (
        "37b295638d306ff1f6673af432bf2769710f3c0af848000e087aa3dc9651bd7d")


def test_retired_threads_line_parses(tmp_path):
    assert parse_config_text("threads = 1\nepochs = 3\n") == TrainConfig(epochs=3)
    path = tmp_path / "run.cfg"
    path.write_text("threads = 1\n", encoding="utf-8")
    assert load_config_file(str(path)) == TrainConfig()


def test_retired_threads_rejects_any_other_value():
    for raw in ("2", "0", "one", ""):
        with pytest.raises(ConfigError, match="'threads' is removed"):
            parse_config_text(f"threads = {raw}\n")


def test_hash_distinguishes_every_ablation_mode():
    modes = [TrainConfig(),
             TrainConfig(dtga_inputs="ff"), TrainConfig(dtga_inputs="bb"),
             TrainConfig(dtga_inputs="avg"),
             TrainConfig(no_dtga=True), TrainConfig(no_ifa=True),
             TrainConfig(no_iga=True),
             TrainConfig(ifa_head="nonlinear"), TrainConfig(iga_head="linear")]
    hashes = [config_hash(m) for m in modes]
    assert len(set(hashes)) == len(modes)
