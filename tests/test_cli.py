"""End-to-end command-line flows, exit codes, output contracts."""
from __future__ import annotations

import dataclasses
import json
import re
import shutil
import struct

import numpy as np
import pytest

from dove import autograd as ag
from dove.cli import ABLATIONS, build_parser, main, resolve_config
from dove.config import FIELD_TYPES, TrainConfig, config_hash
from dove.dataio import (UNKNOWN_ID, load_dataset, load_embedding_table,
                         write_embedding_table, write_feature_bank)
from dove.model import Model
from dove.optimizer import init_adam
from dove.train import save_checkpoint

SYNTH = ["synth", "--seed", "9", "--images", "6", "--clusters", "2",
         "--n-m", "3", "--n-r", "4", "--d-in", "6", "--d-r", "4",
         "--len-min", "3", "--len-max", "5"]
TRAIN_FLAGS = ["--d", "8", "--heads", "2", "--batch-size", "2",
               "--epochs", "2", "--seed", "5", "--val-fraction", "0.0",
               "--lr0", "0.01"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset plus one trained checkpoint, shared."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    run = root / "run"
    assert main(SYNTH + ["--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run)]
                + TRAIN_FLAGS) == 0
    return data, run


def test_synth_reports_manifest(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(SYNTH + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == f"wrote 5 files to {out}"
    assert len(lines) == 6
    for line in lines[1:]:
        name, digest = line.split()
        assert (out / name).exists()
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert (out / "manifest.txt").read_text(encoding="utf-8").strip() == \
        "\n".join(lines[1:])


def test_synth_is_deterministic_across_directories(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(SYNTH + ["--out", str(a)]) == 0
    assert main(SYNTH + ["--out", str(b)]) == 0
    assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()


def test_synth_rejects_impossible_shapes(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path / "x"), "--seed", "1",
                 "--images", "1", "--clusters", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_train_stdout_contract(workspace, capsys, tmp_path):
    data, _ = workspace
    out = tmp_path / "run2"
    assert main(["train", "--data", str(data), "--out", str(out)]
                + TRAIN_FLAGS) == 0
    stdout = capsys.readouterr().out
    assert "epoch   0" in stdout and "epoch   1" in stdout
    assert re.search(r"best epoch \d+  val_mr=\d+\.\d\d", stdout)
    assert f"checkpoint {out / 'checkpoint.bin'}" in stdout
    expected = TrainConfig(d=8, heads=2, batch_size=2, epochs=2, seed=5,
                           val_fraction=0.0, lr0=0.01)
    assert f"config {config_hash(expected)}" in stdout


def test_flag_beats_config_file(workspace, tmp_path, capsys):
    data, _ = workspace
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("epochs = 2\nd = 8\nheads = 2\nbatch_size = 2\n"
                        "val_fraction = 0.0\nlr0 = 0.01\nseed = 5\n",
                        encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(cfg_file), "--epochs", "1"]) == 0
    log = json.loads((out / "train_log.json").read_text(encoding="utf-8"))
    assert len(log["epochs"]) == 1
    capsys.readouterr()


def test_unknown_config_key_is_a_usage_error(workspace, tmp_path, capsys):
    data, _ = workspace
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("epoochs = 2\n", encoding="utf-8")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                 "--config", str(cfg_file)])
    assert code == 2
    assert "epoochs" in capsys.readouterr().err


def test_config_asking_for_threads_is_a_usage_error(workspace, tmp_path,
                                                   capsys):
    data, _ = workspace
    cfg_file = tmp_path / "threads.cfg"
    cfg_file.write_text("epochs = 1\nthreads = 2\n", encoding="utf-8")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                 "--config", str(cfg_file)] + TRAIN_FLAGS)
    assert code == 2
    assert "'threads' is removed" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--lr0", "--lambda-g"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_non_finite_rate_is_a_usage_error(workspace, tmp_path, capsys,
                                                flag, value):
    data, _ = workspace
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(out)]
                + TRAIN_FLAGS + [flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_non_finite_config_is_a_format_error(workspace, tmp_path,
                                                        capsys):
    data, run = workspace
    blob = (run / "checkpoint.bin").read_bytes()
    assert blob.count(b"\nlr0 = 0.01\n") == 1
    bad = tmp_path / "nan.bin"
    # same length, so the config block keeps its size prefix
    bad.write_bytes(blob.replace(b"\nlr0 = 0.01\n", b"\nlr0 = nan \n"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "lr0 must be finite, got nan" in err


def test_repeated_config_key_is_rejected(workspace, tmp_path, capsys):
    # exit 2 in a --config file, exit 3 in a checkpoint's config block
    data, run = workspace
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("epochs = 3\nepochs = 5\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                 "--config", str(cfg_file)] + TRAIN_FLAGS) == 2
    assert "line 2: config key 'epochs' repeats line 1" in \
        capsys.readouterr().err
    blob = (run / "checkpoint.bin").read_bytes()
    assert blob.count(b"\nepochs = 2\n") == 1
    bad = tmp_path / "twice.bin"
    # same length, so the config block keeps its size prefix
    bad.write_bytes(blob.replace(b"\nthreads = 1\n", b"\nepochs =  2\n"))
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "config key 'epochs' repeats line 7" in err


def test_eval_bad_checkpoint_config_is_a_format_error(workspace, tmp_path,
                                                      capsys):
    data, run = workspace
    blob = (run / "checkpoint.bin").read_bytes()
    assert blob.count(b"\nthreads = 1\n") == 1
    bad = tmp_path / "bad-config.bin"
    bad.write_bytes(blob.replace(b"\nthreads = 1\n", b"\nthreads = 2\n"))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(bad), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and "'threads' is removed" in err


def _renamed(blob: bytes) -> bytes:
    # same length, so every size prefix still holds
    return blob.replace(b"ifa.w_m", b"ifa.w_x")


def _non_utf8_name(blob: bytes) -> bytes:
    return blob.replace(b"ifa.w_m", b"ifa.w_\xff")


def _with_shape(blob: bytes, dims: list[int]) -> bytes:
    # the shape field of the record named ifa.w_m, after its ndim byte
    at = blob.index(b"ifa.w_m") + len(b"ifa.w_m")
    assert blob[at] == len(dims)
    return (blob[:at + 1] + struct.pack(f"<{len(dims)}I", *dims)
            + blob[at + 1 + 4 * len(dims):])


def _overflowing_shape(blob: bytes) -> bytes:
    return _with_shape(blob, [2**32 - 1, 2**32 - 1])  # product > 2**63


def _zero_dimension(blob: bytes) -> bytes:
    return _with_shape(blob, [0, 8])


def _repeated_name(blob: bytes) -> bytes:
    return blob.replace(b"visual.msv.adapter.b", b"visual.msv.adapter.w")


@pytest.mark.parametrize("command, corrupt, message", [
    pytest.param(command, corrupt, message, id=f"{command}{suffix}")
    for command in ("eval", "distances")
    for corrupt, message, suffix in [
        (_renamed, "missing 'ifa.w_m'", ""),
        (_overflowing_shape, "truncated at byte", "-overflowing-shape"),
        (_zero_dimension, "bad parameter name", "-zero-dimension"),
        (_non_utf8_name, "bad parameter name", "-non-utf8-name"),
        (_repeated_name, "repeated parameter name 'visual.msv.adapter.w'",
         "-repeated-name"),
    ]])
def test_checkpoint_parameter_set_mismatch_is_a_format_error(
        workspace, tmp_path, capsys, command, corrupt, message):
    data, run = workspace
    blob = (run / "checkpoint.bin").read_bytes()
    assert blob.count(b"ifa.w_m") == 1
    bad = tmp_path / "corrupt.bin"
    bad.write_bytes(corrupt(blob))
    capsys.readouterr()
    assert main([command, "--checkpoint", str(bad), "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


def test_eval_writes_table_and_report(workspace, tmp_path, capsys):
    data, run = workspace
    report_path = tmp_path / "report.json"
    subset_file = tmp_path / "half.txt"
    subset_file.write_text("0\n1\n2\n", encoding="utf-8")
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data), "--split", "all",
                 "--subset", str(subset_file), "--out", str(report_path)]) == 0
    stdout = capsys.readouterr().out
    assert "split=all images=6 texts=30" in stdout
    assert "full" in stdout
    assert "subset[half.txt]" in stdout

    payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert payload["report_version"] == 1
    assert payload["n_images"] == 6 and payload["n_texts"] == 30
    assert set(payload["full"]) == {"r1_i2t", "r5_i2t", "r10_i2t",
                                    "r1_t2i", "r5_t2i", "r10_t2i", "mr"}
    assert payload["subsets"][0]["n_images"] == 3
    assert payload["subsets"][0]["source"] == "half.txt"
    assert payload["distances"]  # present unless --no-distances


def test_eval_bytes_do_not_depend_on_how_the_subset_path_is_spelled(
        workspace, tmp_path, monkeypatch, capsys):
    data, run = workspace
    (tmp_path / "half.txt").write_text("0\n1\n2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    outputs = []
    for spelled in ("half.txt", str(tmp_path / "half.txt")):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                     "--data", str(data), "--subset", spelled,
                     "--out", "report.json"]) == 0
        outputs.append((capsys.readouterr().out,
                        (tmp_path / "report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_subsets_sharing_a_base_name_are_a_usage_error(workspace, tmp_path,
                                                       capsys):
    data, run = workspace
    paths = [tmp_path / "a" / "half.txt", tmp_path / "b" / "half.txt"]
    for path in paths:
        path.parent.mkdir()
        path.write_text("0\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data), "--subset", str(paths[0]),
                 "--subset", str(paths[1])]) == 2
    captured = capsys.readouterr()
    assert "half.txt is given more than once" in captured.err
    assert captured.out == ""


def test_subset_without_captions_is_a_usage_error(workspace, tmp_path,
                                                  capsys):
    # image 5 keeps its features but loses its captions, so a subset of
    # that image alone has no texts to rank
    data, run = workspace
    trimmed = tmp_path / "data"
    shutil.copytree(data, trimmed)
    captions = trimmed / "captions.txt"
    lines = captions.read_text(encoding="utf-8").splitlines(keepends=True)
    captions.write_text("".join(l for l in lines if not l.startswith("5\t")),
                        encoding="utf-8")
    subset_file = tmp_path / "five.txt"
    subset_file.write_text("5\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(trimmed), "--split", "all",
                 "--subset", str(subset_file)]) == 2
    err = capsys.readouterr().err
    assert "the subset's images have no captions among the evaluated texts" \
        in err


def test_eval_can_skip_distances(workspace, tmp_path, capsys):
    data, run = workspace
    report_path = tmp_path / "r.json"
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data), "--no-distances",
                 "--out", str(report_path)]) == 0
    capsys.readouterr()
    assert json.loads(report_path.read_text(encoding="utf-8"))["distances"] is None


def test_eval_degenerate_caption_is_a_numeric_abort(tmp_path, capsys):
    # caption 3 becomes two unknown tokens whose embedding row is zero; a
    # freshly initialised model (zero biases) pools it to an exactly zero T_G
    data = tmp_path / "data"
    assert main(SYNTH + ["--out", str(data)]) == 0
    table = load_embedding_table(str(data / "embedding.fb"))
    table[UNKNOWN_ID] = 0.0
    write_embedding_table(str(data / "embedding.fb"), table)
    captions = data / "captions.txt"
    lines = captions.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].split("\t")[0] + "\tqqqq zzzz"
    captions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ds = load_dataset(str(data))
    assert ds.unknown_tokens == 2
    cfg = TrainConfig(d=8, heads=2, seed=5)
    model = Model(cfg, ds.embedding)
    model.bind_feature_widths(ds.msv.shape[2], ds.roi.shape[2])
    ckpt = str(tmp_path / "checkpoint.bin")
    save_checkpoint(ckpt, cfg, model.d_in, model.d_r,
                    {n: t.data for n, t in model.reg.tensors().items()},
                    init_adam(model.reg))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", ckpt, "--data", str(data)]) == 4
    err = capsys.readouterr().err
    assert "numeric abort: caption 3 has a near-zero embedding" in err


def test_train_degenerate_caption_is_a_numeric_abort(tmp_path, capsys):
    # every caption is unknown tokens whose embedding row is zero, so every
    # T_G pools to exactly zero in the first batch
    data = tmp_path / "data"
    assert main(SYNTH + ["--images", "8", "--out", str(data)]) == 0
    table = load_embedding_table(str(data / "embedding.fb"))
    table[UNKNOWN_ID] = 0.0
    write_embedding_table(str(data / "embedding.fb"), table)
    captions = data / "captions.txt"
    lines = [line.split("\t")[0] + "\tqqqq zzzz"
             for line in captions.read_text(encoding="utf-8").splitlines()]
    captions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o")]
                + TRAIN_FLAGS) == 4
    err = capsys.readouterr().err
    assert re.search(r"numeric abort: epoch 0 batch 0: degenerate code "
                     r"\(.*near-zero norm; images=\[\d+, \d+\], "
                     r"captions=\[\d+, \d+\]\)", err), err


def test_engine_shape_fault_is_an_internal_error(workspace, capsys,
                                                 monkeypatch):
    # DimensionError is a ValueError, but no input of the user's raises it
    def faulty(*args):
        raise ag.DimensionError("attention rows differ from the packing")

    data, run = workspace
    monkeypatch.setattr(ag, "gated_attention", faulty)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data)]) == 1
    assert capsys.readouterr().err == (
        "internal error: attention rows differ from the packing\n")


@pytest.mark.parametrize("command", ["eval", "distances"])
@pytest.mark.parametrize("flag,widths", [("--d-in", (5, 4)),
                                         ("--d-r", (6, 5))])
def test_dataset_of_other_feature_widths_is_a_usage_error(
        workspace, tmp_path, capsys, command, flag, widths):
    _, run = workspace
    other = tmp_path / "other"
    assert main(SYNTH + [flag, "5", "--out", str(other)]) == 0
    capsys.readouterr()
    assert main([command, "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(other)]) == 2
    assert f"feature widths changed: {widths} vs (6, 4)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("name,shape", [("msv.fb", (6, 3, 0)),
                                        ("roi.fb", (6, 0, 4)),
                                        ("embedding.fb", (0, 1, 300))])
def test_bank_with_a_zero_extent_is_an_io_error(
        workspace, tmp_path, capsys, command, name, shape):
    data, run = workspace
    other = tmp_path / "data"
    shutil.copytree(data, other)
    write_feature_bank(str(other / name), np.zeros(shape))
    args = (["--out", str(tmp_path / "o")] + TRAIN_FLAGS if command == "train"
            else ["--checkpoint", str(run / "checkpoint.bin")])
    capsys.readouterr()
    assert main([command, "--data", str(other)] + args) == 3
    assert f"error: {other / name}: header declares zero" in \
        capsys.readouterr().err


def test_distances_output(workspace, capsys):
    data, run = workspace
    assert main(["distances", "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = [line.split()[0] for line in lines]
    assert keys == sorted(["v_mr__t_rg", "v_m__t_g", "v_r__v_mr", "v_r__v_m",
                           "v_r__t_rg", "v_r__t_g"])
    for line in lines:
        assert re.search(r"mean=\d+\.\d{6} median=\d+\.\d{6} "
                         r"stddev=\d+\.\d{6} n=30", line)


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "0", "--max-coords", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.endswith("ok") for line in lines)
    assert any(line.startswith("autograd-primitives") for line in lines)


@pytest.mark.parametrize("max_coords", ["0", "-3"])
def test_gradcheck_that_would_check_nothing_is_a_usage_error(capsys,
                                                             max_coords):
    assert main(["gradcheck", "--max-coords", max_coords]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out
    assert f"max_coords must be at least 1, got {max_coords}" in captured.err


def test_inspect_command(workspace, capsys):
    data, _ = workspace
    assert main(["inspect", str(data / "msv.fb")]) == 0
    stdout = capsys.readouterr().out
    assert "samples 6  rows 3  cols 6  payload_floats 108" in stdout


def test_inspect_garbage_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "junk.fb"
    path.write_bytes(b"not a bank")
    assert main(["inspect", str(path)]) == 3
    assert "error:" in capsys.readouterr().err


def test_missing_checkpoint_is_an_io_error(workspace, tmp_path, capsys):
    data, _ = workspace
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--data", str(data)])
    assert code == 3
    capsys.readouterr()


def test_bad_flag_choice_exits_via_argparse(workspace, tmp_path, capsys):
    data, _ = workspace
    for flag in ("--dtga-inputs", "--iga-head"):
        with pytest.raises(SystemExit) as err:
            main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                  flag, "bf"])
        assert err.value.code == 2
        assert f"{flag}: invalid choice: 'bf'" in capsys.readouterr().err


def test_ablation_flags_reach_the_config(workspace, tmp_path, capsys):
    data, _ = workspace
    out = tmp_path / "ablate"
    assert main(["train", "--data", str(data), "--out", str(out)]
                + TRAIN_FLAGS + ["--ablate", "no_ifa", "--ablate", "no_iga",
                                 "--epochs", "1"]) == 0
    capsys.readouterr()
    expected = TrainConfig(d=8, heads=2, batch_size=2, epochs=1, seed=5,
                           val_fraction=0.0, lr0=0.01, no_ifa=True,
                           no_iga=True)
    log = json.loads((out / "train_log.json").read_text(encoding="utf-8"))
    assert log["config_hash"] == config_hash(expected)


# -------------------------------------------------- flags from TrainConfig

# a valid value other than the default for every non-bool field
FLAG_VALUES = {"d": "16", "alpha": "0.3", "lambda_g": "2.5", "lr0": "0.001",
               "decay_factor": "0.5", "decay_every": "3", "epochs": "7",
               "batch_size": "4", "heads": "4", "seed": "9",
               "dtga_inputs": "avg", "ifa_head": "nonlinear",
               "iga_head": "linear", "val_fraction": "0.5"}


def _train_args(*flags: str):
    return build_parser().parse_args(["train", "--data", "d", "--out", "o",
                                      *flags])


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TrainConfig)
                                 if FIELD_TYPES[f.name] is not bool])
def test_each_non_bool_key_is_a_flag(key):
    want = FIELD_TYPES[key](FLAG_VALUES[key])
    assert want != getattr(TrainConfig(), key)
    cfg = resolve_config(_train_args("--" + key.replace("_", "-"),
                                     FLAG_VALUES[key]))
    assert cfg == dataclasses.replace(TrainConfig(), **{key: want})


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(TrainConfig)
                                 if FIELD_TYPES[f.name] is bool])
def test_each_bool_key_is_an_ablate_choice(key):
    assert key in ABLATIONS
    cfg = resolve_config(_train_args("--ablate", key))
    assert cfg == dataclasses.replace(TrainConfig(), **{key: True})
