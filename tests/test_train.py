"""Training loop artifacts, checkpoint container, determinism."""
from __future__ import annotations

import copy
import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from dove import params
from dove import train as train_module
from dove.batching import split_dataset
from dove.config import TrainConfig, config_hash
from dove.evaluation import recall_block, similarity_matrix
from dove.model import Model
from dove.optimizer import AdamState, NumericAbort, init_adam, lr_at
from dove.train import (CheckpointFormatError, load_checkpoint,
                        model_from_checkpoint, save_checkpoint, train)

CFG = dict(d=8, heads=2, batch_size=2, epochs=3, seed=11, lr0=0.01,
           val_fraction=0.0)


@pytest.fixture(scope="module")
def run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    result = train(TrainConfig(**CFG), tiny_dataset, str(out))
    return result, out


def read_log(result):
    with open(result.log_path, encoding="utf-8") as fh:
        return json.load(fh)


def test_artifacts_are_written(run):
    result, out = run
    assert result.checkpoint_path == str(out / "checkpoint.bin")
    assert result.log_path == str(out / "train_log.json")
    assert os.path.exists(result.checkpoint_path)
    assert os.path.exists(result.log_path)


def test_log_schema(run):
    result, _ = run
    log = read_log(result)
    assert log["config_hash"] == config_hash(TrainConfig(**CFG))
    assert log["checkpoint"] == "checkpoint.bin"
    assert log["best_epoch"] == result.best_epoch
    assert log["best_val_mr"] == result.best_val_mr
    assert len(log["epochs"]) == CFG["epochs"]
    for i, row in enumerate(log["epochs"]):
        assert set(row) == {"epoch", "loss_total", "loss_final", "loss_global",
                            "lr", "val_mr", "seconds"}
        assert row["epoch"] == i
        assert row["lr"] == lr_at(CFG["lr0"], 0.7, 20, i)
        assert abs(row["loss_total"]
                   - (row["loss_final"] + 10.0 * row["loss_global"])) < 1e-9
        assert row["seconds"] >= 0.0


def test_best_epoch_is_last_argmax(run):
    result, _ = run
    marks = [row["val_mr"] for row in read_log(result)["epochs"]]
    top = max(marks)
    assert result.best_val_mr == top
    assert result.best_epoch == max(i for i, m in enumerate(marks) if m == top)


def test_snapshot_holds_the_best_epoch_not_the_last(tiny_dataset, tmp_path,
                                                    monkeypatch):
    # scripted recalls: the best is epoch 1 of 3, and a 2-epoch run ends on
    # it; a snapshot that aliased the live arrays would write epoch 2
    def trained(scores, name):
        script = iter(scores)
        monkeypatch.setattr(train_module, "_val_mr", lambda *a: next(script))
        result = train(TrainConfig(**dict(CFG, epochs=len(scores))),
                       tiny_dataset, str(tmp_path / name))
        assert result.best_epoch == 1
        blob = open(result.checkpoint_path, "rb").read()
        config_len = struct.unpack_from("<I", blob, 8)[0]
        return blob[12 + config_len:]  # the parameters and the Adam section

    assert trained([50.0, 70.0, 60.0], "three") == trained([50.0, 70.0], "two")


def test_checkpoint_round_trip(run, tiny_dataset):
    result, out = run
    # the DOVECP01 config block carries the retired threads line
    assert b"\nthreads = 1\n" in (out / "checkpoint.bin").read_bytes()
    ckpt = load_checkpoint(result.checkpoint_path)
    assert ckpt.cfg == TrainConfig(**CFG)
    assert ckpt.d_in == tiny_dataset.msv.shape[2]
    assert ckpt.d_r == tiny_dataset.roi.shape[2]

    # writing the loaded values back must reproduce the file byte for byte
    # up to the Adam section, which the reader does not load
    again = out / "again.bin"
    zeros = {name: np.zeros_like(arr) for name, arr in ckpt.values.items()}
    save_checkpoint(str(again), ckpt.cfg, ckpt.d_in, ckpt.d_r, ckpt.values,
                    AdamState(m=zeros, v=zeros))
    adam = 8 + 16 * sum(arr.size for arr in ckpt.values.values())
    original, written = (out / "checkpoint.bin").read_bytes(), again.read_bytes()
    assert len(written) == len(original)
    assert written[:-adam] == original[:-adam]


def test_a_failed_save_leaves_the_earlier_checkpoint(run, tmp_path):
    # the Adam section lacks a moment, so the writer raises after the
    # parameters are out: the earlier file stays, and no temporary file
    result, _ = run
    ckpt = load_checkpoint(result.checkpoint_path)
    path = tmp_path / "checkpoint.bin"
    zeros = {name: np.zeros_like(arr) for name, arr in ckpt.values.items()}
    save_checkpoint(str(path), ckpt.cfg, ckpt.d_in, ckpt.d_r, ckpt.values,
                    AdamState(m=zeros, v=zeros))
    before = path.read_bytes()
    values = {name: arr + 1.0 for name, arr in ckpt.values.items()}
    with pytest.raises(KeyError):
        save_checkpoint(str(path), ckpt.cfg, ckpt.d_in, ckpt.d_r, values,
                        AdamState(m=zeros, v={}))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["checkpoint.bin"]


def test_restored_model_reproduces_best_validation_score(run, tiny_dataset):
    result, _ = run
    ckpt = load_checkpoint(result.checkpoint_path)
    model = model_from_checkpoint(ckpt, tiny_dataset)
    split = split_dataset(tiny_dataset, ckpt.cfg.val_fraction, ckpt.cfg.seed)
    sim = similarity_matrix(model, tiny_dataset, split.val_images)
    assert recall_block(sim)["mr"] == result.best_val_mr


def test_identical_seeds_give_identical_artifacts(tiny_dataset, tmp_path):
    results = []
    for name in ("a", "b"):
        out = tmp_path / name
        results.append(train(TrainConfig(**CFG), tiny_dataset, str(out)))
    bytes_a = open(results[0].checkpoint_path, "rb").read()
    bytes_b = open(results[1].checkpoint_path, "rb").read()
    assert bytes_a == bytes_b

    logs = [read_log(r) for r in results]
    for log in logs:  # wall-clock is the one legitimately varying field
        for row in log["epochs"]:
            row.pop("seconds")
    assert logs[0] == logs[1]


def test_seed_changes_the_learned_weights(tiny_dataset, tmp_path):
    base = train(TrainConfig(**CFG), tiny_dataset, str(tmp_path / "s11"))
    other_cfg = dict(CFG, seed=12)
    other = train(TrainConfig(**other_cfg), tiny_dataset, str(tmp_path / "s12"))
    a = open(base.checkpoint_path, "rb").read()
    b = open(other.checkpoint_path, "rb").read()
    assert a != b


def test_validation_split_training(tiny_dataset, tmp_path):
    cfg = TrainConfig(**dict(CFG, epochs=2, val_fraction=1.0 / 3.0))
    result = train(cfg, tiny_dataset, str(tmp_path / "val"))
    split = split_dataset(tiny_dataset, cfg.val_fraction, cfg.seed)
    assert len(split.val_images) == 2
    ckpt = load_checkpoint(result.checkpoint_path)
    model = model_from_checkpoint(ckpt, tiny_dataset)
    sim = similarity_matrix(model, tiny_dataset, split.val_images)
    assert recall_block(sim)["mr"] == result.best_val_mr


def test_oversized_batch_is_rejected(tiny_dataset, tmp_path):
    cfg = TrainConfig(**dict(CFG, batch_size=100))
    with pytest.raises(ValueError, match="exceeds"):
        train(cfg, tiny_dataset, str(tmp_path / "big"))


def test_divergence_aborts_instead_of_logging_garbage(tiny_dataset, tmp_path):
    cfg = TrainConfig(**dict(CFG, lr0=1e150))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericAbort, match="non-finite loss"):
            train(cfg, tiny_dataset, str(tmp_path / "blowup"))


# ----------------------------------------------------------- corrupt files

def test_truncated_checkpoint_is_reported(run, tmp_path):
    result, _ = run
    blob = open(result.checkpoint_path, "rb").read()
    bad = tmp_path / "short.bin"
    bad.write_bytes(blob[:-5])
    with pytest.raises(CheckpointFormatError, match="truncated at byte"):
        load_checkpoint(str(bad))


def test_bad_magic_is_reported(run, tmp_path):
    result, _ = run
    blob = bytearray(open(result.checkpoint_path, "rb").read())
    blob[0] ^= 0xFF
    bad = tmp_path / "magic.bin"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        load_checkpoint(str(bad))


def test_trailing_bytes_are_reported(run, tmp_path):
    result, _ = run
    blob = open(result.checkpoint_path, "rb").read()
    bad = tmp_path / "long.bin"
    bad.write_bytes(blob + b"xx")
    with pytest.raises(CheckpointFormatError, match="trailing bytes"):
        load_checkpoint(str(bad))


def test_repeated_parameter_name_is_reported(run, tmp_path):
    result, _ = run
    blob = open(result.checkpoint_path, "rb").read()
    assert blob.count(b"visual.msv.adapter.") == 2
    bad = tmp_path / "repeated.bin"
    # same length, so every size prefix still holds
    bad.write_bytes(blob.replace(b"visual.msv.adapter.b",
                                 b"visual.msv.adapter.w"))
    with pytest.raises(CheckpointFormatError) as err:
        load_checkpoint(str(bad))
    assert str(err.value) == (f"{bad}: repeated parameter name "
                              f"'visual.msv.adapter.w'")


def test_checkpoint_values_are_copies(run, tiny_dataset):
    result, _ = run
    ckpt = load_checkpoint(result.checkpoint_path)
    stash = copy.deepcopy(ckpt.values)
    model = model_from_checkpoint(ckpt, tiny_dataset)
    for t in model.reg.tensors().values():
        t.data += 1.0
    for name, arr in ckpt.values.items():
        assert np.array_equal(arr, stash[name])


def test_loading_draws_no_initial_values(run, tiny_dataset, monkeypatch):
    result, _ = run
    ckpt = load_checkpoint(result.checkpoint_path)
    drawn = []
    real = params.init_values
    monkeypatch.setattr(params, "init_values",
                        lambda *args: drawn.append(args) or real(*args))
    model = model_from_checkpoint(ckpt, tiny_dataset)
    assert drawn == []
    # the tensors a fresh model would have been overwritten with, in order
    fresh = Model(ckpt.cfg, tiny_dataset.embedding)
    fresh.bind_feature_widths(ckpt.d_in, ckpt.d_r)
    assert drawn
    assert list(model.reg.tensors()) == list(fresh.reg.tensors())
    for name, t in model.reg.tensors().items():
        assert t.requires_grad and t.data.dtype == np.float64
        assert np.array_equal(t.data, ckpt.values[name])
        assert not np.shares_memory(t.data, ckpt.values[name])


@pytest.mark.parametrize("heads, digest", [
    ({}, "a6efe3f3b14f76e64a6694978fa8dcb73a8ab6eed2f57bff49689428b538b5a6"),
    ({"ifa_head": "nonlinear", "iga_head": "linear"},
     "51ea0133046e62e882af22b63cadd9a89b039cd2a961bae1e67b0e6fe82ce0ab"),
], ids=["default-heads", "swapped-heads"])
def test_fresh_checkpoint_bytes_are_pinned(tmp_path, heads, digest):
    # parameter names, registration order and initial values of a fresh
    # d=8 model fix every byte of its DOVECP01 file
    from dove.optimizer import init_adam

    cfg = TrainConfig(d=8, heads=2, seed=11, **heads)
    model = Model(cfg, np.zeros((3, 300)))
    model.bind_feature_widths(6, 4)
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(str(path), cfg, 6, 4,
                    {n: t.data for n, t in model.reg.tensors().items()},
                    init_adam(model.reg))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_saving_copies_no_parameter(tmp_path):
    # every float64 array goes to the file as it is held
    cfg = TrainConfig(d=128, heads=2, seed=11)
    model = Model(cfg, np.zeros((3, 300)))
    model.bind_feature_widths(48, 24)
    values = {n: t.data for n, t in model.reg.tensors().items()}
    state = init_adam(model.reg)
    tracemalloc.start()
    try:
        save_checkpoint(str(tmp_path / "checkpoint.bin"), cfg, 48, 24,
                        values, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < max(arr.nbytes for arr in values.values()) / 2


def test_loading_peaks_below_one_and_a_half_parameter_copies(tmp_path):
    # the Adam section (two thirds of the file) is never held in memory
    cfg = TrainConfig(d=64, heads=2, seed=11)
    model = Model(cfg, np.zeros((3, 300)))
    model.bind_feature_widths(48, 24)
    values = {n: t.data for n, t in model.reg.tensors().items()}
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(str(path), cfg, 48, 24, values, init_adam(model.reg))
    param_bytes = sum(arr.nbytes for arr in values.values())
    tracemalloc.start()
    try:
        ckpt = load_checkpoint(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(ckpt.values) == list(values)
    assert peak < 1.5 * param_bytes
