"""Deterministic training loop and the binary checkpoint container.

Checkpoints hold the config snapshot, feature widths, every parameter
(float64, little-endian), and the Adam state, all in a fixed order --
identical runs therefore produce byte-identical files.  The reader checks
the Adam section's length and never loads it.  The retained snapshot is
the one with the best validation mean recall; ties keep the latest epoch
(the most-trained parameters at that recall level).
"""
from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .batching import Split, gather_batch, split_dataset, training_batches
from .config import (ConfigError, TrainConfig, config_hash, config_to_text,
                     parse_config_text)
from .dataio import Dataset, atomic_write
from .evaluation import recall_block, similarity_matrix
from .model import Model
from .optimizer import AdamState, NumericAbort, adam_step, init_adam, lr_at
from .params import ParamSetError

CHECKPOINT_MAGIC = b"DOVECP01"


@dataclass
class EpochStats:
    epoch: int
    loss_total: float
    loss_final: float
    loss_global: float
    lr: float
    val_mr: float
    seconds: float


@dataclass
class TrainResult:
    checkpoint_path: str
    log_path: str
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_mr: float = -1.0


def _val_mr(model: Model, ds: Dataset, split: Split) -> float:
    sim = similarity_matrix(model, ds, split.val_images)
    return recall_block(sim)["mr"]


def train(cfg: TrainConfig, ds: Dataset, out_dir: str,
          progress=None) -> TrainResult:
    """Run the full loop; returns paths of the checkpoint and JSON log."""
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    split = split_dataset(ds, cfg.val_fraction, cfg.seed)
    if len(split.train_images) < cfg.batch_size:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds the {len(split.train_images)} "
            f"training images; no full batch can be formed")
    model = Model(cfg, ds.embedding)
    model.bind_feature_widths(ds.msv.shape[2], ds.roi.shape[2])
    state = init_adam(model.reg)

    result = TrainResult(
        checkpoint_path=os.path.join(out_dir, "checkpoint.bin"),
        log_path=os.path.join(out_dir, "train_log.json"),
    )
    best = None  # (val_mr, epoch, [parameters, Adam m, Adam v], Adam steps)
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        lr = lr_at(cfg.lr0, cfg.decay_factor, cfg.decay_every, epoch)
        batches = training_batches(ds, split.train_pairs, cfg.batch_size,
                                   cfg.seed, epoch)
        sum_total = sum_final = sum_global = 0.0
        for b, caption_ids in enumerate(batches):
            batch = gather_batch(ds, caption_ids)
            model.reg.zero_grad()
            try:
                total, loss_final, loss_global = model.batch_losses(batch)
            except ag.DegenerateVectorError as exc:
                raise NumericAbort(
                    f"epoch {epoch} batch {b}: degenerate code ({exc}; "
                    f"images={batch.image_ids}, captions={batch.caption_ids})"
                ) from exc
            if not np.isfinite(total.data[0]):
                raise NumericAbort(
                    f"epoch {epoch} batch {b}: non-finite loss "
                    f"(final={loss_final.data[0]!r}, global={loss_global.data[0]!r}, "
                    f"images={batch.image_ids})")
            total.backward()
            adam_step(model.reg, state, lr, parallel=model.parallel)
            sum_total += total.data[0]
            sum_final += loss_final.data[0]
            sum_global += loss_global.data[0]
        n = len(batches)
        val_mr = _val_mr(model, ds, split)
        stats = EpochStats(epoch, sum_total / n, sum_final / n, sum_global / n,
                           lr, val_mr, time.perf_counter() - started)
        result.epochs.append(stats)
        if progress is not None:
            progress(stats)
        if best is None or val_mr >= best[0]:
            live = ({name: t.data for name, t in model.reg.tensors().items()},
                    state.m, state.v)
            kept = best[2] if best else [  # allocated once: no two coexist
                {k: np.empty_like(a) for k, a in arrays.items()} for arrays in live]
            for copies, arrays in zip(kept, live):
                for k, a in arrays.items():
                    np.copyto(copies[k], a)
            best = (val_mr, epoch, kept, state.t)
    result.best_val_mr, result.best_epoch, (values, m, v), steps = best
    save_checkpoint(result.checkpoint_path, cfg, model.d_in, model.d_r,
                    values, AdamState(m=m, v=v, t=steps))
    with atomic_write(result.log_path) as fh:
        json.dump({
            "config_hash": config_hash(cfg),
            "best_epoch": result.best_epoch,
            "best_val_mr": result.best_val_mr,
            "checkpoint": os.path.basename(result.checkpoint_path),
            "epochs": [vars(e) for e in result.epochs],
        }, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return result


# -------------------------------------------------------------- checkpoint

def save_checkpoint(path: str, cfg: TrainConfig, d_in: int, d_r: int,
                    values: dict[str, np.ndarray], state: AdamState):
    config_text = config_to_text(cfg).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(config_text)))
        fh.write(config_text)
        fh.write(struct.pack("<II", d_in, d_r))
        fh.write(struct.pack("<I", len(values)))
        for name in values:  # insertion order == registration order
            arr = values[name]
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        fh.write(struct.pack("<Q", state.t))
        for name in values:
            fh.write(np.ascontiguousarray(state.m[name], dtype="<f8"))
            fh.write(np.ascontiguousarray(state.v[name], dtype="<f8"))


@dataclass
class Checkpoint:
    cfg: TrainConfig
    d_in: int
    d_r: int
    values: dict[str, np.ndarray]
    path: str


class CheckpointFormatError(ValueError):
    """Not a checkpoint, or a corrupt/unsupported one."""


def load_checkpoint(path: str) -> Checkpoint:
    """The config, feature widths and parameters of the checkpoint at ``path``.

    One sequential read of the header and the parameter records; each
    declared length is checked against the file size before it is read.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = 0

        def take(n: int) -> bytes:
            nonlocal off
            if off + n > size:
                raise CheckpointFormatError(f"{path}: truncated at byte {off}")
            off += n
            return fh.read(n)

        magic = take(8)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
        (config_len,) = struct.unpack("<I", take(4))
        try:
            cfg = parse_config_text(take(config_len).decode("utf-8")).validate()
        except (ConfigError, UnicodeDecodeError) as exc:
            raise CheckpointFormatError(f"{path}: bad config block: {exc}") from exc
        d_in, d_r = struct.unpack("<II", take(8))
        (n_params,) = struct.unpack("<I", take(4))
        values: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", take(2))
            try:
                name = take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointFormatError(
                    f"{path}: bad parameter name: {exc}") from exc
            if name in values:
                raise CheckpointFormatError(
                    f"{path}: repeated parameter name {name!r}")
            (ndim,) = struct.unpack("<B", take(1))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            values[name] = np.frombuffer(take(8 * math.prod(shape)),
                                         dtype="<f8").reshape(shape)
    # the Adam section: the step count, then m and v of every parameter
    end = off + 8 + 16 * sum(arr.size for arr in values.values())
    if end > size:
        raise CheckpointFormatError(f"{path}: truncated at byte {off}")
    if end < size:
        raise CheckpointFormatError(f"{path}: {size - end} trailing bytes")
    return Checkpoint(cfg, d_in, d_r, values, path)


def model_from_checkpoint(ckpt: Checkpoint, ds: Dataset) -> Model:
    """The checkpoint's model; ``ds`` must have the widths it trained on.

    Parameters whose names or shapes differ from those the checkpoint's
    own config registers make it a corrupt checkpoint.
    """
    widths = (ds.msv.shape[2], ds.roi.shape[2])
    if widths != (ckpt.d_in, ckpt.d_r):
        raise ValueError(f"feature widths changed: {widths} vs "
                         f"({ckpt.d_in}, {ckpt.d_r})")
    model = Model(ckpt.cfg, ds.embedding, values=ckpt.values)
    try:
        model.bind_feature_widths(*widths)
    except ParamSetError as exc:
        raise CheckpointFormatError(f"{ckpt.path}: {exc}") from exc
    return model
