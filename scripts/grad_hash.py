#!/usr/bin/env python3
"""One SHA-256 over 65 batches' gradients, one checkpoint and one report.

Each configuration builds a fresh model and runs one ``batch_losses``
forward and backward on one batch of a small synthetic corpus: d/B in
{64/8, 32/3}, times the four IFA x IGA head pairs, times the ablations
{none, no_iga, no_ifa, no_dtga}, times seeds {1, 2}, over 16 images.
One more, d/B 128/40 with both heads nonlinear over 40 images, has two
chunks of images and of captions at ``model.PARALLEL_MIN_WIDTH``, so its
encoders run their chunks on worker threads.  The digest covers
the three losses and every parameter gradient, by name, in registry
order.  That last model then takes one Adam step, and the digest adds
the bytes of its checkpoint and the JSON of its ``build_report`` over
all 40 images, with distances and a subset of every other image.  Two
trees that print the same digest compute the training step, write the
checkpoint and score the report bit for bit alike.

The digest differs between BLAS thread counts.  Importing ``dove``
first, before NumPy, sets the BLAS thread variables to 1; a variable
already set in the environment is kept.

    python3 scripts/grad_hash.py
"""
from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from dove.batching import gather_batch, training_batches  # noqa: E402
from dove.config import TrainConfig  # noqa: E402
from dove.dataio import load_dataset  # noqa: E402
from dove.evaluation import build_report  # noqa: E402
from dove.model import Model  # noqa: E402
from dove.optimizer import adam_step, init_adam  # noqa: E402
from dove.synth import synth_dataset, write_dataset  # noqa: E402
from dove.train import save_checkpoint  # noqa: E402

SHAPES = ((64, 8), (32, 3))
HEADS = ("linear", "nonlinear")
ABLATIONS = (None, "no_iga", "no_ifa", "no_dtga")
SEEDS = (1, 2)
WIDE = dict(d=128, b=40, ifa="nonlinear", iga="nonlinear", ablation=None,
            seed=1)


def corpus(n_images: int):
    with tempfile.TemporaryDirectory() as data_dir:
        write_dataset(synth_dataset(seed=1, n_images=n_images, n_clusters=4,
                                    d_in=64, d_r=32), data_dir)
        return load_dataset(data_dir)


def update(digest, ds, d, b, ifa, iga, ablation, seed) -> Model:
    """Add one configuration's losses and gradients to ``digest``."""
    cfg = TrainConfig(d=d, heads=2, batch_size=b, seed=seed,
                      ifa_head=ifa, iga_head=iga)
    if ablation:
        setattr(cfg, ablation, True)
    model = Model(cfg, ds.embedding)
    model.bind_feature_widths(ds.msv.shape[2], ds.roi.shape[2])
    pairs = ds.captions_of(range(ds.n_images))
    batch = gather_batch(ds, training_batches(ds, pairs, b, seed, 0)[0])
    losses = model.batch_losses(batch)
    losses[0].backward()
    for loss in losses:
        digest.update(loss.data.tobytes())
    for name, t in model.reg.tensors().items():
        digest.update(name.encode())
        digest.update(b"-" if t.grad is None else t.grad.tobytes())
    return model


def update_outputs(digest, ds, model):
    """Add the checkpoint after one Adam step, then the report, to ``digest``."""
    state = init_adam(model.reg)
    adam_step(model.reg, state, model.cfg.lr0)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "checkpoint.bin")
        save_checkpoint(path, model.cfg, model.d_in, model.d_r,
                        {n: t.data for n, t in model.reg.tensors().items()},
                        state)
        with open(path, "rb") as fh:
            digest.update(fh.read())
    images = list(range(ds.n_images))
    report = build_report(model, ds, images, "all", [("half", images[::2])],
                          with_distances=True)
    digest.update(report.to_json().encode())


def main() -> int:
    ds = corpus(16)
    digest = hashlib.sha256()
    runs = 0
    for (d, b), ifa, iga, ablation, seed in itertools.product(
            SHAPES, HEADS, HEADS, ABLATIONS, SEEDS):
        update(digest, ds, d, b, ifa, iga, ablation, seed)
        runs += 1
    wide = corpus(WIDE["b"])
    update_outputs(digest, wide, update(digest, wide, **WIDE))
    runs += 1
    print(f"{runs} configurations, a checkpoint and a report  "
          f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
