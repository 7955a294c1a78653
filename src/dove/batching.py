"""Train/validation splits and deterministic mini-batching.

The split shuffles image indices once per (seed); the per-epoch batch
order is a pure function of (seed, epoch).  Training batches drop a
trailing partial batch (a ranking loss over a single pair is vacuous).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .rng import RngStream, derive_seed


@dataclass
class Split:
    train_images: list[int]
    val_images: list[int]
    train_pairs: list[int]   # caption indices whose image is in train


def split_dataset(ds: Dataset, val_fraction: float, seed: int) -> Split:
    """Image-level split; captions follow their image.

    With val_fraction == 0 the validation split aliases the training
    split, which is exactly what an overfitting run wants to monitor.
    """
    n = ds.n_images
    order = RngStream(derive_seed(seed, "split")).permutation(n)
    n_val = int(round(n * val_fraction))
    if n_val >= n:
        n_val = n - 1
    val_images = sorted(int(i) for i in order[:n_val])
    train_images = sorted(int(i) for i in order[n_val:])
    if not val_images:
        val_images = list(train_images)
    return Split(train_images, val_images, ds.captions_of(train_images))


@dataclass
class Batch:
    msv: np.ndarray            # (B, n_m, d_in)
    roi: np.ndarray            # (B, n_r, d_r)
    captions: list[list[int]]  # token ids per pair
    image_ids: list[int]
    caption_ids: list[int]


def training_batches(ds: Dataset, pair_indices: list[int], batch_size: int,
                     seed: int, epoch: int) -> list[list[int]]:
    """Collision-free training batches for one epoch.

    Two captions of the same image are false negatives for a ranking
    loss -- the two hinge directions contradict each other and floor the
    loss at 2*alpha per collision, which no amount of training removes.
    So an epoch runs in rounds: every image contributes exactly one of
    its captions per round (a per-epoch permutation cycles through all
    of them), and batches are drawn over images.  Everything remains a
    pure function of (seed, epoch); trailing partial batches are
    dropped.
    """
    if batch_size < 2:
        raise ValueError("training batches need at least 2 pairs")
    by_image: dict[int, list[int]] = {}
    for k in pair_indices:
        by_image.setdefault(ds.captions[k].image_index, []).append(k)
    images = sorted(by_image)
    if len(images) < batch_size:
        raise ValueError(
            f"batch_size {batch_size} exceeds the {len(images)} training "
            f"images; same-image pairs cannot share a batch")
    rounds = max(len(v) for v in by_image.values())
    perms = {
        img: RngStream(derive_seed(seed, "caps", epoch, img)).permutation(
            len(by_image[img]))
        for img in images
    }
    batches = []
    for r in range(rounds):
        round_pairs = [by_image[img][int(perms[img][r % len(by_image[img])])]
                       for img in images]
        order = RngStream(derive_seed(seed, "batch", epoch, r)).permutation(
            len(images))
        shuffled = [round_pairs[int(i)] for i in order]
        n_full = len(shuffled) // batch_size
        batches.extend(shuffled[b * batch_size:(b + 1) * batch_size]
                       for b in range(n_full))
    return batches


def gather_batch(ds: Dataset, caption_indices: list[int]) -> Batch:
    image_ids = [ds.captions[k].image_index for k in caption_indices]
    return Batch(
        msv=ds.msv[image_ids],
        roi=ds.roi[image_ids],
        captions=[ds.captions[k].token_ids for k in caption_indices],
        image_ids=image_ids,
        caption_ids=list(caption_indices),
    )
