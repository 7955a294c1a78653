"""Splits and batch construction, including the collision-free scheme."""
from __future__ import annotations

import numpy as np
import pytest

from dove.batching import gather_batch, split_dataset, training_batches


def test_split_zero_fraction_aliases_train(tiny_dataset):
    split = split_dataset(tiny_dataset, 0.0, seed=1)
    assert split.train_images == split.val_images
    assert len(split.train_images) == tiny_dataset.n_images


def test_split_partitions_images(tiny_dataset):
    split = split_dataset(tiny_dataset, 1 / 3, seed=5)
    assert len(split.val_images) == 2
    assert len(split.train_images) == 4
    assert not set(split.train_images) & set(split.val_images)
    # the training pairs are every caption of a training image
    assert split.train_pairs == tiny_dataset.captions_of(split.train_images)


def test_split_deterministic(tiny_dataset):
    a = split_dataset(tiny_dataset, 0.5, seed=9)
    b = split_dataset(tiny_dataset, 0.5, seed=9)
    assert a == b
    c = split_dataset(tiny_dataset, 0.5, seed=10)
    assert a != c


def test_split_never_empties_training(tiny_dataset):
    split = split_dataset(tiny_dataset, 0.99, seed=0)
    assert len(split.train_images) >= 1


# -------------------------------------------------- collision-free batching

def test_training_batches_never_repeat_an_image(tiny_dataset):
    pairs = list(range(tiny_dataset.n_captions))
    for epoch in range(3):
        for batch in training_batches(tiny_dataset, pairs, 2, seed=4,
                                      epoch=epoch):
            owners = [tiny_dataset.captions[k].image_index for k in batch]
            assert len(set(owners)) == len(owners)


def test_training_batches_cover_every_caption_once(tiny_dataset):
    # 6 images divisible by batch 2 and 3: nothing is dropped, so one epoch
    # enumerates every caption exactly once
    pairs = list(range(tiny_dataset.n_captions))
    for batch_size in (2, 3):
        batches = training_batches(tiny_dataset, pairs, batch_size, seed=0,
                                   epoch=1)
        flat = sorted(k for b in batches for k in b)
        assert flat == pairs


def test_training_batches_vary_with_epoch_and_seed(tiny_dataset):
    pairs = list(range(tiny_dataset.n_captions))
    base = training_batches(tiny_dataset, pairs, 2, seed=0, epoch=0)
    assert base == training_batches(tiny_dataset, pairs, 2, seed=0, epoch=0)
    assert base != training_batches(tiny_dataset, pairs, 2, seed=0, epoch=1)
    assert base != training_batches(tiny_dataset, pairs, 2, seed=1, epoch=0)


def test_training_batches_reject_oversized_batch(tiny_dataset):
    pairs = list(range(tiny_dataset.n_captions))
    with pytest.raises(ValueError, match="exceeds"):
        training_batches(tiny_dataset, pairs, 7, seed=0, epoch=0)
    with pytest.raises(ValueError):
        training_batches(tiny_dataset, pairs, 1, seed=0, epoch=0)


def test_gather_batch_aligns_rows(tiny_dataset):
    caption_ids = [0, 7, 12]
    batch = gather_batch(tiny_dataset, caption_ids)
    assert batch.caption_ids == caption_ids
    for pos, k in enumerate(caption_ids):
        rec = tiny_dataset.captions[k]
        assert batch.image_ids[pos] == rec.image_index
        assert batch.captions[pos] == rec.token_ids
        assert np.array_equal(batch.msv[pos], tiny_dataset.msv[rec.image_index])
        assert np.array_equal(batch.roi[pos], tiny_dataset.roi[rec.image_index])
