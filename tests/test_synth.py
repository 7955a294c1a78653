"""Synthetic dataset generator: determinism, structure, validation."""
from __future__ import annotations

import numpy as np
import pytest

from dove import dataio
from dove.synth import SynthError, synth_dataset, write_dataset


def small(seed=3, **kw):
    args = dict(seed=seed, n_images=8, n_clusters=2, n_m=2, n_r=3,
                d_in=10, d_r=6, caption_len_range=(3, 5), captions_per_image=2)
    args.update(kw)
    return synth_dataset(**args)


def test_deterministic_per_seed():
    a, b = small(), small()
    assert np.array_equal(a.msv, b.msv)
    assert np.array_equal(a.roi, b.roi)
    assert np.array_equal(a.embedding, b.embedding)
    assert a.captions == b.captions
    assert a.vocab_tokens == b.vocab_tokens
    c = small(seed=4)
    assert not np.array_equal(a.msv, c.msv)
    assert a.captions != c.captions


def test_shapes_and_assignment():
    ds = small()
    assert ds.msv.shape == (8, 2, 10)
    assert ds.roi.shape == (8, 3, 6)
    assert ds.clusters == [0, 1, 0, 1, 0, 1, 0, 1]  # round-robin
    assert len(ds.captions) == 16
    assert [i for i, _ in ds.captions] == sorted(i for i, _ in ds.captions)


def test_cluster_structure_in_features():
    ds = small(n_images=12)
    flat = ds.msv.reshape(12, -1)
    unit = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    cos = unit @ unit.T
    same = [cos[i, j] for i in range(12) for j in range(i + 1, 12)
            if ds.clusters[i] == ds.clusters[j]]
    diff = [cos[i, j] for i in range(12) for j in range(i + 1, 12)
            if ds.clusters[i] != ds.clusters[j]]
    assert np.mean(same) > np.mean(diff) + 0.2


def test_caption_carries_image_token_and_cluster_words():
    ds = small()
    for image_index, words in ds.captions:
        assert f"img{image_index}" in words
        cluster = ds.clusters[image_index]
        rest = [w for w in words if w != f"img{image_index}"]
        assert all(w.startswith(f"c{cluster}w") for w in rest)


def test_caption_lengths_in_range():
    ds = small()
    for _, words in ds.captions:
        assert 3 <= len(words) <= 5


def test_vocab_covers_all_caption_tokens():
    ds = small()
    ids = {tok: i for i, tok in enumerate(ds.vocab_tokens)}
    for _, words in ds.captions:
        assert all(w in ids for w in words)
    assert ds.vocab_tokens[0] == "<unk>"


def test_unknown_embedding_row_is_zero():
    ds = small()
    assert np.array_equal(ds.embedding[0], np.zeros(dataio.EMBED_DIM))
    assert np.abs(ds.embedding[1:]).max() > 0


@pytest.mark.parametrize("kw", [
    dict(n_clusters=1),
    dict(n_images=1, n_clusters=2),
    dict(caption_len_range=(1, 5)),
    dict(caption_len_range=(6, 5)),
    dict(captions_per_image=0),
    dict(d_in=0),
])
def test_rejects_inconsistent_arguments(kw):
    with pytest.raises(SynthError):
        small(**kw)


def test_write_dataset_manifest_is_stable(tmp_path):
    ds = small()
    m1 = write_dataset(ds, str(tmp_path / "a"))
    m2 = write_dataset(ds, str(tmp_path / "b"))
    assert m1 == m2
    assert sorted(m1) == sorted(dataio.DATASET_FILES)
    assert all(len(v) == 64 for v in m1.values())


def test_written_dataset_loads_back(tmp_path):
    ds = small()
    write_dataset(ds, str(tmp_path / "d"))
    loaded = dataio.load_dataset(str(tmp_path / "d"))
    assert loaded.n_images == 8
    assert loaded.unknown_tokens == 0
    # float32 storage: loaded banks match to float32 precision
    assert np.allclose(loaded.msv, ds.msv, atol=1e-6)
