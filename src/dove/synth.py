"""Synthetic cluster-structured datasets for desk-scale experiments.

Images are assigned round-robin to clusters.  Every image's feature
matrices are a shared cluster base plus a per-image component, so
intra-cluster pairs look alike while each image stays identifiable.
Captions mix tokens from a cluster-specific pool with one token unique
to the image -- enough signal for a model to resolve individual images,
which is what the overfitting harness requires.

All bytes are a pure function of the generator arguments: every artifact
draws from its own named splitmix64 stream.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import dataio
from .rng import RngStream, derive_seed

CLUSTER_POOL = 12     # tokens per cluster vocabulary pool
IMAGE_BLEND = 0.35    # weight of the per-image feature component


class SynthError(ValueError):
    """Generator arguments are inconsistent."""


@dataclass
class SynthDataset:
    msv: np.ndarray                      # (n_images, n_m, d_in)
    roi: np.ndarray                      # (n_images, n_r, d_r)
    captions: list[tuple[int, list[str]]]
    vocab_tokens: list[str]              # index == id, [0] is the unknown
    embedding: np.ndarray                # (len(vocab_tokens), 300)
    clusters: list[int]                  # cluster id per image


def _feature_bank(seed: int, name: str, clusters: list[int], n_clusters: int,
                  rows: int, cols: int) -> np.ndarray:
    """(n_images, rows, cols): each image's cluster base plus its own part."""
    stream = RngStream(derive_seed(seed, name))
    base = stream.uniform(n_clusters * rows * cols, -1.0, 1.0)
    part = stream.uniform(len(clusters) * rows * cols, -1.0, 1.0)
    return (base.reshape(n_clusters, rows, cols)[clusters]
            + IMAGE_BLEND * part.reshape(len(clusters), rows, cols))


def synth_dataset(seed: int, n_images: int, n_clusters: int,
                  n_m: int = 4, n_r: int = 36,
                  d_in: int = 512, d_r: int = 256,
                  caption_len_range: tuple[int, int] = (4, 8),
                  captions_per_image: int = 5) -> SynthDataset:
    if n_clusters < 2:
        raise SynthError(f"need at least 2 clusters, got {n_clusters}")
    if n_images < n_clusters:
        raise SynthError(
            f"need at least one image per cluster: images={n_images} "
            f"clusters={n_clusters}")
    if min(n_m, n_r, d_in, d_r) < 1:
        raise SynthError("feature extents must be positive")
    lo, hi = caption_len_range
    if not 2 <= lo <= hi:
        raise SynthError(f"caption length range must satisfy 2 <= lo <= hi, "
                         f"got ({lo}, {hi})")
    if captions_per_image < 1:
        raise SynthError("captions_per_image must be >= 1")

    # ---- vocabulary: unknown, cluster pools, one id token per image
    tokens = ["<unk>"]
    pools = []
    for c in range(n_clusters):
        pool = [f"c{c}w{k}" for k in range(CLUSTER_POOL)]
        pools.append(pool)
        tokens.extend(pool)
    image_tokens = [f"img{i}" for i in range(n_images)]
    tokens.extend(image_tokens)

    clusters = [i % n_clusters for i in range(n_images)]

    # ---- feature banks: cluster base + scaled per-image component
    msv = _feature_bank(seed, "msv", clusters, n_clusters, n_m, d_in)
    roi = _feature_bank(seed, "roi", clusters, n_clusters, n_r, d_r)

    # ---- captions: cluster-pool draws with the image token slotted in
    cap_stream = RngStream(derive_seed(seed, "captions"))
    captions = []
    for i in range(n_images):
        pool = pools[clusters[i]]
        for _ in range(captions_per_image):
            length = lo + int(cap_stream.uniform(1)[0] * (hi - lo + 1))
            length = min(length, hi)
            words = [pool[int(u * len(pool))]
                     for u in cap_stream.uniform(length - 1)]
            slot = int(cap_stream.uniform(1)[0] * length)
            words.insert(min(slot, length - 1), image_tokens[i])
            captions.append((i, words))

    # ---- embedding table: unknown row is zero, the rest uniform
    emb_stream = RngStream(derive_seed(seed, "embedding"))
    embedding = emb_stream.uniform(len(tokens) * dataio.EMBED_DIM, -0.5, 0.5)
    embedding = embedding.reshape(len(tokens), dataio.EMBED_DIM)
    embedding[dataio.UNKNOWN_ID] = 0.0

    return SynthDataset(msv, roi, captions, tokens, embedding, clusters)


def write_dataset(ds: SynthDataset, directory: str) -> dict[str, str]:
    """Write the five dataset files; returns {filename: sha256hex}."""
    os.makedirs(directory, exist_ok=True)
    dataio.write_feature_bank(os.path.join(directory, dataio.MSV_FILE), ds.msv)
    dataio.write_feature_bank(os.path.join(directory, dataio.ROI_FILE), ds.roi)
    dataio.write_captions(os.path.join(directory, dataio.CAPTIONS_FILE), ds.captions)
    dataio.write_vocab(os.path.join(directory, dataio.VOCAB_FILE), ds.vocab_tokens)
    dataio.write_embedding_table(os.path.join(directory, dataio.EMBED_FILE),
                                 ds.embedding)
    manifest = {}
    for name in dataio.DATASET_FILES:
        with open(os.path.join(directory, name), "rb") as fh:
            manifest[name] = hashlib.sha256(fh.read()).hexdigest()
    return manifest
