"""Shared fixtures: a small on-disk dataset and a matching model."""
from __future__ import annotations

import numpy as np
import pytest

from dove.config import TrainConfig
from dove.dataio import load_dataset
from dove.model import Model
from dove.synth import synth_dataset, write_dataset


@pytest.fixture(scope="session")
def tiny_dataset_dir(tmp_path_factory):
    """Six images, two clusters, narrow features -- fast everywhere."""
    directory = tmp_path_factory.mktemp("tiny_data")
    ds = synth_dataset(seed=7, n_images=6, n_clusters=2, n_m=3, n_r=4,
                       d_in=6, d_r=4, caption_len_range=(3, 5))
    write_dataset(ds, str(directory))
    return str(directory)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_dataset_dir):
    return load_dataset(tiny_dataset_dir)


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset):
    """A freshly initialised d=8 model bound to the tiny dataset."""
    cfg = TrainConfig(d=8, heads=2, batch_size=2, epochs=1, seed=13,
                      val_fraction=0.0)
    model = Model(cfg, tiny_dataset.embedding)
    model.bind_feature_widths(tiny_dataset.msv.shape[2],
                              tiny_dataset.roi.shape[2])
    return model


@pytest.fixture()
def tiny_config():
    return TrainConfig(d=8, heads=2, batch_size=2, epochs=2, seed=11,
                       lr0=0.01, val_fraction=0.0)


@pytest.fixture()
def rand():
    return np.random.default_rng(1234)
