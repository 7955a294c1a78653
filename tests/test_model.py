"""Model encoders: codes are (n, d) rows that do not depend on their batch."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest


def test_stacked_image_codes_equal_one_at_a_time(tiny_model, tiny_dataset):
    ds = tiny_dataset
    images = [4, 0, 3]
    stacked = tiny_model.encode_images(ds.msv[images], ds.roi[images])
    views = tiny_model.encode_images([ds.msv[i] for i in images],
                                     [ds.roi[i] for i in images])
    for field in ("v_m", "v_r", "v_mr"):
        rows = getattr(stacked, field).data
        assert rows.shape == (len(images), tiny_model.cfg.d)
        assert np.array_equal(getattr(views, field).data, rows)
        for r, i in enumerate(images):
            alone = tiny_model.encode_images(ds.msv[i:i + 1], ds.roi[i:i + 1])
            assert np.array_equal(getattr(alone, field).data[0], rows[r])
    with pytest.raises(ValueError):
        tiny_model.encode_images(ds.msv[:2], ds.roi[:1])


def test_stacked_caption_codes_equal_one_at_a_time(tiny_model, tiny_dataset):
    token_lists = [rec.token_ids for rec in tiny_dataset.captions[:8]]
    assert len({len(ids) for ids in token_lists}) > 1
    stacked = tiny_model.encode_captions(token_lists).data
    assert stacked.shape == (len(token_lists), tiny_model.cfg.d)
    for r, ids in enumerate(token_lists):
        assert np.array_equal(tiny_model.encode_captions([ids]).data[0],
                              stacked[r])


def test_final_grid_holds_one_guided_block_at_a_time():
    # 40 images x 400 captions at d=64: all T_RG blocks together take
    # N*M*d*8 bytes (8.2 MB); guided one image at a time, the grid's peak
    # stays far below that
    from dove import autograd as ag
    from dove.config import TrainConfig
    from dove.model import ImageCodes, Model

    n, m, d = 40, 400, 64
    model = Model(TrainConfig(d=d, heads=2, seed=5), np.zeros((2, 300)))
    model.bind_feature_widths(6, 4)
    rng = np.random.default_rng(0)
    images = ImageCodes(*(ag.constant(rng.uniform(-1, 1, (n, d)))
                          for _ in range(3)))
    t_g = ag.constant(rng.uniform(-1, 1, (m, d)))
    tracemalloc.start()
    try:
        with ag.no_grad():
            grid = model.final_scores(images, t_g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.data.shape == (n, m)
    assert peak < n * m * d * 8 / 2
