"""Visual fusion and region-guided text transformation."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from dove import autograd as ag
from dove.params import ParamRegistry
from dove.roam import (fuse_visual, ifa_fuse, iga_guide_rows,
                       iga_transform_regions, iga_transform_text,
                       register_ifa_params, register_iga_params)

D = 8


def ifa_registry(seed, head):
    reg = ParamRegistry(seed)
    register_ifa_params(reg, D, head)
    return reg, {n: t.data for n, t in reg.tensors().items()}


def iga_registry(seed, head, d=D):
    reg = ParamRegistry(seed)
    register_iga_params(reg, d, head)
    return reg, {n: t.data for n, t in reg.tensors().items()}


def rows(seed, n, d=D):
    return np.random.default_rng(seed).uniform(-1, 1, (n, d))


def guide(reg, e_r, texts, head):
    """T_RG rows of one pooled region vector against (n, D) text vectors."""
    f_r_row = iga_transform_regions(ag.constant(e_r[None, :]), reg)
    f_g_rows = iga_transform_text(ag.constant(texts), reg)
    return iga_guide_rows(f_r_row, f_g_rows, reg, head)


# ------------------------------------------------------------------- fusion

@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("head", ["linear", "nonlinear"])
def test_ifa_matches_oracle(seed, head):
    reg, vals = ifa_registry(seed, head)
    f_m, f_r = rows(seed + 10, 3), rows(seed + 20, 5)
    got = ifa_fuse(ag.constant(f_m), ag.constant(f_r), reg, head)
    assert got.shape == (8, D)
    assert np.allclose(got.data, oracles.ifa(f_m, f_r, vals, head), atol=1e-12)


def test_fuse_disabled_is_row_concatenation():
    reg, _ = ifa_registry(0, "linear")
    f_m, f_r = rows(1, 2), rows(2, 3)
    got = fuse_visual(ag.constant(f_m), ag.constant(f_r), reg, "linear",
                      disabled=True)
    assert np.array_equal(got.data, np.concatenate([f_m, f_r], axis=0))


@pytest.mark.parametrize("permuted", ["msv", "roi", "both"])
def test_image_codes_invariant_to_row_order(permuted, tiny_model, tiny_dataset):
    # an image's multiscale and region rows are sets: any order of them,
    # with two equal region rows too, gives the same codes and scores
    ds = tiny_dataset
    msv, roi = ds.msv[:4].copy(), ds.roi[:4].copy()
    roi[1, 2] = roi[1, 0]
    rng = np.random.default_rng(3)
    shuffled = {"msv": msv, "roi": roi}
    for bank in (["msv", "roi"] if permuted == "both" else [permuted]):
        rows = shuffled[bank]
        shuffled[bank] = np.stack([r[rng.permutation(len(r))] for r in rows])
        assert not np.array_equal(shuffled[bank], rows)
    t_g = tiny_model.encode_captions([c.token_ids for c in ds.captions[:6]])
    base = tiny_model.encode_images(msv, roi)
    moved = tiny_model.encode_images(shuffled["msv"], shuffled["roi"])
    for field in ("v_m", "v_r", "v_mr"):
        assert np.array_equal(getattr(moved, field).data,
                              getattr(base, field).data)  # bit-exact
    for got, want in zip(tiny_model.score_matrices(moved, t_g),
                         tiny_model.score_matrices(base, t_g)):
        assert np.array_equal(got.data, want.data)


# ----------------------------------------------------------------- guidance

@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("head", ["linear", "nonlinear"])
def test_iga_matches_oracle(seed, head):
    reg, vals = iga_registry(seed, head)
    e_r = rows(seed + 60, 1)[0]
    e_g = rows(seed + 70, 1)[0]
    got = guide(reg, e_r, e_g[None, :], head)
    assert got.shape == (1, D)
    assert np.allclose(got.data[0], oracles.iga(e_r, e_g, vals, head),
                       atol=1e-12)


@pytest.mark.parametrize("d", [D, 2])
def test_iga_guide_rejects_matrices(d):
    # guidance takes one pooled region vector per image, not a row set; at
    # width 2 the (3, 2) gates of two region rows have the text rows' shape
    reg, _ = iga_registry(0, "nonlinear", d)
    f_r_rows = iga_transform_regions(ag.constant(rows(0, 2, d)), reg)
    f_g_rows = iga_transform_text(ag.constant(rows(1, 3, d)), reg)
    with pytest.raises(ag.DimensionError):
        iga_guide_rows(f_r_rows, f_g_rows, reg)


def test_batched_guidance_equals_per_pair_guidance():
    reg, vals = iga_registry(9, "nonlinear")
    e_r = rows(90, 1)[0]
    texts = rows(91, 5)
    batched = guide(reg, e_r, texts, "nonlinear")
    for j in range(5):
        single = oracles.iga(e_r, texts[j], vals, "nonlinear")
        assert np.allclose(batched.data[j], single, atol=1e-12)


def test_half_gate_construction():
    # zeroing the region projection makes <f_r, f_g> = 0, so the gate is
    # exactly sigmoid(0) = 1/2 and the head sees 1.5 * f_g
    reg, vals = iga_registry(11, "nonlinear")
    reg["iga.w_r"].data = np.zeros((D, D))
    e_r, e_g = rows(110, 1)[0], rows(111, 1)[0]
    got = guide(reg, e_r, e_g[None, :], "nonlinear").data[0]
    f_g = e_g @ vals["iga.w_g"] + vals["iga.b_g"]
    want = oracles.head_map(1.5 * f_g[None, :], vals, "iga.head", "nonlinear")[0]
    assert np.allclose(got, want, atol=1e-12)


def test_pool_fixture():
    got = ag.mean_rows(ag.constant([[[0.0, 2.0], [2.0, 0.0]]]))
    assert np.array_equal(got.data, [[1.0, 1.0]])
