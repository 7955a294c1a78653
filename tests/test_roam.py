"""Visual fusion and region-guided text transformation."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles
from dove import autograd as ag
from dove.objective import cosine_matrix
from dove.params import ParamRegistry
from dove.roam import (fuse_visual, ifa_fuse, iga_pair_rows, iga_scores,
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
    regions = np.repeat(e_r[None, :], len(texts), axis=0)
    return iga_pair_rows(ag.constant(regions), ag.constant(texts), reg, head)


# ------------------------------------------------------------------- fusion

@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("head", ["linear", "nonlinear"])
def test_ifa_matches_oracle(seed, head):
    reg, vals = ifa_registry(seed, head)
    f_m, f_r = rows(seed + 10, 3), rows(seed + 20, 5)
    got = ifa_fuse(ag.constant(f_m), ag.constant(f_r), reg, 1, head)
    assert got.shape == (8, D)
    assert np.allclose(got.data, oracles.ifa(f_m, f_r, vals, head), atol=1e-12)


@pytest.mark.parametrize("head", ["linear", "nonlinear"])
def test_ifa_matches_oracle_per_image_of_a_chunk(head):
    # 4 images of 3 scale and 5 region rows, image-major
    reg, vals = ifa_registry(7, head)
    f_m, f_r = rows(30, 12), rows(31, 20)
    got = ifa_fuse(ag.constant(f_m), ag.constant(f_r), reg, 4, head)
    assert got.shape == (32, D)
    for i in range(4):
        want = oracles.ifa(f_m[3 * i:3 * i + 3], f_r[5 * i:5 * i + 5], vals,
                           head)
        assert np.allclose(got.data[8 * i:8 * i + 8], want, atol=1e-12)


def test_fuse_disabled_is_row_concatenation():
    # per image: its multiscale rows, then its region rows
    reg, _ = ifa_registry(0, "linear")
    f_m, f_r = rows(1, 6), rows(2, 9)
    got = fuse_visual(ag.constant(f_m), ag.constant(f_r), reg, 3, "linear",
                      disabled=True)
    want = np.concatenate([np.concatenate([f_m[2 * i:2 * i + 2],
                                           f_r[3 * i:3 * i + 3]])
                           for i in range(3)])
    assert np.array_equal(got.data, want)


def test_cross_rows_keeps_only_the_relation_grid():
    # the per-op chain also kept the transposes, both relation products,
    # their sums with the inputs and the joined rows
    images, n_m, n_r, d = 8, 4, 36, 64
    f_m = ag.Tensor(rows(40, images * n_m, d), requires_grad=True)
    f_r = ag.Tensor(rows(41, images * n_r, d), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = ag.cross_rows(f_m, f_r, images)
        graph = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    kept = 8 * (images * n_m * n_r + out.data.size)
    assert graph <= 1.1 * kept


@pytest.mark.parametrize("m_shape, r_shape, images", [
    ((6, D), (9, D), 2),        # 9 region rows are not 2 images' worth
    ((6, D), (9, D), 0),        # no images
    ((6, D), (9, 4), 3),        # widths differ
    ((0, D), (9, D), 3),        # no multiscale rows
    ((6,), (9, D), 3),          # rank-1 rows
])
def test_cross_rows_rejects_mismatched_shapes(m_shape, r_shape, images):
    with pytest.raises(ag.DimensionError):
        ag.cross_rows(ag.constant(np.zeros(m_shape)),
                      ag.constant(np.zeros(r_shape)), images)


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
    assert np.allclose(got[0], oracles.iga(e_r, e_g, vals, head),
                       atol=1e-12)


@pytest.mark.parametrize("d", [D, 2])
def test_iga_guide_rejects_matrices(d):
    # guidance takes one pooled region vector per image, not a row set:
    # scores want one region row per fused row, and pair rows one to one;
    # at width 2 the (3, 2) text rows have the gates' shape of 3 images
    reg, _ = iga_registry(0, "nonlinear", d)
    two, three = ag.constant(rows(0, 2, d)), ag.constant(rows(1, 3, d))
    with pytest.raises(ag.DimensionError):
        iga_pair_rows(two, three, reg, "nonlinear")
    with pytest.raises(ag.DimensionError):
        iga_scores(three, two, three, reg, "nonlinear")
    with pytest.raises(ag.DimensionError):  # each image a run of 3 rows
        iga_scores(two, ag.constant(rows(2, 6, d)), three, reg, "nonlinear")


def test_batched_guidance_equals_per_pair_guidance():
    reg, vals = iga_registry(9, "nonlinear")
    e_r = rows(90, 1)[0]
    texts = rows(91, 5)
    batched = guide(reg, e_r, texts, "nonlinear")
    for j in range(5):
        single = oracles.iga(e_r, texts[j], vals, "nonlinear")
        assert np.allclose(batched[j], single, atol=1e-12)


def test_half_gate_construction():
    # zeroing the region projection makes <f_r, f_g> = 0, so the gate is
    # exactly sigmoid(0) = 1/2 and the head sees 1.5 * f_g
    reg, vals = iga_registry(11, "nonlinear")
    reg["iga.w_r"].data = np.zeros((D, D))
    e_r, e_g = rows(110, 1)[0], rows(111, 1)[0]
    got = guide(reg, e_r, e_g[None, :], "nonlinear")[0]
    f_g = e_g @ vals["iga.w_g"] + vals["iga.b_g"]
    want = oracles.head_map(1.5 * f_g[None, :], vals, "iga.head", "nonlinear")[0]
    assert np.allclose(got, want, atol=1e-12)


# ------------------------------------------------------- the final-grid node

def guidance_params(seed, head, d=D):
    """A guidance registry with random biases as well as maps, and its
    values."""
    reg, _ = iga_registry(seed, head, d)
    rng = np.random.default_rng(seed + 500)
    for t in reg.tensors().values():
        if t.data.ndim == 1:
            t.data = rng.uniform(-0.5, 0.5, t.data.shape)
    return reg, {n: t.data for n, t in reg.tensors().items()}


def head_of(reg, head):
    names = ("w", "b") if head == "linear" else ("w1", "b1", "w2", "b2")
    return [reg[f"iga.head.{n}"] for n in names]


def reference_sigmoid(x):
    """A sigmoid node of the test's own: 1 / (1 + e^-x), gradient y (1 - y)."""
    y = 1.0 / (1.0 + np.exp(-x.data))
    out = ag._result(y, (x,))
    if out.requires_grad:
        out._bw = lambda g: ag._acc(x, g * y * (1.0 - y))
    return out


def composed_grid(v_mr, f_r, f_g, head):
    """The final grid built from primitives, one image at a time."""
    (m, d), scores = f_g.data.shape, []
    widen = ag.constant(np.ones((1, d)))
    for i in range(v_mr.data.shape[0]):
        # <f_g_j, f_r_i> for every j: f_r_i copied to M rows by a column
        # of ones, times f_g, summed by a column of ones
        rep = ag.matmul(ag.constant(np.ones((m, 1))), ag.take_rows(f_r, [i]))
        gate = reference_sigmoid(ag.matmul(ag.mul(f_g, rep),
                                           ag.constant(np.ones((d, 1)))))
        # 1 + g, an (M, 1) column, widened to f_g's (M, d) by a row of ones
        u = ag.mul(f_g, ag.matmul(ag.add(gate, 1.0), widen))
        if len(head) == 4:
            t_rg = ag.mlp(u, *head, "residual")
        else:
            t_rg = ag.affine(u, head[0], head[1])
        scores.append(cosine_matrix(ag.take_rows(v_mr, [i]), t_rg))
    return ag.concat(*scores)


def cos(a, b):
    return float(a @ b / np.linalg.norm(a) / np.linalg.norm(b))


@pytest.mark.parametrize("m", [1, 5])
@pytest.mark.parametrize("head", ["linear", "nonlinear"])
def test_guided_scores_match_oracle_cosines(head, m, monkeypatch):
    # blocks of 3 images: 7 images take three blocks, the last one short
    monkeypatch.setattr(ag, "GUIDED_BLOCK", 3 * m * D)
    reg, vals = guidance_params(3, head)
    v_mr, v_r, t_g = rows(30, 7), rows(31, 7), rows(32, m)
    got = iga_scores(ag.constant(v_mr), ag.constant(v_r), ag.constant(t_g),
                     reg, head)
    assert got.data.shape == (7, m)
    for i in range(7):
        for j in range(m):
            want = cos(v_mr[i], oracles.iga(v_r[i], t_g[j], vals, head))
            assert abs(got.data[i, j] - want) < 1e-12


@pytest.mark.parametrize("head", ["linear", "nonlinear"])
def test_guided_scores_gradients_match_the_composed_ops(head, monkeypatch):
    # the hand-written backward, over three blocks, against the gradients
    # of the same grid built one image at a time from primitives
    monkeypatch.setattr(ag, "GUIDED_BLOCK", 2 * 4 * D)
    reg, _ = guidance_params(4, head)
    leaves = [ag.Tensor(rows(40 + k, n), requires_grad=True)
              for k, n in enumerate((5, 5, 4))]
    params = leaves + head_of(reg, head)
    weights = ag.constant(rows(44, 5, 4))
    grads = []
    for grid in (ag.guided_scores, composed_grid):
        for t in params:
            t.grad = None
        scores = grid(*leaves, head_of(reg, head))
        ag.reduce_sum(ag.mul(scores, weights)).backward()
        grads.append((scores.data, [t.grad for t in params]))
    (fused, fused_grads), (composed, composed_grads) = grads
    assert np.allclose(fused, composed, rtol=0, atol=1e-12)
    for got, want in zip(fused_grads, composed_grads):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_a_block_of_the_grid_is_the_grid_of_that_block():
    reg, _ = guidance_params(5, "nonlinear")
    v_mr, v_r, t_g = rows(50, 6), rows(51, 6), rows(52, 5)
    grid = iga_scores(ag.constant(v_mr), ag.constant(v_r), ag.constant(t_g),
                      reg, "nonlinear").data
    picked, texts = [4, 0, 5], [3, 1]
    block = iga_scores(ag.constant(v_mr[picked]), ag.constant(v_r[picked]),
                       ag.constant(t_g[texts]), reg, "nonlinear").data
    assert np.allclose(block, grid[np.ix_(picked, texts)], rtol=0, atol=1e-12)


def test_guided_scores_keep_only_pair_arrays():
    # the graph holds the (N, M) gates, norms and scores, A = f_g W1 and
    # the unit image rows: nothing of N x M x d
    n, m, d = 40, 60, 32
    reg, _ = guidance_params(6, "nonlinear", d)
    leaves = [ag.Tensor(rows(60 + k, size, d), requires_grad=True)
              for k, size in enumerate((n, n, m))]
    head = head_of(reg, "nonlinear")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scores = ag.guided_scores(*leaves, head)
        graph = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert graph <= 1.1 * 8 * (3 * n * m + m * d + n * d)
    ag.reduce_sum(scores).backward()
    assert all(t.grad is not None for t in leaves + head)


def test_degenerate_rows_name_their_image_and_caption():
    # with W = I and b = 0, T_RG(i, j) = (1 + g_ij) f_g_j: a zero text row
    # is a zero T_RG for every image, and the first image is named
    w, b = ag.constant(np.eye(D)), ag.constant(np.zeros(D))
    f_g = rows(70, 4)
    f_g[2] = 0.0
    v_mr, f_r = ag.constant(rows(71, 3)), ag.constant(rows(72, 3))
    with pytest.raises(ag.DegenerateVectorError) as caught:
        ag.guided_scores(v_mr, f_r, ag.constant(f_g), [w, b])
    assert (caught.value.row, caught.value.image) == (2, 0)
    blank = rows(73, 3)
    blank[1] = 0.0
    with pytest.raises(ag.DegenerateVectorError) as caught:
        ag.guided_scores(ag.constant(blank), f_r, ag.constant(rows(70, 4)),
                         [w, b])
    assert (caught.value.row, caught.value.image) == (1, None)


def test_pool_fixture():
    got = ag.mean_rows(ag.constant([[0.0, 2.0], [2.0, 0.0]]), 2)
    assert np.array_equal(got.data, [[1.0, 1.0]])
