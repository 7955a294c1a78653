"""Gated self-attention and the dual-branch text enhancer."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import oracles
from dove import autograd as ag
from dove.gated_attention import (dtga, gated_self_attention,
                                  register_dtga_params, register_ga_params,
                                  select_inputs, word_features)
from dove.params import ParamRegistry

D, HEADS = 8, 2


def rows(seed, n=4, d=D):
    return np.random.default_rng(seed).uniform(-1, 1, (n, d))


@pytest.mark.parametrize("seed", range(10))
def test_gated_attention_matches_oracle(seed):
    reg = ParamRegistry(seed)
    register_ga_params(reg, "ga", D, HEADS)
    vals = {n: t.data for n, t in reg.tensors().items()}
    x = rows(seed + 100, n=3 + seed % 3)
    got = gated_self_attention(ag.constant(x), reg, "ga", HEADS,
                               ag.Packing([len(x)]))
    assert np.allclose(got.data, oracles.gated_attention(x, vals, "ga", HEADS),
                       atol=1e-12)


def test_gated_attention_single_head_matches_oracle():
    reg = ParamRegistry(5)
    register_ga_params(reg, "ga", D, 1)
    vals = {n: t.data for n, t in reg.tensors().items()}
    x = rows(55)
    got = gated_self_attention(ag.constant(x), reg, "ga", 1, ag.Packing([4]))
    assert np.allclose(got.data, oracles.gated_attention(x, vals, "ga", 1),
                       atol=1e-12)


def test_gated_attention_rejects_indivisible_heads():
    reg = ParamRegistry(0)
    register_ga_params(reg, "ga", D, HEADS)
    with pytest.raises(ag.DimensionError):
        gated_self_attention(ag.constant(rows(1)), reg, "ga", 3,
                             ag.Packing([4]))


def test_attention_rows_are_convex_mixes_of_values():
    # each output row lies inside the convex hull of the value rows, so its
    # coordinates are bounded by the per-column value extremes
    reg = ParamRegistry(8)
    register_ga_params(reg, "ga", D, 1)
    vals = {n: t.data for n, t in reg.tensors().items()}
    x = rows(80, n=5)
    v = x @ vals["ga.h0.w_v"] + vals["ga.h0.b_v"]
    out = gated_self_attention(ag.constant(x), reg, "ga", 1,
                               ag.Packing([5])).data
    eps = 1e-12
    assert np.all(out <= v.max(axis=0) + eps)
    assert np.all(out >= v.min(axis=0) - eps)


# --------------------------------------------------------------- fused node

LENGTHS = [5, 3, 3, 1]  # a ragged chunk, down to a one-token caption


def _chunk(seed, lengths, d=D):
    """A packing of ``lengths``, its packed rows and each caption's rows."""
    p = ag.Packing(lengths)
    x = rows(seed, n=p.index.size, d=d)
    return p, x, [x[p.offsets[:n] + i] for i, n in enumerate(lengths)]


def test_fused_node_matches_oracle_per_caption():
    reg = ParamRegistry(3)
    register_ga_params(reg, "ga", D, HEADS)
    vals = {n: t.data for n, t in reg.tensors().items()}
    p, x, captions = _chunk(30, LENGTHS)
    got = gated_self_attention(ag.constant(x), reg, "ga", HEADS, p).data
    for i, cap in enumerate(captions):
        want = oracles.gated_attention(cap, vals, "ga", HEADS)
        assert np.allclose(got[p.offsets[:len(cap)] + i], want,
                           rtol=0.0, atol=1e-12)


def test_a_caption_attends_alike_alone_and_among_longer_captions():
    # padded keys get probability exactly 0, so a caption's rows do not
    # depend on how far its chunk pads it
    reg = ParamRegistry(4)
    register_ga_params(reg, "ga", D, HEADS)
    p, x, captions = _chunk(40, LENGTHS)
    got = gated_self_attention(ag.constant(x), reg, "ga", HEADS, p).data
    for i, cap in enumerate(captions):
        alone = gated_self_attention(ag.constant(cap), reg, "ga", HEADS,
                                     ag.Packing([len(cap)])).data
        assert np.allclose(got[p.offsets[:len(cap)] + i], alone,
                           rtol=0.0, atol=1e-12)


def test_fused_node_keeps_only_qkv_gates_and_probabilities():
    # the per-op graph also kept q*k, the gate pre-activations, g*q and
    # g*k padded, the scores and the padded values and head outputs
    d, heads = 64, 2
    reg = ParamRegistry(5)
    register_ga_params(reg, "ga", d, heads)
    p, x, _ = _chunk(50, [16, 14, 12, 9, 5, 1], d=d)
    x = ag.Tensor(x, requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = gated_self_attention(x, reg, "ga", heads, p)
        graph = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    n, (b, t) = p.index.size, p.keys.shape
    kept = 8 * (n * 3 * d + n * d + heads * b * t * t + out.data.size)
    assert graph <= 1.1 * kept


def _head_params(d, d_h, w_a_rows=None):
    shapes = [(d, d_h), (d_h,)] * 3 + [(w_a_rows or d_h, d_h), (d_h,)]
    return [ag.constant(np.zeros(s)) for s in shapes]


@pytest.mark.parametrize("n_rows, heads", [
    (5, [_head_params(D, 4)]),                       # rows the packing lacks
    (4, []),                                         # no heads
    (4, [_head_params(D, 4), _head_params(D, 2)]),   # heads of two widths
    (4, [_head_params(D, 4, w_a_rows=3)]),           # a mis-shaped gate map
])
def test_fused_node_rejects_mismatched_shapes(n_rows, heads):
    with pytest.raises(ag.DimensionError):
        ag.gated_attention(ag.constant(np.zeros((n_rows, D))),
                           ag.Packing([2, 2]), heads)


# ----------------------------------------------------------------- enhancer

def fresh_dtga(seed):
    reg = ParamRegistry(seed)
    register_dtga_params(reg, D, HEADS)
    vals = {n: t.data for n, t in reg.tensors().items()}
    return reg, vals


@pytest.mark.parametrize("seed", range(10))
def test_dtga_matches_oracle(seed):
    reg, vals = fresh_dtga(seed)
    a, b = rows(seed + 200, n=4), rows(seed + 300, n=4)
    got = dtga(ag.constant(a), ag.constant(b), reg, HEADS, ag.Packing([4]))
    assert np.allclose(got.data, oracles.dtga(a, b, vals, HEADS), atol=1e-12)


def test_dtga_branches_have_independent_parameters():
    reg, vals = fresh_dtga(0)
    fwd = [n for n in vals if n.startswith("dtga.fwd.")]
    bwd = [n for n in vals if n.startswith("dtga.bwd.")]
    assert len(fwd) == len(bwd) > 0
    # matrices with the same role are initialized differently per branch
    assert not np.array_equal(vals["dtga.fwd.self_attn.h0.w_q"],
                              vals["dtga.bwd.self_attn.h0.w_q"])


def test_dtga_symmetric_branches_commute():
    # when both branches share parameters, swapping (a, b) leaves the
    # combined rows unchanged -- the two masked terms simply trade places
    reg, vals = fresh_dtga(3)
    for name in list(vals):
        if name.startswith("dtga.fwd."):
            reg[name.replace("dtga.fwd.", "dtga.bwd.")].data = vals[name].copy()
    a, b = rows(31), rows(32)
    one = ag.Packing([4])
    ab = dtga(ag.constant(a), ag.constant(b), reg, HEADS, one)
    ba = dtga(ag.constant(b), ag.constant(a), reg, HEADS, one)
    assert np.allclose(ab.data, ba.data, atol=1e-12)


# ------------------------------------------------------------ input wiring

def test_select_inputs_modes():
    f = ag.constant(rows(1))
    b = ag.constant(rows(2))
    assert select_inputs(f, b, "ff") == (f, f)
    assert select_inputs(f, b, "bb") == (b, b)
    assert select_inputs(f, b, "fb") == (f, b)
    avg_a, avg_b = select_inputs(f, b, "avg")
    assert avg_a is avg_b
    assert np.allclose(avg_a.data, (f.data + b.data) / 2, atol=1e-12)
    with pytest.raises(ValueError):
        select_inputs(f, b, "bf")


def test_word_features_disabled_is_plain_average():
    reg, _ = fresh_dtga(6)
    f, b = rows(61), rows(62)
    out = word_features(ag.constant(f), ag.constant(b), reg, HEADS,
                        mode="fb", disabled=True, packing=ag.Packing([4]))
    assert np.array_equal(out.data, (f + b) / 2.0)


def test_word_features_enabled_routes_by_mode():
    reg, vals = fresh_dtga(7)
    f, b = rows(71), rows(72)
    got = word_features(ag.constant(f), ag.constant(b), reg, HEADS,
                        mode="bb", disabled=False, packing=ag.Packing([4]))
    assert np.allclose(got.data, oracles.dtga(b, b, vals, HEADS), atol=1e-12)
