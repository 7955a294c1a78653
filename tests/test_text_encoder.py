"""Embedding lookup and the bidirectional recurrent encoder."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from dove import autograd as ag
from dove.params import ParamRegistry
from dove.text_encoder import (EMBED_DIM, TokenError, bigru, embed_tokens,
                               register_gru_params)

D = 8


def fresh(seed):
    reg = ParamRegistry(seed)
    register_gru_params(reg, D)
    vals = {n: t.data for n, t in reg.tensors().items()}
    return reg, vals


def test_embed_tokens_looks_up_rows():
    table = np.arange(15.0).reshape(5, 3).repeat(100, axis=1)
    out = embed_tokens([3, 0, 3], table)
    assert np.array_equal(out.data, table[[3, 0, 3]])
    assert not out.requires_grad  # the table is ingested data, not learned


def test_embed_tokens_rejects_bad_ids():
    table = np.zeros((4, EMBED_DIM))
    with pytest.raises(TokenError):
        embed_tokens([], table)
    with pytest.raises(TokenError):
        embed_tokens([4], table)
    with pytest.raises(TokenError):
        embed_tokens([-1], table)


def test_bigru_rejects_wrong_width():
    reg, _ = fresh(0)
    with pytest.raises(ag.DimensionError):
        bigru(ag.constant(np.zeros((3, 10))), reg, ag.Packing([3]))


@pytest.mark.parametrize("seed", range(10))
def test_bigru_matches_oracle(seed):
    reg, vals = fresh(seed)
    rng = np.random.default_rng(seed + 500)
    e = rng.uniform(-1, 1, (4 + seed % 3, EMBED_DIM))
    got = bigru(ag.constant(e), reg, ag.Packing([len(e)]))
    want_f, want_b = oracles.bigru(e, vals)
    assert np.allclose(got.forward.data, want_f, atol=1e-12)
    assert np.allclose(got.backward.data, want_b, atol=1e-12)


def test_backward_direction_is_a_reversed_forward_scan():
    # the backward scan with params P equals: flip the input, run a forward
    # scan with P, flip the result
    reg_a, vals_a = fresh(1)
    reg_b, _ = fresh(2)
    for gate in ("z", "r", "h"):
        for kind in ("w", "u", "b"):
            reg_b[f"text.gru.fwd.{kind}_{gate}"].data = \
                vals_a[f"text.gru.bwd.{kind}_{gate}"].copy()
    rng = np.random.default_rng(7)
    e = rng.uniform(-1, 1, (5, EMBED_DIM))
    one = ag.Packing([5])
    backward = bigru(ag.constant(e), reg_a, one).backward.data
    flipped = bigru(ag.constant(e[::-1].copy()), reg_b, one).forward.data
    assert np.allclose(backward, flipped[::-1], atol=1e-12)


def test_single_token_directions_agree():
    # with one token there is no left/right context: both scans compute the
    # same one-step update if their parameters match
    reg, vals = fresh(3)
    for gate in ("z", "r", "h"):
        for kind in ("w", "u", "b"):
            reg[f"text.gru.bwd.{kind}_{gate}"].data = \
                vals[f"text.gru.fwd.{kind}_{gate}"].copy()
    e = np.random.default_rng(0).uniform(-1, 1, (1, EMBED_DIM))
    states = bigru(ag.constant(e), reg, ag.Packing([1]))
    assert np.allclose(states.forward.data, states.backward.data, atol=1e-12)


def test_gradients_flow_to_every_gate():
    reg, _ = fresh(4)
    e = np.random.default_rng(1).uniform(-1, 1, (3, EMBED_DIM))
    states = bigru(ag.constant(e), reg, ag.Packing([3]))
    ag.reduce_sum(ag.add(states.forward, states.backward)).backward()
    for name, t in reg.tensors().items():
        assert t.grad is not None, name
        assert np.any(t.grad != 0.0), name


@pytest.mark.parametrize("seed", range(10))
def test_gru_scan_matches_oracle_direction(seed):
    # packed rows of ragged captions, one of a single token; every
    # caption's rows match the oracle run on that caption alone
    reg, vals = fresh(seed + 20)
    rng = np.random.default_rng(seed)
    lengths = sorted([3 + seed, 1, 2 + seed // 2], reverse=True)
    packing = ag.Packing(lengths)
    e = rng.uniform(-1, 1, (3, lengths[0], EMBED_DIM))
    rows = ag.constant(packing.packed(e))
    for direction, reverse in (("fwd", False), ("bwd", True)):
        p = f"text.gru.{direction}"
        x = [ag.affine(rows, reg[f"{p}.w_{g}"], reg[f"{p}.b_{g}"])
             for g in ("z", "r", "h")]
        got = ag.gru_scan(*x, *(reg[f"{p}.u_{g}"] for g in ("z", "r", "h")),
                          reverse=reverse, packing=packing)
        assert got.data.shape == (sum(lengths), D)
        states = packing.padded(got.data)
        for i, n in enumerate(lengths):
            want = oracles.gru_direction(e[i, :n], vals, p, reverse)
            assert np.allclose(states[i, :n], want, rtol=0.0, atol=1e-12)


def _graph_size(root):
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_direction_graph_size_does_not_grow_with_caption_length():
    # nor with the number of captions packed together
    reg, _ = fresh(5)
    rng = np.random.default_rng(3)
    sizes = set()
    for b, n in ((1, 3), (2, 3), (6, 15)):
        lengths = np.sort(rng.integers(1, n + 1, b))[::-1]
        lengths[0] = n
        e = ag.constant(rng.uniform(-1, 1, (lengths.sum(), EMBED_DIM)))
        sizes.add(_graph_size(bigru(e, reg, ag.Packing(lengths)).forward))
    assert len(sizes) == 1


def test_caption_graph_size_does_not_grow_with_captions(tiny_model):
    # Model.encode_captions: 4 and 16 captions of one maximum length
    rng = np.random.default_rng(4)
    sizes = set()
    for n in (4, 16):
        token_lists = [[int(t) for t in rng.integers(0, 20, k)]
                       for k in rng.integers(1, 10, n)]
        token_lists[0] = [1] * 9
        sizes.add(_graph_size(tiny_model.encode_captions(token_lists)))
    assert len(sizes) == 1
