"""Cosine similarity and the bidirectional ranking objective."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dove import autograd as ag
from dove.objective import cosine_matrix, total_loss, triplet_loss


def T(values):
    return ag.constant(np.asarray(values, dtype=np.float64))


# ------------------------------------------------------------------- cosine

def cosine(a, b):
    """cosine_matrix of two single rows, as a float."""
    return cosine_matrix(T([a]), T([b])).data[0, 0]


def test_cosine_fixtures():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)
    assert cosine([1.0, 0.0], [0.0, 2.0]) == pytest.approx(0.0)
    assert cosine([1.0, 1.0], [-2.0, -2.0]) == pytest.approx(-1.0)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    v, t = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
    base = cosine(v, t)
    scaled = cosine(3.0 * v, 0.04 * t)
    assert abs(base - scaled) < 1e-12


def test_cosine_rejects_degenerate_and_mismatched():
    with pytest.raises(ag.DegenerateVectorError):
        cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ag.DimensionError):
        cosine([1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ag.DimensionError):
        cosine_matrix(T([1.0, 0.0]), T([1.0, 0.0]))


def test_cosine_matrix_matches_pairwise_cosine():
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (4, 5))
    grid = cosine_matrix(T(a), T(b)).data
    assert grid.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
            assert abs(grid[i, j] - want) < 1e-12


# -------------------------------------------------------------------- hinge

def test_triplet_loss_pinned_fixture():
    loss = triplet_loss(T([[0.5, 0.6], [0.4, 0.7]]), alpha=0.2)
    assert loss.item() == 0.5  # exact, not approximate


def test_triplet_loss_all_equal_fixture():
    loss = triplet_loss(T([[0.3, 0.3], [0.3, 0.3]]), alpha=0.2)
    assert loss.item() == pytest.approx(0.8, abs=1e-15)


def test_triplet_loss_three_way_fixture():
    s = [[0.9, 0.1, 0.5], [0.0, 0.8, 0.2], [0.4, 0.3, 0.6]]
    loss = triplet_loss(T(s), alpha=0.2)
    assert abs(loss.item() - oracles.triplet(s, 0.2)) < 1e-12


def test_triplet_loss_zero_when_margins_hold():
    s = np.full((3, 3), -0.5) + np.eye(3)  # diagonal wins by 1.0 > alpha
    assert triplet_loss(T(s), alpha=0.2).item() == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_triplet_loss_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 7))
    s = rng.uniform(-1, 1, (b, b))
    alpha = float(rng.uniform(0.05, 0.5))
    assert abs(triplet_loss(T(s), alpha).item()
               - oracles.triplet(s, alpha)) < 1e-12


def test_triplet_loss_rejects_bad_shapes():
    with pytest.raises(ag.DimensionError):
        triplet_loss(T([[1.0, 2.0]]), alpha=0.2)
    with pytest.raises(ag.DimensionError):
        triplet_loss(T([[1.0]]), alpha=0.2)


score_matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda b: st.lists(
        st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                 min_size=b, max_size=b),
        min_size=b, max_size=b))


@settings(max_examples=60, deadline=None)
@given(score_matrices, st.floats(min_value=0.01, max_value=0.9))
def test_triplet_loss_nonnegative(s, alpha):
    assert triplet_loss(T(s), alpha).item() >= 0.0


@settings(max_examples=60, deadline=None)
@given(score_matrices, st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_triplet_loss_shift_invariance(s, c):
    base = triplet_loss(T(s), alpha=0.2).item()
    shifted = triplet_loss(T(np.asarray(s) + c), alpha=0.2).item()
    assert abs(base - shifted) < 1e-10


@settings(max_examples=60, deadline=None)
@given(score_matrices, st.integers(min_value=0, max_value=10 ** 9))
def test_triplet_loss_pair_permutation_invariance(s, perm_seed):
    s = np.asarray(s)
    perm = np.random.default_rng(perm_seed).permutation(s.shape[0])
    base = triplet_loss(T(s), alpha=0.2).item()
    permuted = triplet_loss(T(s[np.ix_(perm, perm)]), alpha=0.2).item()
    assert abs(base - permuted) < 1e-12


def test_triplet_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    s = ag.Tensor(rng.uniform(-0.4, 0.4, (3, 3)), requires_grad=True)
    err = ag.grad_check(lambda: triplet_loss(s, alpha=0.37), {"s": s})
    assert err < 1e-6


# -------------------------------------------------------------- composition

def test_total_loss_combines_branches():
    s_f = T([[0.5, 0.6], [0.4, 0.7]])
    s_g = T([[0.3, 0.3], [0.3, 0.3]])
    total, loss_f, loss_g = total_loss(s_f, s_g, alpha=0.2, lambda_g=10.0)
    assert loss_f.item() == 0.5
    assert loss_g.item() == pytest.approx(0.8, abs=1e-15)
    assert total.item() == pytest.approx(0.5 + 10.0 * 0.8, abs=1e-12)


def test_total_loss_zero_weight_ignores_global_branch():
    s = T([[0.3, 0.3], [0.3, 0.3]])
    total, loss_f, _ = total_loss(s, s, alpha=0.2, lambda_g=0.0)
    assert total.item() == loss_f.item()
