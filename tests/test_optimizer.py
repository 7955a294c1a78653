"""Adam updates and the stepped learning-rate schedule."""
from __future__ import annotations

import numpy as np
import pytest

import oracles
from dove.optimizer import (BETA1, BETA2, EPS, NumericAbort, adam_step,
                            init_adam, lr_at)
from dove.params import ParamRegistry


def registry_with(values):
    reg = ParamRegistry(seed=0)
    for name, arr in values.items():
        arr = np.asarray(arr, dtype=np.float64)
        t = (reg.matrix(name, *arr.shape) if arr.ndim == 2
             else reg.bias(name, arr.shape[0]))
        t.data = arr.copy()
    return reg


def test_constants():
    assert (BETA1, BETA2, EPS) == (0.9, 0.999, 1e-8)


def test_first_step_is_signed_and_bias_corrected():
    # after one step: m_hat = g, v_hat = g*g, so the update is almost
    # exactly lr * sign(g), shrunk only by eps
    reg = registry_with({"w": np.array([1.0, -2.0, 3.0])})
    state = init_adam(reg)
    g = np.array([0.5, -0.25, 1e-3])
    reg["w"].grad = g.copy()
    adam_step(reg, state, lr=0.1)
    want = np.array([1.0, -2.0, 3.0]) - 0.1 * g / (np.abs(g) + EPS)
    assert np.allclose(reg["w"].data, want, atol=1e-12)
    assert state.t == 1


def test_two_steps_match_hand_computation():
    reg = registry_with({"w": np.array([1.0])})
    state = init_adam(reg)
    grads = [np.array([0.5]), np.array([-0.2])]
    for g in grads:
        reg["w"].grad = g.copy()
        adam_step(reg, state, lr=0.1)
    want = oracles.adam_run(np.array([1.0]), grads, lr=0.1)
    assert np.allclose(reg["w"].data, want, atol=1e-15)
    assert state.t == 2


@pytest.mark.parametrize("seed", range(10))
def test_adam_matches_oracle_over_a_trajectory(seed):
    rng = np.random.default_rng(seed)
    theta0 = rng.uniform(-1, 1, (3, 4))
    reg = registry_with({"w": theta0})
    state = init_adam(reg)
    grads = [rng.uniform(-1, 1, (3, 4)) for _ in range(6)]
    for g in grads:
        reg["w"].grad = g.copy()
        adam_step(reg, state, lr=0.05)
    assert np.allclose(reg["w"].data, oracles.adam_run(theta0, grads, 0.05),
                       atol=1e-13)


def test_missing_gradient_is_a_zero_gradient():
    reg = registry_with({"w": np.array([2.0]), "frozen": np.array([5.0])})
    state = init_adam(reg)
    reg["w"].grad = np.array([1.0])
    adam_step(reg, state, lr=0.1)
    assert reg["frozen"].data[0] == 5.0  # zero moment, zero update
    assert reg["w"].data[0] != 2.0
    # ...but its moments still decay like a real zero-gradient step
    reg["w"].grad = None
    adam_step(reg, state, lr=0.1)
    assert state.t == 2


def test_adam_step_is_the_written_out_formula_bit_for_bit():
    # three steps over a matrix, a bias and a parameter with no gradient,
    # against the formula as written, operation for operation
    rng = np.random.default_rng(11)
    theta = {"w": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, 4),
             "frozen": rng.uniform(-1, 1, (2, 2))}
    reg = registry_with(theta)
    state = init_adam(reg)
    want = {k: v.copy() for k, v in theta.items()}
    m = {k: np.zeros_like(v) for k, v in theta.items()}
    v = {k: np.zeros_like(x) for k, x in theta.items()}
    lr = 0.01
    for step in range(1, 4):
        grads = {"w": rng.uniform(-1, 1, (3, 4)), "b": rng.uniform(-1, 1, 4),
                 "frozen": None}
        for k, g in grads.items():
            reg[k].grad = None if g is None else g.copy()
        adam_step(reg, state, lr)
        for k, g in grads.items():
            g = np.zeros_like(want[k]) if g is None else g
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * (g * g)
            m_hat = m[k] / (1.0 - BETA1 ** step)
            v_hat = v[k] / (1.0 - BETA2 ** step)
            want[k] = want[k] - lr * m_hat / (np.sqrt(v_hat) + EPS)
    for k in theta:
        assert np.array_equal(reg[k].data, want[k]), k
        assert np.array_equal(state.m[k], m[k]), k
        assert np.array_equal(state.v[k], v[k]), k
    assert np.array_equal(reg["frozen"].data, theta["frozen"])


def test_nonfinite_gradient_aborts():
    reg = registry_with({"w": np.array([1.0])})
    state = init_adam(reg)
    reg["w"].grad = np.array([np.nan])
    with pytest.raises(NumericAbort, match="w"):
        adam_step(reg, state, lr=0.1)


@pytest.mark.parametrize("parallel", [False, True])
def test_a_nonfinite_gradient_changes_nothing(parallel):
    # every gradient is checked before any parameter, moment or the step
    # count moves, and the error names the first bad one in registry order
    rng = np.random.default_rng(4)
    reg = registry_with({"w": rng.uniform(-1, 1, (3, 4)),
                         "b": rng.uniform(-1, 1, 4),
                         "last": rng.uniform(-1, 1, (2, 2))})
    state = init_adam(reg)
    for t in reg.tensors().values():
        t.grad = rng.uniform(-1, 1, t.data.shape)
    adam_step(reg, state, lr=0.1, parallel=parallel)  # nonzero moments
    before = [{k: a.copy() for k, a in arrays.items()} for arrays in (
        {k: t.data for k, t in reg.tensors().items()}, state.m, state.v)]
    for t in reg.tensors().values():
        t.grad = rng.uniform(-1, 1, t.data.shape)
    reg["last"].grad[1, 0] = np.nan
    with pytest.raises(NumericAbort, match="in last$"):
        adam_step(reg, state, lr=0.1, parallel=parallel)
    reg["b"].grad[2] = np.inf
    with pytest.raises(NumericAbort, match="in b$"):
        adam_step(reg, state, lr=0.1, parallel=parallel)
    after = ({k: t.data for k, t in reg.tensors().items()}, state.m, state.v)
    for want, got in zip(before, after):
        assert want.keys() == got.keys()
        assert all(np.array_equal(want[k], got[k]) for k in want)
    assert state.t == 1


def test_state_tracks_every_parameter():
    reg = registry_with({"a": np.zeros((2, 2)), "b": np.zeros(3)})
    state = init_adam(reg)
    assert set(state.m) == {"a", "b"} and set(state.v) == {"a", "b"}
    assert state.m["a"].shape == (2, 2)


# ----------------------------------------------------------------- schedule

def test_lr_schedule_pinned_values():
    assert lr_at(0.0002, 0.7, 20, 0) == pytest.approx(0.0002, rel=1e-12)
    assert lr_at(0.0002, 0.7, 20, 20) == pytest.approx(0.00014, rel=1e-12)
    assert lr_at(0.0002, 0.7, 20, 40) == pytest.approx(0.000098, rel=1e-12)


def test_lr_schedule_is_piecewise_constant():
    assert lr_at(0.1, 0.5, 10, 9) == 0.1
    assert lr_at(0.1, 0.5, 10, 10) == pytest.approx(0.05)
    assert lr_at(0.1, 0.5, 10, 19) == pytest.approx(0.05)


def test_lr_schedule_monotone_nonincreasing():
    values = [lr_at(0.01, 0.7, 3, e) for e in range(30)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(ValueError):
        lr_at(0.1, 0.5, 10, -1)
