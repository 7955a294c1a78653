"""Parameter registry: order-free init, Glorot bounds, checkpoint restore."""
from __future__ import annotations

import numpy as np
import pytest

from dove import params
from dove.params import ParamRegistry, init_values


def test_init_independent_of_registration_order():
    a = ParamRegistry(seed=9)
    a.matrix("one.w", 5, 3)
    a.matrix("two.w", 4, 4)
    a.bias("one.b", 3)

    b = ParamRegistry(seed=9)
    b.bias("one.b", 3)
    b.matrix("two.w", 4, 4)
    b.matrix("one.w", 5, 3)

    for name in ("one.w", "two.w", "one.b"):
        assert np.array_equal(a[name].data, b[name].data)


def test_init_depends_on_name_and_seed():
    reg = ParamRegistry(seed=0)
    w1 = reg.matrix("a.w", 4, 4)
    w2 = reg.matrix("b.w", 4, 4)
    assert not np.array_equal(w1.data, w2.data)
    other = ParamRegistry(seed=1)
    assert not np.array_equal(other.matrix("a.w", 4, 4).data, w1.data)


def test_glorot_bound_matrix():
    arr = init_values("x.w", (30, 50), seed=3)
    bound = np.sqrt(6.0 / (30 + 50))
    assert np.all(np.abs(arr) <= bound)
    # draws genuinely spread over the interval rather than collapsing
    assert arr.std() > bound / 4
    assert arr.min() < -bound / 2 < bound / 2 < arr.max()


def test_biases_draw_nothing(monkeypatch):
    drawn = []
    monkeypatch.setattr(params, "init_values",
                        lambda *args: drawn.append(args[0]) or np.ones(args[1]))
    reg = ParamRegistry(seed=5)
    assert np.array_equal(reg.bias("b", 7).data, np.zeros(7))
    reg.matrix("w", 2, 7)
    assert drawn == ["w"]


def test_biases_start_at_zero_and_require_grad():
    reg = ParamRegistry(seed=2)
    b = reg.bias("m.b", 6)
    assert np.array_equal(b.data, np.zeros(6))
    assert b.requires_grad
    assert reg.matrix("m.w", 2, 6).requires_grad


def test_duplicate_name_rejected():
    reg = ParamRegistry(seed=0)
    reg.matrix("m.w", 2, 2)
    with pytest.raises(ValueError):
        reg.bias("m.w", 2)


def test_registry_views():
    reg = ParamRegistry(seed=0)
    reg.matrix("a.w", 2, 3)
    reg.bias("a.b", 3)
    assert len(reg) == 2
    assert "a.w" in reg and "zzz" not in reg
    tensors = reg.tensors()
    assert list(tensors) == ["a.w", "a.b"]
    assert tensors["a.b"] is reg["a.b"]


def test_zero_grad_clears_gradients():
    reg = ParamRegistry(seed=0)
    w = reg.matrix("a.w", 2, 2)
    w.grad = np.ones((2, 2))
    reg.zero_grad()
    assert w.grad is None


def _register_pair(reg):
    reg.matrix("a.w", 3, 3)
    reg.bias("a.b", 3)
    reg.check_complete()
    return reg


def test_given_values_round_trip_and_mismatches():
    values = {"a.w": np.full((3, 3), 2.0), "a.b": np.arange(3.0)}
    reg = _register_pair(ParamRegistry(seed=4, values=values))
    assert list(reg.tensors()) == ["a.w", "a.b"]
    assert np.array_equal(reg["a.w"].data, values["a.w"])
    assert np.array_equal(reg["a.b"].data, values["a.b"])

    with pytest.raises(ValueError, match="missing 'a.b'"):
        _register_pair(ParamRegistry(4, {"a.w": np.zeros((3, 3))}))
    with pytest.raises(ValueError, match="extra"):
        _register_pair(ParamRegistry(4, dict(values, extra=np.zeros(2))))
    with pytest.raises(ValueError, match="for a.w"):
        _register_pair(ParamRegistry(4, {"a.w": np.zeros((2, 3)),
                                         "a.b": np.zeros(3)}))


def test_given_values_are_copied():
    src = np.array([1.0, 2.0])
    reg = ParamRegistry(seed=4, values={"a.b": src})
    reg.bias("a.b", 2)
    src[0] = 99.0
    assert reg["a.b"].data[0] == 1.0
