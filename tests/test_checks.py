"""Self-check harness: micro fixtures and module-level gradient sweeps."""
from __future__ import annotations

import numpy as np

from dove import autograd as ag
from dove import checks
from dove.checks import (GRADCHECK_TOLERANCE, MICRO, gradcheck_report,
                         micro_fixture, module_gradcheck)

# autograd's public names that are not differentiable ops
NOT_OPS = ("Tensor", "DimensionError", "DegenerateVectorError",
           "GraphConsumedError", "no_grad", "constant", "grad_check")


def test_micro_shapes():
    model, batch = micro_fixture(seed=0)
    assert batch.msv.shape == (MICRO["batch"], MICRO["n_m"], MICRO["d_in"])
    assert batch.roi.shape == (MICRO["batch"], MICRO["n_r"], MICRO["d_r"])
    assert len(batch.captions) == MICRO["batch"]
    assert model.cfg.d == MICRO["d"]
    assert all(1 <= t < MICRO["vocab"] for cap in batch.captions for t in cap)


def test_micro_fixture_is_deterministic():
    model_a, batch_a = micro_fixture(seed=0)
    model_b, batch_b = micro_fixture(seed=0)
    assert np.array_equal(batch_a.msv, batch_b.msv)
    assert batch_a.captions == batch_b.captions
    for name, t in model_a.reg.tensors().items():
        assert np.array_equal(t.data, model_b.reg.tensors()[name].data)
    _, batch_c = micro_fixture(seed=1)
    assert not np.array_equal(batch_a.msv, batch_c.msv)


def test_module_gradients_agree_with_finite_differences():
    report = module_gradcheck(seed=0, max_coords=4)
    assert set(report) == {"visual-encoder", "text-encoder", "gated-attention",
                           "roam", "objective-full"}
    for module, err in report.items():
        assert err < GRADCHECK_TOLERANCE, f"{module}: {err}"


def test_full_report_includes_the_primitive_sweep():
    report = gradcheck_report(seed=0, max_coords=2)
    assert "autograd-primitives" in report
    assert len(report) == 6
    assert all(err < GRADCHECK_TOLERANCE for err in report.values())


def test_every_primitive_has_a_gradient_audit(monkeypatch):
    # an op counts when it is applied to the very tensors grad_check
    # differentiates, not when it only builds the weighted loss around one
    assert set(NOT_OPS) <= set(ag.__all__)
    ops = [name for name in ag.__all__ if name not in NOT_OPS]
    audited, checked = set(), []
    grad_check = checks.grad_check

    def auditing(loss_fn, params, **kwargs):
        checked[:] = params.values()
        return grad_check(loss_fn, params, **kwargs)

    def recording(name, op):
        def call(*args, **kwargs):
            if any(a is t for a in args for t in checked):
                audited.add(name)
            return op(*args, **kwargs)
        return call

    monkeypatch.setattr(checks, "grad_check", auditing)
    for name in ops:
        monkeypatch.setattr(ag, name, recording(name, getattr(ag, name)))
    checks.primitive_gradcheck(seed=0)
    assert [name for name in ops if name not in audited] == []


def test_every_primitive_has_an_engine_caller(monkeypatch):
    # a primitive that only tests call is dead product code
    ops = [name for name in ag.__all__ if name not in NOT_OPS]
    called = set()

    def recording(name, op):
        def call(*args, **kwargs):
            called.add(name)
            return op(*args, **kwargs)
        return call

    for name in ops:
        monkeypatch.setattr(ag, name, recording(name, getattr(ag, name)))
    model, batch = micro_fixture(seed=0)
    model.batch_losses(batch)[0].backward()
    assert [name for name in ops if name not in called] == []
