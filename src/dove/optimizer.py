"""Adam with bias correction and the stepped learning-rate schedule."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParamRegistry
from .workers import run_in_order

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class NumericAbort(RuntimeError):
    """Training hit a non-finite loss or gradient, or a degenerate code."""


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_adam(reg: ParamRegistry) -> AdamState:
    state = AdamState()
    for name, t in reg.tensors().items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adam_step(reg: ParamRegistry, state: AdamState, lr: float,
              parallel: bool = False):
    """One update over every registered parameter; missing grads are zero.

    Every gradient is checked first: a non-finite one raises
    ``NumericAbort`` naming the first such parameter in registry order,
    with the parameters, the moments and ``state.t`` untouched.  Each
    parameter's update runs the textbook operations in their usual
    order, written into one work array and the step array, and changes
    ``t.data`` in place.  With ``parallel`` the checks and the updates
    are shared between worker threads (``workers.run_in_order``); each
    update reads and writes only its own parameter's arrays, so the
    bits do not depend on the worker count.
    """
    params = list(reg.tensors().items())
    finite = run_in_order(
        lambda i: params[i][1].grad is None
        or bool(np.all(np.isfinite(params[i][1].grad))),
        len(params), parallel)
    if not all(finite):
        raise NumericAbort(
            f"non-finite gradient in {params[finite.index(False)][0]}")
    state.t += 1
    correct1 = 1.0 - BETA1 ** state.t
    correct2 = 1.0 - BETA2 ** state.t

    def update(i):
        name, t = params[i]
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        m = state.m[name]
        v = state.v[name]
        tmp = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += tmp                                # m = b1 m + (1 - b1) g
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - BETA2
        v *= BETA2
        v += tmp                                # v = b2 v + (1 - b2) g^2
        np.divide(v, correct2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += EPS                              # sqrt(v_hat) + eps
        step = np.divide(m, correct1)
        step *= lr
        step /= tmp                             # lr m_hat / (...)
        t.data -= step

    run_in_order(update, len(params), parallel)


def lr_at(lr0: float, decay_factor: float, decay_every: int, epoch: int) -> float:
    """Piecewise-constant schedule: lr0 * factor^(epoch // every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * decay_factor ** (epoch // decay_every)
