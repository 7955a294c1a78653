"""Adam with bias correction and the stepped learning-rate schedule."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .params import ParamRegistry

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


def adam_step(reg: ParamRegistry, state: AdamState, lr: float):
    """One update over every registered parameter; missing grads are zero.

    Each parameter's update runs the textbook operations in their usual
    order, written into one work array and the step array, and
    changes ``t.data`` in place.
    """
    state.t += 1
    t = state.t
    correct1 = 1.0 - BETA1 ** t
    correct2 = 1.0 - BETA2 ** t
    for name, t in reg.tensors().items():
        g = t.grad
        if g is None:
            g = np.zeros_like(t.data)
        elif not np.all(np.isfinite(g)):
            raise NumericAbort(f"non-finite gradient in {name}")
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


def lr_at(lr0: float, decay_factor: float, decay_every: int, epoch: int) -> float:
    """Piecewise-constant schedule: lr0 * factor^(epoch // every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * decay_factor ** (epoch // decay_every)
