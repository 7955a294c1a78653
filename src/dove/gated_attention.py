"""Gated multi-head self-attention and the dual-branch text enhancer.

An attention instance splits width d into heads of d_h = d / heads, each
gating its queries and keys by a sigmoid of their product, and runs as
one graph node (``autograd.gated_attention``, which gives the math).
Head outputs are concatenated along the feature axis; there is no extra
output projection.  A batch of sequences is (N, d) packed rows laid out
by an ``autograd.Packing``: only the score, softmax and value products
see them as a zero-padded batch, and padded keys are masked out before
the softmax, so a real row never attends to padding.

The dual-branch enhancer runs two mirrored branches over an input pair
(A, B).  A branch self-attends A with a residual, turns B's
self-attention into a (0,1) probability mask through a two-layer map
with a terminal sigmoid, and multiplies the two.  Branch outputs are
summed and passed through a residual two-layer decoder.  Branches (and
the two attention instances inside a branch) have independent
parameters.
"""
from __future__ import annotations

from . import autograd as ag
from .autograd import Tensor
from .params import ParamRegistry, two_layer

BRANCHES = ("fwd", "bwd")


def register_ga_params(reg: ParamRegistry, prefix: str, d: int, heads: int):
    d_h = d // heads
    for k in range(heads):
        p = f"{prefix}.h{k}"
        for part in ("q", "k", "v"):
            reg.matrix(f"{p}.w_{part}", d, d_h)
            reg.bias(f"{p}.b_{part}", d_h)
        reg.matrix(f"{p}.w_a", d_h, d_h)
        reg.bias(f"{p}.b_a", d_h)


def gated_self_attention(x: Tensor, reg: ParamRegistry, prefix: str,
                         heads: int, packing: ag.Packing) -> Tensor:
    """(N, d) packed rows laid out by ``packing`` -> (N, d)."""
    d = x.data.shape[-1]
    if d % heads != 0:
        raise ag.DimensionError(f"width {d} not divisible by {heads} heads")
    return ag.gated_attention(x, packing, [
        # each head's w_q, b_q, w_k, b_k, w_v, b_v, w_a, b_a
        [reg[f"{prefix}.h{k}.{wb}_{part}"] for part in "qkva" for wb in "wb"]
        for k in range(heads)])


def _register_map(reg: ParamRegistry, prefix: str, d: int):
    # w1, w2, b1, b2: this order fixes the checkpoint bytes
    for name in ("w1", "w2"):
        reg.matrix(f"{prefix}.{name}", d, d)
    for name in ("b1", "b2"):
        reg.bias(f"{prefix}.{name}", d)


def register_dtga_params(reg: ParamRegistry, d: int, heads: int):
    for branch in BRANCHES:
        register_ga_params(reg, f"dtga.{branch}.self_attn", d, heads)
        register_ga_params(reg, f"dtga.{branch}.probe_attn", d, heads)
        _register_map(reg, f"dtga.{branch}.prob", d)
    _register_map(reg, "dtga.decode", d)


def _branch(x: Tensor, y: Tensor, reg: ParamRegistry, prefix: str,
            heads: int, packing: ag.Packing) -> Tensor:
    """``x`` self-attended with a residual, times ``y``'s probe mask."""
    enhanced = ag.add(gated_self_attention(x, reg, f"{prefix}.self_attn",
                                           heads, packing), x)
    probe = gated_self_attention(y, reg, f"{prefix}.probe_attn", heads,
                                 packing)
    return ag.mul(enhanced, two_layer(probe, reg, f"{prefix}.prob", "sigmoid"))


def dtga(a: Tensor, b: Tensor, reg: ParamRegistry, heads: int,
         packing: ag.Packing) -> Tensor:
    """Dual-branch enhancement of the input pair (a, b): the output rows."""
    combined = ag.add(_branch(a, b, reg, "dtga.fwd", heads, packing),
                      _branch(b, a, reg, "dtga.bwd", heads, packing))
    return two_layer(combined, reg, "dtga.decode", "residual")


def select_inputs(h_forward: Tensor, h_backward: Tensor,
                  mode: str) -> tuple[Tensor, Tensor]:
    """Which recurrent streams feed the two branches."""
    if mode == "ff":
        return h_forward, h_forward
    if mode == "bb":
        return h_backward, h_backward
    if mode == "fb":
        return h_forward, h_backward
    if mode == "avg":
        avg = ag.mul(ag.add(h_forward, h_backward), 0.5)
        return avg, avg
    raise ValueError(f"unknown input mode {mode!r}")


def word_features(h_forward: Tensor, h_backward: Tensor, reg: ParamRegistry,
                  heads: int, mode: str, disabled: bool,
                  packing: ag.Packing) -> Tensor:
    """Word-level text features; the disabled path averages the streams."""
    if disabled:
        return select_inputs(h_forward, h_backward, "avg")[0]
    a, b = select_inputs(h_forward, h_backward, mode)
    return dtga(a, b, reg, heads, packing)
