"""Gated multi-head self-attention and the dual-branch text enhancer.

Per head (width d_h = d / heads) over the (n, d) rows X of a sequence:

    Q = X W_q + b_q,  K = X W_k + b_k,  V = X W_v + b_v
    G = sigmoid((Q * K) W_a + b_a)          -- multiplicative gate
    out = softmax_rows((G*Q) (G*K)^T / sqrt(d_h)) V

Head outputs are concatenated along the feature axis; there is no extra
output projection.  Each head owns its gate parameters.  A batch of
sequences is (N, d) packed rows laid out by an ``autograd.Packing``:
every map acts on the real rows only, and just the score, softmax and
value products see the sequences as a zero-padded (b, T, d_h) batch,
with padded keys masked out before the softmax, so a real row never
attends to padding.

The dual-branch enhancer runs two mirrored branches over an input pair
(A, B).  A branch self-attends A with a residual, turns B's
self-attention into a (0,1) probability mask through a two-layer map
with a terminal sigmoid, and multiplies the two.  Branch outputs are
summed and passed through a residual two-layer decoder.  Branches (and
the two attention instances inside a branch) have independent
parameters.
"""
from __future__ import annotations

import math

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
                         heads: int, packing: ag.Packing | None = None
                         ) -> Tensor:
    """(N, d) packed rows -> (N, d), one sequence when ``packing`` is
    None; see the module docstring for the head math."""
    d = x.data.shape[-1]
    if d % heads != 0:
        raise ag.DimensionError(f"width {d} not divisible by {heads} heads")
    if packing is None:
        packing = ag.Packing([x.data.shape[0]])
    d_h = d // heads
    inv_sqrt = 1.0 / math.sqrt(d_h)
    outs = []
    for k in range(heads):
        p = f"{prefix}.h{k}"
        q = ag.affine(x, reg[f"{p}.w_q"], reg[f"{p}.b_q"])
        key = ag.affine(x, reg[f"{p}.w_k"], reg[f"{p}.b_k"])
        v = ag.affine(x, reg[f"{p}.w_v"], reg[f"{p}.b_v"])
        gate = ag.sigmoid(ag.affine(ag.mul(q, key), reg[f"{p}.w_a"],
                                    reg[f"{p}.b_a"]))
        scores = ag.mul(ag.matmul(
            ag.unpack(ag.mul(gate, q), packing),
            ag.transpose(ag.unpack(ag.mul(gate, key), packing))), inv_sqrt)
        outs.append(ag.matmul(ag.softmax_rows(scores, packing),
                              ag.unpack(v, packing)))
    return ag.pack(ag.concat(*outs, axis=-1), packing)


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
            heads: int, packing: ag.Packing | None) -> Tensor:
    """``x`` self-attended with a residual, times ``y``'s probe mask."""
    enhanced = ag.add(gated_self_attention(x, reg, f"{prefix}.self_attn",
                                           heads, packing), x)
    probe = gated_self_attention(y, reg, f"{prefix}.probe_attn", heads,
                                 packing)
    return ag.mul(enhanced, ag.sigmoid(two_layer(probe, reg, f"{prefix}.prob")))


def dtga(a: Tensor, b: Tensor, reg: ParamRegistry, heads: int,
         packing: ag.Packing | None = None) -> Tensor:
    """Dual-branch enhancement of the input pair (a, b): the output rows."""
    combined = ag.add(_branch(a, b, reg, "dtga.fwd", heads, packing),
                      _branch(b, a, reg, "dtga.bwd", heads, packing))
    return ag.add(two_layer(combined, reg, "dtga.decode"), combined)


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
                  heads: int, mode: str = "fb", disabled: bool = False,
                  packing: ag.Packing | None = None) -> Tensor:
    """Word-level text features; the disabled path averages the streams."""
    if disabled:
        return select_inputs(h_forward, h_backward, "avg")[0]
    a, b = select_inputs(h_forward, h_backward, mode)
    return dtga(a, b, reg, heads, packing)
