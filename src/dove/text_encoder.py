"""Token embedding lookup and bidirectional GRU encoding.

The embedding table is ingested data (not a learned parameter).  A
batch of captions is one (N, 300) array of packed rows, time-major and
longest caption first, laid out by an ``autograd.Packing`` built from
their lengths: table rows are gathered straight into that order, and it
holds real tokens only, so every map computes real rows only.  Padding
appears only inside the attention downstream (see ``gated_attention``),
and each caption's ``T_G`` is one product of the packing's averaging
matrix with the word features.  Both GRU directions share the structure

    z_t = sigmoid(e_t W_z + h_{t-1} U_z + b_z)
    r_t = sigmoid(e_t W_r + h_{t-1} U_r + b_r)
    c_t = tanh(e_t W_h + (r_t * h_{t-1}) U_h + b_h)
    h_t = (1 - z_t) * h_{t-1} + z_t * c_t

with h_0 = 0.  The backward direction scans each caption end-to-start,
from its own last token, and stores its state at the position it just
consumed.  Each direction projects the whole batch through its W maps in
one product, then runs the recurrence as one fused graph node
(``autograd.gru_scan``) that steps only the captions still live at each
position and whose backward pass is hand-written backpropagation through
time, so the graph grows with neither caption length nor batch size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .dataio import EMBED_DIM
from .params import ParamRegistry

GATE_NAMES = ("z", "r", "h")


class TokenError(ValueError):
    """Token ids are empty or outside the embedding table."""


@dataclass
class HiddenStates:
    forward: Tensor   # (N, d) packed rows
    backward: Tensor  # likewise


def register_gru_params(reg: ParamRegistry, d: int):
    for direction in ("fwd", "bwd"):
        for gate in GATE_NAMES:
            reg.matrix(f"text.gru.{direction}.w_{gate}", EMBED_DIM, d)
            reg.matrix(f"text.gru.{direction}.u_{gate}", d, d)
            reg.bias(f"text.gru.{direction}.b_{gate}", d)


def embed_tokens(token_ids: list[int], table: np.ndarray) -> Tensor:
    """Look up rows of the embedding table as a constant (n_tokens, 300)."""
    if len(token_ids) == 0:
        raise TokenError("caption has no tokens")
    n_rows = table.shape[0]
    for t in token_ids:
        if not 0 <= t < n_rows:
            raise TokenError(f"token id {t} outside table of {n_rows} rows")
    return ag.constant(table[list(token_ids)])


def embed_captions(token_lists: list[list[int]],
                   table: np.ndarray) -> tuple[Tensor, ag.Packing]:
    """Captions, longest first, as one constant (N, 300) of packed rows
    and their packing."""
    rows = [embed_tokens(ids, table).data for ids in token_lists]
    packing = ag.Packing([len(r) for r in rows])
    e = np.empty((packing.index.size, EMBED_DIM))
    for i, r in enumerate(rows):
        e[packing.offsets[:len(r)] + i] = r
    return ag.constant(e), packing


def _scan(e: Tensor, reg: ParamRegistry, prefix: str, reverse: bool,
          packing: ag.Packing) -> Tensor:
    # project every token through the input-side maps in one shot
    x_z = ag.affine(e, reg[f"{prefix}.w_z"], reg[f"{prefix}.b_z"])
    x_r = ag.affine(e, reg[f"{prefix}.w_r"], reg[f"{prefix}.b_r"])
    x_h = ag.affine(e, reg[f"{prefix}.w_h"], reg[f"{prefix}.b_h"])
    return ag.gru_scan(x_z, x_r, x_h, reg[f"{prefix}.u_z"],
                       reg[f"{prefix}.u_r"], reg[f"{prefix}.u_h"], reverse,
                       packing)


def bigru(e: Tensor, reg: ParamRegistry, packing: ag.Packing) -> HiddenStates:
    """Hidden states of both directions, one packed row per token of the
    (N, 300) packed rows ``e`` laid out by ``packing``."""
    if e.data.ndim != 2 or e.data.shape[1] != EMBED_DIM:
        raise ag.DimensionError(
            f"bigru expects (N, {EMBED_DIM}) packed rows, got {e.data.shape}")
    return HiddenStates(
        forward=_scan(e, reg, "text.gru.fwd", False, packing),
        backward=_scan(e, reg, "text.gru.bwd", True, packing),
    )
