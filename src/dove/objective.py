"""Cosine similarity and the dual triplet-ranking objective.

The ranking loss sums hinge violations over every in-batch negative in
both retrieval directions:

    L(S) = sum_i sum_{j != i} [alpha - S_ii + S_ij]_+ + [alpha - S_ii + S_ji]_+

and the full objective combines the fused-branch and global-branch
score matrices as L(S_final) + lambda_g * L(S_global).  The positives
-S_ii are one (B, 1) column: added as it is, it subtracts each row's
positive, and added as a (1, B) row, each column's.
"""
from __future__ import annotations

import numpy as np

from . import autograd as ag
from .autograd import Tensor


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosines between rows of a (m, d) and rows of b (n, d).

    Raises DegenerateVectorError when a row has near-zero norm.
    """
    return ag.matmul(ag.normalize_rows(a), ag.transpose(ag.normalize_rows(b)))


def triplet_loss(s: Tensor, alpha: float) -> Tensor:
    """Bidirectional hinge loss over a (B, B) score matrix.

    Row i scores image i against every text; the diagonal holds the
    positives.  Both directions sum over all B-1 negatives.
    """
    if s.data.ndim != 2 or s.data.shape[0] != s.data.shape[1]:
        raise ag.DimensionError(f"triplet_loss expects a square matrix, "
                                f"got {s.data.shape}")
    b = s.data.shape[0]
    if b < 2:
        raise ag.DimensionError("triplet_loss needs at least 2 pairs")
    off = ag.constant(1.0 - np.eye(b))
    neg = ag.mul(ag.take_diag(s), -1.0)  # (B, 1): -S_ii
    # (S_ij - S_ii) + alpha: margins first, then the offset, so that
    # score grids written with short decimals hinge to exact short
    # decimals as well
    by_image = ag.add(ag.add(s, neg), alpha)
    # (S_ij - S_jj) + alpha: same, with the column laid along the row
    by_text = ag.add(ag.add(s, ag.transpose(neg)), alpha)
    hinge = ag.add(ag.relu(ag.mul(by_image, off)), ag.relu(ag.mul(by_text, off)))
    return ag.reduce_sum(hinge)


def total_loss(s_final: Tensor, s_global: Tensor, alpha: float,
               lambda_g: float) -> tuple[Tensor, Tensor, Tensor]:
    """(total, final-branch, global-branch) loss tensors."""
    loss_final = triplet_loss(s_final, alpha)
    loss_global = triplet_loss(s_global, alpha)
    total = ag.add(loss_final, ag.mul(loss_global, lambda_g))
    return total, loss_final, loss_global
