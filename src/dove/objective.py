"""Cosine similarity and the dual triplet-ranking objective.

The ranking loss sums hinge violations over every in-batch negative in
both retrieval directions:

    L(S) = sum_i sum_{j != i} [alpha - S_ii + S_ij]_+ + [alpha - S_ii + S_ji]_+

and the full objective combines the fused-branch and global-branch
score matrices as L(S_final) + lambda_g * L(S_global).
"""
from __future__ import annotations

from . import autograd as ag
from .autograd import Tensor


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosines between rows of a (m, d) and b (n, d), one node.

    Raises DegenerateVectorError when a row has near-zero norm.
    """
    return ag.cosine_grid(a, b)


def triplet_loss(s: Tensor, alpha: float) -> Tensor:
    """Bidirectional hinge loss over a (B, B) score matrix.

    Row i scores image i against every text; the diagonal holds the
    positives.  Both directions sum over all B-1 negatives.
    """
    return ag.reduce_sum(ag.triplet_hinge(s, alpha))


def total_loss(s_final: Tensor, s_global: Tensor, alpha: float,
               lambda_g: float) -> tuple[Tensor, Tensor, Tensor]:
    """(total, final-branch, global-branch) loss tensors."""
    loss_final = triplet_loss(s_final, alpha)
    loss_global = triplet_loss(s_global, alpha)
    total = ag.add(loss_final, ag.mul(loss_global, lambda_g))
    return total, loss_final, loss_global
