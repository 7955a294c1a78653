"""Full cross-modal model: encoders, fusion, guidance, and batch scores.

One model instance owns a parameter registry shaped by its config (head
kinds, ablation switches) plus the frozen embedding table.  Image rows
and captions are encoded per sample; pair scores are cosines, assembled
by ``Model.score_matrices`` into (images, captions) matrices for the two
ranking branches:

    S_global[i][j] = cos(V_M_i, T_G_j)
    S_final[i][j]  = cos(V_MR_i, T_RG(i, j))

where T_RG(i, j) is the guidance output for that specific pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import gated_attention as ga
from . import roam
from . import text_encoder as te
from . import visual_encoder as ve
from .autograd import Tensor
from .batching import Batch
from .config import TrainConfig
from .objective import cosine_matrix, total_loss
from .params import ParamRegistry


@dataclass
class ImageCode:
    f_m: Tensor    # (n_m, d) projected multiscale rows
    f_r: Tensor    # (n_r, d) projected region rows
    f_mr: Tensor   # fused rows
    v_m: Tensor    # (d,) pooled multiscale embedding
    v_r: Tensor    # (d,) pooled region embedding
    v_mr: Tensor   # (d,) pooled fused embedding


@dataclass
class CaptionCode:
    f_g: Tensor    # (n_tokens, d) word-level features
    t_g: Tensor    # (d,) pooled text embedding


class Model:
    def __init__(self, cfg: TrainConfig, embedding: np.ndarray):
        cfg.validate()
        if embedding.ndim != 2 or embedding.shape[1] != te.EMBED_DIM:
            raise ValueError(f"embedding table must be (vocab, {te.EMBED_DIM}), "
                             f"got {embedding.shape}")
        self.cfg = cfg
        self.embedding = np.asarray(embedding, dtype=np.float64)
        self.reg = ParamRegistry(cfg.seed)
        self.d_in = None   # fixed on first image batch
        self.d_r = None

    def bind_feature_widths(self, d_in: int, d_r: int):
        """Register all parameters once the bank widths are known."""
        if self.d_in is not None:
            if (d_in, d_r) != (self.d_in, self.d_r):
                raise ValueError(
                    f"feature widths changed: ({d_in}, {d_r}) vs "
                    f"({self.d_in}, {self.d_r})")
            return
        self.d_in, self.d_r = d_in, d_r
        cfg = self.cfg
        ve.register_visual_params(self.reg, cfg.d, d_in, d_r)
        te.register_gru_params(self.reg, cfg.d)
        if not cfg.no_dtga:
            ga.register_dtga_params(self.reg, cfg.d, cfg.heads)
        if not cfg.no_ifa:
            roam.register_ifa_params(self.reg, cfg.d, cfg.ifa_head)
        if not cfg.no_iga:
            roam.register_iga_params(self.reg, cfg.d, cfg.iga_head)

    # ------------------------------------------------------------ encoders

    def encode_image(self, msv: np.ndarray, roi: np.ndarray) -> ImageCode:
        self.bind_feature_widths(msv.shape[1], roi.shape[1])
        f_m = ve.msv_project(ag.constant(msv), self.reg)
        f_r = ve.roi_project(ag.constant(roi), self.reg)
        f_mr = roam.fuse_visual(f_m, f_r, self.reg, self.cfg.ifa_head,
                                disabled=self.cfg.no_ifa)
        return ImageCode(
            f_m=f_m, f_r=f_r, f_mr=f_mr,
            v_m=roam.pool(f_m), v_r=roam.pool(f_r), v_mr=roam.pool(f_mr),
        )

    def encode_caption(self, token_ids: list[int]) -> CaptionCode:
        e = te.embed_tokens(token_ids, self.embedding)
        hidden = te.bigru(e, self.reg)
        f_g = ga.word_features(hidden.forward, hidden.backward, self.reg,
                               self.cfg.heads, mode=self.cfg.dtga_inputs,
                               disabled=self.cfg.no_dtga)
        return CaptionCode(f_g=f_g, t_g=roam.pool(f_g))

    # ------------------------------------------------------- pair scoring

    def guided_text_rows(self, images: list[ImageCode],
                         t_g: Tensor) -> list[Tensor]:
        """T_RG rows of each image against the (n, d) T_G rows ``t_g``.

        The text is projected once for all images.  With guidance ablated
        T_RG falls back to T_G, so every image gets ``t_g`` itself.
        """
        if self.cfg.no_iga:
            return [t_g] * len(images)
        f_g_rows = roam.iga_transform_text(t_g, self.reg)
        return [roam.iga_guide_rows(
                    roam.iga_transform_regions(
                        ag.reshape(im.v_r, (1, self.cfg.d)), self.reg),
                    f_g_rows, self.reg, self.cfg.iga_head)
                for im in images]

    def score_matrices(self, images: list[ImageCode],
                       captions: list[CaptionCode]) -> tuple[Tensor, Tensor]:
        """(S_final, S_global) between every image and every caption.

        The only code that turns codes into scores: the training loss and
        evaluation both call it.  Each final score depends only on its own
        pair, so a block of the grid equals the grid of that block.
        """
        v_m = ag.concat_rows(*(im.v_m for im in images))
        t_g = ag.concat_rows(*(c.t_g for c in captions))
        s_global = cosine_matrix(v_m, t_g)
        s_final = ag.concat_rows(*(
            cosine_matrix(ag.reshape(im.v_mr, (1, self.cfg.d)), t_rg)
            for im, t_rg in zip(images, self.guided_text_rows(images, t_g))))
        return s_final, s_global

    # ------------------------------------------------------------- losses

    def batch_losses(self, batch: Batch) -> tuple[Tensor, Tensor, Tensor]:
        """(total, final-branch, global-branch) loss over one batch."""
        images = [self.encode_image(batch.msv[i], batch.roi[i])
                  for i in range(len(batch.image_ids))]
        captions = [self.encode_caption(ids) for ids in batch.captions]
        s_final, s_global = self.score_matrices(images, captions)
        return total_loss(s_final, s_global, self.cfg.alpha, self.cfg.lambda_g)
