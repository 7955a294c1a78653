"""Full cross-modal model: encoders, fusion, guidance, and batch scores.

One model instance owns a parameter registry shaped by its config (head
kinds, ablation switches) plus a float64 copy of the frozen embedding
table, made once rather than cast per caption.  The encoders return
codes as (n, d) tensors with one row per image or caption; pair scores
are cosines between rows, assembled by ``Model.score_matrices`` into
(images, captions) matrices for the two ranking branches (evaluation
builds only the final one, with ``Model.final_scores``):

    S_global[i][j] = cos(V_M_i, T_G_j)
    S_final[i][j]  = cos(V_MR_i, T_RG(i, j))

where T_RG(i, j) is the guidance output for that specific pair.  The
final grid is one graph node, ``autograd.guided_scores``, which never
holds the N x M x d guided rows at once.

Both encoders cut their inputs into chunks of ``CHUNK`` and hand them to
``_map_chunks``, which runs them on worker threads, one per usable CPU,
when the model is at least ``PARALLEL_MIN_WIDTH`` wide, and in the
calling thread otherwise.  NumPy releases the GIL in BLAS and large
ufuncs, so wide chunks overlap.  A chunk's codes are a pure function of
its inputs and the parameters, and the chunks are joined in chunk order,
so codes, gradients, checkpoints and reports do not depend on the worker
count, bit for bit.  Evaluation and the training forward take the same
path; the backward stays one serial walk.  Workers only read the
parameters and the process-global ``no_grad`` flag; they never enter or
leave ``no_grad``.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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

# images or captions per batch in ``Model.encode_images`` and
# ``Model.encode_captions``
CHUNK = 32
# narrower models run their chunks in the calling thread: at d=64 a
# chunk's many small NumPy calls contend for the GIL, and workers lose
PARALLEL_MIN_WIDTH = 128


@dataclass
class ImageCodes:
    """Pooled codes of n images, one row per image."""
    v_m: Tensor    # (n, d) multiscale codes
    v_r: Tensor    # (n, d) region codes
    v_mr: Tensor   # (n, d) fused codes


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(fn, n: int, d: int) -> list:
    """``[fn(start) for start in range(0, n, CHUNK)]``, in chunk order.

    The chunks run on min(chunks, usable CPUs) worker threads from a pool
    that lives for this call only; with one worker, or below
    ``PARALLEL_MIN_WIDTH`` model width ``d``, they run in the calling
    thread.  The first chunk to raise, in chunk order, raises here, once
    the chunks already running end; chunks not yet started are dropped.
    """
    starts = range(0, n, CHUNK)
    workers = min(len(starts), _usable_cpus())
    if workers <= 1 or d < PARALLEL_MIN_WIDTH:
        return [fn(start) for start in starts]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(fn, starts))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _canonical(rows) -> np.ndarray:
    """``rows`` as float64, in one order that depends only on their multiset."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return rows[np.argsort(keys[:, 0], kind="stable")]


class Model:
    def __init__(self, cfg: TrainConfig, embedding: np.ndarray,
                 values: dict[str, np.ndarray] | None = None):
        """``values`` restores every parameter, as from a checkpoint, in
        place of drawing its initial value (see ``ParamRegistry``)."""
        cfg.validate()
        if embedding.ndim != 2 or embedding.shape[1] != te.EMBED_DIM:
            raise ValueError(f"embedding table must be (vocab, {te.EMBED_DIM}), "
                             f"got {embedding.shape}")
        self.cfg = cfg
        self.embedding = np.asarray(embedding, dtype=np.float64)
        self.reg = ParamRegistry(cfg.seed, values)
        self.d_in = None   # set by bind_feature_widths
        self.d_r = None

    def bind_feature_widths(self, d_in: int, d_r: int):
        """Register all parameters for banks of these widths; call once."""
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
        self.reg.check_complete()

    # ------------------------------------------------------------ encoders

    def encode_images(self, msv, roi) -> ImageCodes:
        """Codes of the images whose (rows, width) arrays pair up in order.

        ``msv`` and ``roi`` may be (n, rows, width) arrays or sequences of
        per-image arrays, such as views into the float32 feature banks.
        Each image's rows are an unordered set: they enter the graph as
        float64, sorted by their bytes, so every order of them yields the
        same codes, bit for bit.  Images are encoded in chunks of
        ``CHUNK``, each one as image-major 2-D rows through projection and
        fusion; images of unequal row counts raise.  An image's code does
        not depend on its chunk-mates.  At ``PARALLEL_MIN_WIDTH`` or wider
        the chunks run on worker threads (``_map_chunks``) and join in chunk
        order, so the codes are the same bits at any worker count.
        """
        pairs = list(zip(msv, roi, strict=True))

        def encode(start):
            chunk = pairs[start:start + CHUNK]
            m_v = np.stack([_canonical(m) for m, _ in chunk])
            r_v = np.stack([_canonical(r) for _, r in chunk])
            f_m = ve.msv_project(ag.constant(
                m_v.reshape(-1, m_v.shape[2])), self.reg)
            f_r = ve.roi_project(ag.constant(
                r_v.reshape(-1, r_v.shape[2])), self.reg)
            f_mr = roam.fuse_visual(f_m, f_r, self.reg, len(chunk),
                                    self.cfg.ifa_head, disabled=self.cfg.no_ifa)
            return [ag.mean_rows(f, f.shape[0] // len(chunk))
                    for f in (f_m, f_r, f_mr)]

        chunks = _map_chunks(encode, len(pairs), self.cfg.d)
        # no images leaves each field no parts, and concat raises
        return ImageCodes(*(ag.concat(*(codes[k] for codes in chunks))
                            for k in range(3)))

    def encode_captions(self, token_lists: list[list[int]]) -> Tensor:
        """(n, d) T_G rows, one per caption, in the order given.

        Captions are sorted by length (stable by position) and encoded in
        chunks of ``CHUNK``, each one longest caption first.  A chunk runs
        through the BiGRU and DTGA as one (N, d) array of packed rows (see
        ``autograd.Packing``), its N real tokens and no padding.  ``T_G``
        is the mean over a caption's tokens: one product of the packing's
        (b, N) averaging matrix with the chunk's word features.  A
        caption's code does not depend on its chunk-mates beyond the last
        bits of the batched products.  At ``PARALLEL_MIN_WIDTH`` or wider
        the chunks run on worker threads (``_map_chunks``); chunk makeup,
        their order and the join do not depend on the worker count, and
        neither do the codes' bits.
        """
        by_length = sorted(range(len(token_lists)),
                           key=lambda i: len(token_lists[i]))
        order = [i for start in range(0, len(by_length), CHUNK)
                 for i in reversed(by_length[start:start + CHUNK])]

        def encode(start):
            e, packing = te.embed_captions(
                [token_lists[i] for i in order[start:start + CHUNK]],
                self.embedding)
            hidden = te.bigru(e, self.reg, packing)
            f_g = ga.word_features(hidden.forward, hidden.backward, self.reg,
                                   self.cfg.heads, mode=self.cfg.dtga_inputs,
                                   disabled=self.cfg.no_dtga, packing=packing)
            return ag.matmul(ag.constant(packing.averaging), f_g)

        chunks = _map_chunks(encode, len(order), self.cfg.d)
        # the inverse permutation puts caption j's code in row j
        return ag.take_rows(ag.concat(*chunks), np.argsort(order))

    # ------------------------------------------------------- pair scoring

    def final_scores(self, images: ImageCodes, t_g: Tensor) -> Tensor:
        """S_final between every image and every T_G row, one graph node.

        The only code that turns codes into final scores: the training
        loss, validation and evaluation all call it.  Each score depends
        only on its own pair, so a block of the grid equals the grid of
        that block.  With guidance ablated T_RG is T_G.  A near-zero T_RG
        raises ``DegenerateVectorError`` with ``row`` set to the caption's
        column and ``image`` to the image's row.
        """
        if self.cfg.no_iga:
            return cosine_matrix(images.v_mr, t_g)
        return roam.iga_scores(images.v_mr, images.v_r, t_g, self.reg,
                               self.cfg.iga_head)

    def guided_pairs(self, v_r: Tensor, t_g: Tensor) -> np.ndarray:
        """T_RG of each row pair (v_r[k], t_g[k]) as ``final_scores``
        guides it, values only (T_G itself with guidance ablated)."""
        if self.cfg.no_iga:
            return t_g.data
        return roam.iga_pair_rows(v_r, t_g, self.reg, self.cfg.iga_head)

    def score_matrices(self, images: ImageCodes,
                       t_g: Tensor) -> tuple[Tensor, Tensor]:
        """(S_final, S_global), the two grids the training loss ranks."""
        return self.final_scores(images, t_g), cosine_matrix(images.v_m, t_g)

    # ------------------------------------------------------------- losses

    def batch_losses(self, batch: Batch) -> tuple[Tensor, Tensor, Tensor]:
        """(total, final-branch, global-branch) loss over one batch."""
        s_final, s_global = self.score_matrices(
            self.encode_images(batch.msv, batch.roi),
            self.encode_captions(batch.captions))
        return total_loss(s_final, s_global, self.cfg.alpha, self.cfg.lambda_g)
