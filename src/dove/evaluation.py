"""Retrieval evaluation: score grids, recall@K, reports, distance stats.

Scores are cosines.  Ranking sorts descending by score with ties broken
by ascending candidate index, so results never depend on sort internals.
An image-to-text query hits when any of the image's captions lands in
the top K; a text-to-image query hits when the caption's image does.
Recalls are percentages in [0, 100]; mR is the mean of the six recalls.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import no_grad
from .config import TrainConfig, config_hash
from .dataio import Dataset
from .model import ImageCodes, Model
from .rng import PRNG_NAME

REPORT_VERSION = 1
RECALL_KS = (1, 5, 10)


class DegenerateEmbeddingError(ValueError):
    """An embedding that must be compared by cosine has near-zero norm."""


def _unit_rows(rows: np.ndarray, kind: str, ids: list[int]) -> np.ndarray:
    try:
        return ag.unit_rows(rows)[0]
    except ag.DegenerateVectorError as exc:
        raise DegenerateEmbeddingError(
            f"{kind} {ids[exc.row]} has a near-zero embedding") from None


def _captions_of(ds: Dataset, image_indices: list[int]) -> list[int]:
    caption_indices = ds.captions_of(image_indices)
    if not caption_indices:
        raise ValueError("the evaluated images have no captions")
    return caption_indices


def encode_images(model: Model, ds: Dataset,
                  image_indices: list[int]) -> ImageCodes:
    """Codes of the given dataset images, in that order."""
    with no_grad():
        return model.encode_images([ds.msv[i] for i in image_indices],
                                   [ds.roi[i] for i in image_indices])


def encode_captions(model: Model, ds: Dataset,
                    caption_indices: list[int]) -> ag.Tensor:
    """(n, d) T_G rows of the given dataset captions, in that order."""
    with no_grad():
        return model.encode_captions([ds.captions[k].token_ids
                                      for k in caption_indices])


@dataclass
class SimilarityResult:
    scores: np.ndarray        # (n_images, n_texts)
    image_ids: list[int]      # dataset image index per row
    caption_ids: list[int]    # dataset caption index per column
    text_to_image: np.ndarray  # image index per column


def similarity_matrix(model: Model, ds: Dataset, image_indices: list[int], *,
                      codes=None) -> SimilarityResult:
    """Final-score grid between images and all of their captions.

    Columns are ``ds.captions_of(image_indices)``.  Each score is the
    cosine of (V_MR, T_RG(i, j)), honoring the configured ablations, from
    ``Model.final_scores``.  ``codes`` is (image codes, T_G rows) in the
    order of the images and of their captions; when omitted they are
    encoded here.  A near-zero V_MR, T_G or T_RG raises
    ``DegenerateEmbeddingError`` naming its image or caption.
    """
    caption_indices = _captions_of(ds, image_indices)
    if codes is None:
        codes = (encode_images(model, ds, image_indices),
                 encode_captions(model, ds, caption_indices))
    images, t_g = codes
    _unit_rows(images.v_mr.data, "image", image_indices)
    _unit_rows(t_g.data, "caption", caption_indices)
    try:
        with no_grad():
            s_final = model.final_scores(images, t_g)
    except ag.DegenerateVectorError as exc:
        # V_MR and T_G passed above: this is T_RG
        raise DegenerateEmbeddingError(
            f"caption {caption_indices[exc.row]} has a near-zero embedding "
            f"when guided by image {image_indices[exc.image]}") from exc
    text_to_image = np.array([ds.captions[k].image_index
                              for k in caption_indices], dtype=np.int64)
    return SimilarityResult(s_final.data, list(image_indices),
                            caption_indices, text_to_image)


# ----------------------------------------------------------------- recalls

def _first_hit_ranks(sim: SimilarityResult, direction: str) -> np.ndarray:
    """0-based rank of each query's best-ranked ground truth (inf: none).

    Candidates rank by descending score, ties to the lower index, so a
    candidate is ahead of the best ground truth g when it scores higher
    than g, or the same as g with a lower index.
    """
    image_ids = np.array(sim.image_ids, dtype=np.int64)
    if direction == "i2t":
        scores = sim.scores
        truth = image_ids[:, None] == sim.text_to_image[None, :]
    elif direction == "t2i":
        scores = sim.scores.T
        truth = sim.text_to_image[:, None] == image_ids[None, :]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    best = np.where(truth, scores, -np.inf).max(axis=1, keepdims=True)
    first = np.argmax(truth & (scores == best), axis=1)[:, None]
    index = np.arange(scores.shape[1])[None, :]
    ahead = (scores > best) | ((scores == best) & (index < first))
    return np.where(truth.any(axis=1), ahead.sum(axis=1), np.inf)


def _recall(ranks: np.ndarray, k: int) -> float:
    return 100.0 * int((ranks < k).sum()) / ranks.shape[0]


def recall_at_k(sim: SimilarityResult, k: int, direction: str) -> float:
    """Percentage of queries with a ground-truth hit in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _recall(_first_hit_ranks(sim, direction), k)


def recall_block(sim: SimilarityResult) -> dict[str, float]:
    ranks = {d: _first_hit_ranks(sim, d) for d in ("i2t", "t2i")}
    block = {f"r{k}_{d}": _recall(ranks[d], k)
             for d in ("i2t", "t2i") for k in RECALL_KS}
    block["mr"] = mean_recall([block[f"r{k}_i2t"] for k in RECALL_KS]
                              + [block[f"r{k}_t2i"] for k in RECALL_KS])
    return block


def mean_recall(recalls: list[float]) -> float:
    if len(recalls) != 6:
        raise ValueError(f"mean recall is defined over 6 values, got {len(recalls)}")
    return float(sum(recalls) / 6.0)


# --------------------------------------------------------------- distances

DISTANCE_KEYS = ("v_mr__t_rg", "v_m__t_g", "v_r__v_mr", "v_r__v_m",
                 "v_r__t_rg", "v_r__t_g")


def embedding_distances(model: Model, ds: Dataset, image_indices: list[int],
                        *, codes=None) -> dict:
    """Euclidean distance statistics over the images' (image, caption)
    pairs, one per caption.

    Distances are measured between unit-normalized embeddings -- the
    coordinates the similarity actually compares.  Raw norms are never
    trained (the cosine score is scale-free), so distances between raw
    vectors would mostly report arbitrary per-branch scale.  ``codes`` is
    as for ``similarity_matrix``.
    """
    caption_indices = _captions_of(ds, image_indices)
    if codes is None:
        codes = (encode_images(model, ds, image_indices),
                 encode_captions(model, ds, caption_indices))
    images, t_g = codes
    row_of = {i: p for p, i in enumerate(image_indices)}
    rows = [row_of[ds.captions[k].image_index] for k in caption_indices]
    t_rg = model.guided_pairs(ag.constant(images.v_r.data[rows]), t_g)

    image_ids = [image_indices[p] for p in rows]
    v_m = _unit_rows(images.v_m.data[rows], "v_m of image", image_ids)
    v_r = _unit_rows(images.v_r.data[rows], "v_r of image", image_ids)
    v_mr = _unit_rows(images.v_mr.data[rows], "v_mr of image", image_ids)
    t_g = _unit_rows(t_g.data, "t_g of caption", caption_indices)
    t_rg = _unit_rows(t_rg, "t_rg of caption", caption_indices)
    operands = {"v_mr__t_rg": (v_mr, t_rg), "v_m__t_g": (v_m, t_g),
                "v_r__v_mr": (v_r, v_mr), "v_r__v_m": (v_r, v_m),
                "v_r__t_rg": (v_r, t_rg), "v_r__t_g": (v_r, t_g)}
    stats = {}
    for key in DISTANCE_KEYS:
        a, b = operands[key]
        arr = np.linalg.norm(a - b, axis=1)
        stats[key] = {"mean": float(arr.mean()),
                      "median": float(np.median(arr)),
                      "stddev": float(arr.std()),
                      "n_pairs": int(arr.size)}
    return stats


# ------------------------------------------------------------------ report

@dataclass
class RetrievalReport:
    config_hash: str
    seed: int
    split: str
    n_images: int
    n_texts: int
    full: dict[str, float]
    subsets: list[dict] = field(default_factory=list)
    distances: dict | None = None

    def to_json(self) -> str:
        payload = {**asdict(self), "report_version": REPORT_VERSION,
                   "prng": PRNG_NAME}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def build_report(model: Model, ds: Dataset, image_indices: list[int],
                 split_name: str, subset_files: list[tuple[str, list[int]]] = (),
                 with_distances: bool = True) -> RetrievalReport:
    """Recalls, subset recalls and distances from one encoding of the split."""
    caption_indices = _captions_of(ds, image_indices)
    codes = (encode_images(model, ds, image_indices),
             encode_captions(model, ds, caption_indices))
    sim = similarity_matrix(model, ds, image_indices, codes=codes)
    report = RetrievalReport(
        config_hash=config_hash(model.cfg),
        seed=model.cfg.seed,
        split=split_name,
        n_images=len(image_indices),
        n_texts=len(caption_indices),
        full=recall_block(sim),
    )
    for name, subset in subset_files:
        block = subset_eval(ds, sim, subset)
        block["source"] = name
        report.subsets.append(block)
    if with_distances:
        report.distances = embedding_distances(model, ds, image_indices,
                                               codes=codes)
    return report


def subset_eval(ds: Dataset, full: SimilarityResult,
                subset_indices: list[int]) -> dict:
    """Metrics with queries AND candidate pool restricted to the subset.

    The block is a slice of ``full``, a final-score grid over the evaluated
    images and all their captions: every final score depends only on its
    own pair, so the slice equals the subset scored on its own (up to
    rounding, as a product's last bits can depend on the matrix width).
    """
    for i in subset_indices:
        if not 0 <= i < ds.n_images:
            raise ValueError(f"subset image index {i} out of range "
                             f"0..{ds.n_images - 1}")
    wanted = set(subset_indices)
    rows = [r for r, i in enumerate(full.image_ids) if i in wanted]
    if not rows:
        raise ValueError("subset does not intersect the evaluated images")
    cols = [c for c, i in enumerate(full.text_to_image) if i in wanted]
    if not cols:
        raise ValueError("the subset's images have no captions among the "
                         "evaluated texts")
    sim = SimilarityResult(full.scores[np.ix_(rows, cols)],
                           [full.image_ids[r] for r in rows],
                           [full.caption_ids[c] for c in cols],
                           full.text_to_image[cols])
    block = recall_block(sim)
    block["n_images"] = len(rows)
    block["n_texts"] = len(cols)
    return block


def load_subset_file(path: str) -> list[int]:
    """One image index per line; blanks ignored."""
    indices = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                indices.append(int(line))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: expected an image index, got {line!r}"
                ) from None
    if not indices:
        raise ValueError(f"{path}: subset file is empty")
    return indices


def render_table(report: RetrievalReport) -> str:
    """Fixed-width text table; recalls rounded to 2 decimals."""
    def fmt(block, label):
        return (f"{label:<10} "
                f"{block['r1_i2t']:>7.2f} {block['r5_i2t']:>7.2f} "
                f"{block['r10_i2t']:>7.2f} {block['r1_t2i']:>7.2f} "
                f"{block['r5_t2i']:>7.2f} {block['r10_t2i']:>7.2f} "
                f"{block['mr']:>7.2f}")

    lines = [
        f"split={report.split} images={report.n_images} texts={report.n_texts}",
        f"config={report.config_hash[:12]} seed={report.seed} prng={PRNG_NAME}",
        f"{'':<10} {'R@1 i2t':>7} {'R@5 i2t':>7} {'R@10':>7} "
        f"{'R@1 t2i':>7} {'R@5 t2i':>7} {'R@10':>7} {'mR':>7}",
        fmt(report.full, "full"),
    ]
    for block in report.subsets:
        lines.append(fmt(block, f"subset[{block.get('source', '?')}]"))
    return "\n".join(lines) + "\n"
