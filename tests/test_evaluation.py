"""Similarity grids, recall metrics, distance statistics, reports."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import oracles
from dove import autograd as ag
from dove.config import TrainConfig
from dove.dataio import CaptionRecord, Dataset
from dove.evaluation import (DegenerateEmbeddingError, SimilarityResult,
                             build_report, embedding_distances,
                             encode_captions, encode_images, load_subset_file,
                             mean_recall, recall_at_k, recall_block,
                             render_table, similarity_matrix, subset_eval)
from dove.model import Model


def cos(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def grid(scores, text_to_image, image_ids=None):
    scores = np.asarray(scores, dtype=np.float64)
    n_i, n_t = scores.shape
    return SimilarityResult(
        scores=scores,
        image_ids=list(range(n_i)) if image_ids is None else image_ids,
        caption_ids=list(range(n_t)),
        text_to_image=np.asarray(text_to_image, dtype=np.int64),
    )


# ------------------------------------------------------------------ ranking

def test_ties_break_toward_lower_candidate_index():
    # both texts 1 and 2 score 2.0; index 1 must rank first, and it is wrong
    sim = grid([[1.0, 2.0, 2.0]], text_to_image=[2, 1, 0])
    assert recall_at_k(sim, 1, "i2t") == 0.0
    assert recall_at_k(sim, 2, "i2t") == 100.0  # index 2 (correct) at rank 2


def test_rank_three_fixture():
    sim = grid([[0.9, 0.8, 0.7, 0.6, 0.1]], text_to_image=[1, 1, 0, 1, 1])
    assert recall_at_k(sim, 1, "i2t") == 0.0
    assert recall_at_k(sim, 2, "i2t") == 0.0
    assert recall_at_k(sim, 3, "i2t") == 100.0
    assert recall_at_k(sim, 5, "i2t") == 100.0


def test_k_clamps_to_candidate_count():
    sim = grid([[0.1, 0.2], [0.3, 0.2]], text_to_image=[0, 1])
    assert recall_at_k(sim, 10, "i2t") == recall_at_k(sim, 2, "i2t")
    assert recall_at_k(sim, 10, "t2i") == recall_at_k(sim, 2, "t2i")


def test_recall_rejects_bad_arguments():
    sim = grid([[0.1, 0.2]], text_to_image=[0, 0])
    with pytest.raises(ValueError):
        recall_at_k(sim, 0, "i2t")
    with pytest.raises(ValueError):
        recall_at_k(sim, 1, "sideways")


@pytest.mark.parametrize("seed", range(8))
def test_recall_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    n_i, n_t = 8, 24
    scores = rng.integers(0, 5, (n_i, n_t)) / 4.0  # coarse grid forces ties
    text_to_image = rng.integers(0, n_i, n_t)
    sim = grid(scores, text_to_image)
    for k in (1, 3, 5, 10):
        assert recall_at_k(sim, k, "i2t") == oracles.recall_i2t(
            scores, text_to_image, k)
        assert recall_at_k(sim, k, "t2i") == oracles.recall_t2i(
            scores, text_to_image, k)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(77)
    sim = grid(rng.uniform(0, 1, (10, 30)), rng.integers(0, 10, 30))
    for direction in ("i2t", "t2i"):
        r1, r5, r10 = (recall_at_k(sim, k, direction) for k in (1, 5, 10))
        assert r1 <= r5 <= r10


def test_recall_block_structure():
    sim = grid(np.eye(3), text_to_image=[0, 1, 2])
    block = recall_block(sim)
    assert set(block) == {"r1_i2t", "r5_i2t", "r10_i2t",
                          "r1_t2i", "r5_t2i", "r10_t2i", "mr"}
    assert block["r1_i2t"] == 100.0 and block["mr"] == 100.0


def test_mean_recall_fixtures():
    fixture_a = [8.66, 22.35, 34.95, 6.04, 23.95, 40.35]
    fixture_b = [16.81, 36.80, 49.93, 12.20, 44.13, 66.50]
    assert round(mean_recall(fixture_a), 2) == 22.72
    assert round(mean_recall(fixture_b), 2) == 37.73
    with pytest.raises(ValueError):
        mean_recall([1.0, 2.0])


# --------------------------------------------------------------- similarity

def test_final_scores_match_per_pair_cosines(tiny_model, tiny_dataset):
    images = [0, 2, 4]
    caps = tiny_dataset.captions_of(images)
    sim = similarity_matrix(tiny_model, tiny_dataset, images)
    assert sim.scores.shape == (3, 15)
    assert sim.image_ids == images and sim.caption_ids == caps
    # no_grad is a process-wide flag: scoring must leave gradients on
    assert ag.mul(ag.Tensor(np.ones(2), requires_grad=True), 2.0).requires_grad
    codes = encode_images(tiny_model, tiny_dataset, images)
    t_g = encode_captions(tiny_model, tiny_dataset, caps).data
    vals = {n: t.data for n, t in tiny_model.reg.tensors().items()}
    for i in range(len(images)):
        for j in range(len(caps)):
            t_rg = oracles.iga(codes.v_r.data[i], t_g[j], vals,
                               tiny_model.cfg.iga_head)
            assert abs(sim.scores[i, j]
                       - cos(codes.v_mr.data[i], t_rg)) < 1e-12


def test_global_scores_match_pooled_cosines(tiny_model, tiny_dataset):
    images, caps = [1, 3], [2, 9, 14]
    codes = encode_images(tiny_model, tiny_dataset, images)
    t_g = encode_captions(tiny_model, tiny_dataset, caps)
    with ag.no_grad():
        _, s_global = tiny_model.score_matrices(codes, t_g)
    assert s_global.shape == (2, 3)
    for i in range(len(images)):
        for j in range(len(caps)):
            assert abs(s_global.data[i, j]
                       - cos(codes.v_m.data[i], t_g.data[j])) < 1e-12


def test_similarity_rows_permute_with_images(tiny_model, tiny_dataset):
    # the columns are the images' captions in file order, whatever the
    # order of the images
    base = similarity_matrix(tiny_model, tiny_dataset, [0, 1, 2])
    permuted = similarity_matrix(tiny_model, tiny_dataset, [2, 0, 1])
    assert permuted.caption_ids == base.caption_ids
    assert np.array_equal(permuted.scores, base.scores[[2, 0, 1]])


def test_similarity_rejects_bad_requests(tiny_model, tiny_dataset):
    with pytest.raises(ValueError, match="have no captions"):
        similarity_matrix(tiny_model, tiny_dataset, [])


def test_degenerate_caption_embedding_is_reported():
    # a caption of only unknown tokens embeds to exactly zero at init
    rng = np.random.default_rng(0)
    emb = rng.uniform(-0.5, 0.5, (3, 300))
    emb[0] = 0.0
    ds = Dataset(msv=rng.uniform(-1, 1, (1, 2, 6)),
                 roi=rng.uniform(-1, 1, (1, 3, 4)),
                 captions=[CaptionRecord(0, [0, 0])],
                 embedding=emb, vocab={"<unk>": 0})
    cfg = TrainConfig(d=8, heads=2, batch_size=2, epochs=1, seed=3,
                      val_fraction=0.0)
    model = Model(cfg, ds.embedding)
    model.bind_feature_widths(6, 4)
    with pytest.raises(DegenerateEmbeddingError):
        similarity_matrix(model, ds, [0])
    with pytest.raises(DegenerateEmbeddingError):
        embedding_distances(model, ds, [0])


# ---------------------------------------------------------------- distances

def test_distance_stats_structure(tiny_model, tiny_dataset):
    stats = embedding_distances(tiny_model, tiny_dataset,
                                list(range(tiny_dataset.n_images)))
    assert set(stats) == {"v_mr__t_rg", "v_m__t_g", "v_r__v_mr", "v_r__v_m",
                          "v_r__t_rg", "v_r__t_g"}
    for s in stats.values():
        assert s["n_pairs"] == tiny_dataset.n_captions
        assert 0.0 <= s["mean"] <= 2.0    # unit vectors are at most 2 apart
        assert 0.0 <= s["median"] <= 2.0
        assert s["stddev"] >= 0.0


def without_captions(ds, image, keep=0):
    """``ds`` with all but ``keep`` of ``image``'s captions removed."""
    kept = ds.captions_of([image])[:keep]
    return dataclasses.replace(ds, captions=[
        r for k, r in enumerate(ds.captions)
        if r.image_index != image or k in kept])


def test_distance_stats_single_pair(tiny_model, tiny_dataset):
    ds = without_captions(tiny_dataset, 0, keep=1)
    stats = embedding_distances(tiny_model, ds, [0])
    for s in stats.values():
        assert s["n_pairs"] == 1
        assert s["stddev"] == 0.0
        assert s["mean"] == s["median"]


def test_distances_take_t_rg_from_the_scored_guidance(tiny_model,
                                                      tiny_dataset):
    # each positive pair's T_RG is the oracle's guided code of that pair
    images = [3, 0]
    caps = tiny_dataset.captions_of(images)
    stats = embedding_distances(tiny_model, tiny_dataset, images)
    codes = encode_images(tiny_model, tiny_dataset, images)
    t_g = encode_captions(tiny_model, tiny_dataset, caps).data
    vals = {n: t.data for n, t in tiny_model.reg.tensors().items()}
    gaps = []
    for c, k in enumerate(caps):
        i = images.index(tiny_dataset.captions[k].image_index)
        v_mr = codes.v_mr.data[i]
        t_rg = oracles.iga(codes.v_r.data[i], t_g[c], vals,
                           tiny_model.cfg.iga_head)
        gaps.append(np.linalg.norm(v_mr / np.linalg.norm(v_mr)
                                   - t_rg / np.linalg.norm(t_rg)))
    assert stats["v_mr__t_rg"]["n_pairs"] == len(caps)
    assert abs(stats["v_mr__t_rg"]["mean"] - np.mean(gaps)) < 1e-12


def test_distance_stats_need_positive_pairs(tiny_model, tiny_dataset):
    with pytest.raises(ValueError, match="have no captions"):
        embedding_distances(tiny_model, without_captions(tiny_dataset, 1),
                            [1])


# ------------------------------------------------------------------ subsets

def test_subset_eval_matches_direct_computation(tiny_model, tiny_dataset):
    # the block is sliced out of the full grid; scoring the subset on its
    # own gives the same ids and recalls, and the same scores up to BLAS
    # rounding (a product's last bits can depend on the matrix width)
    eval_images = [5, 0, 3, 2, 1]
    subset = [2, 0, 4, 3]
    full = similarity_matrix(tiny_model, tiny_dataset, eval_images)
    keep = [0, 3, 2]
    direct = similarity_matrix(tiny_model, tiny_dataset, keep)
    block = subset_eval(tiny_dataset, full, subset)
    want = recall_block(direct)
    for key, value in want.items():
        assert block[key] == value
    assert block["n_images"] == 3
    assert block["n_texts"] == len(direct.caption_ids)
    rows = [full.image_ids.index(i) for i in keep]
    cols = [full.caption_ids.index(k) for k in direct.caption_ids]
    assert np.allclose(full.scores[np.ix_(rows, cols)], direct.scores,
                       rtol=0.0, atol=1e-12)
    assert np.array_equal(full.text_to_image[cols], direct.text_to_image)


def test_report_over_images_without_captions_says_so(tiny_model,
                                                     tiny_dataset):
    # image 5 keeps its features but loses its captions
    ds = without_captions(tiny_dataset, 5)
    with pytest.raises(ValueError,
                       match="the evaluated images have no captions"):
        build_report(tiny_model, ds, [5], "x")


def test_subset_eval_singleton_is_trivially_perfect(tiny_model, tiny_dataset):
    full = similarity_matrix(tiny_model, tiny_dataset,
                             list(range(tiny_dataset.n_images)))
    block = subset_eval(tiny_dataset, full, [4])
    assert block["r1_i2t"] == 100.0 and block["r1_t2i"] == 100.0


def test_subset_eval_rejects_bad_subsets(tiny_model, tiny_dataset):
    full = similarity_matrix(tiny_model, tiny_dataset, [0, 1])
    with pytest.raises(ValueError, match="out of range"):
        subset_eval(tiny_dataset, full, [99])
    with pytest.raises(ValueError, match="intersect"):
        subset_eval(tiny_dataset, full, [4, 5])


def test_subset_eval_rejects_images_without_captions(tiny_model, tiny_dataset):
    # image 4 is scored but has no captions: a subset of it alone has no
    # texts to rank, and says so instead of reducing an empty grid
    ds = without_captions(tiny_dataset, 4)
    full = similarity_matrix(tiny_model, ds, [0, 1, 4])
    with pytest.raises(ValueError, match="no captions among the evaluated"):
        subset_eval(ds, full, [4])
    assert subset_eval(ds, full, [4, 1])["n_texts"] > 0


def test_degenerate_guided_caption_names_caption_and_image(
        tiny_model, tiny_dataset, monkeypatch):
    # zero the guidance output of the third caption: T_RG(image, caption)
    # is degenerate for every image, and the first image scored is named
    original = ag._guided_block

    def zero_third_caption(*args, **kwargs):
        hidden, t_rg = original(*args, **kwargs)
        t_rg[:, 2] = 0.0
        return hidden, t_rg

    monkeypatch.setattr(ag, "_guided_block", zero_third_caption)
    images = [3, 1]
    captions = tiny_dataset.captions_of(images)
    with pytest.raises(DegenerateEmbeddingError,
                       match=f"caption {captions[2]} has a near-zero "
                             f"embedding when guided by image 3"):
        similarity_matrix(tiny_model, tiny_dataset, images)


@pytest.mark.parametrize("no_iga", [False, True])
@pytest.mark.parametrize("kind", ["image", "caption"])
def test_degenerate_given_codes_name_their_image_or_caption(tiny_dataset,
                                                            kind, no_iga):
    # codes handed in skip the encoders: a zero V_MR or T_G row is still
    # named, under guidance (the grid node) and without it (plain cosines)
    cfg = TrainConfig(d=8, heads=2, batch_size=2, epochs=1, seed=13,
                      no_iga=no_iga)
    model = Model(cfg, tiny_dataset.embedding)
    model.bind_feature_widths(tiny_dataset.msv.shape[2],
                              tiny_dataset.roi.shape[2])
    images = [3, 1, 4]
    captions = tiny_dataset.captions_of(images)
    codes = (encode_images(model, tiny_dataset, images),
             encode_captions(model, tiny_dataset, captions))
    if kind == "image":
        codes[0].v_mr.data[1] = 0.0
        name = "image 1"
    else:
        codes[1].data[2] = 0.0
        name = f"caption {captions[2]}"
    with pytest.raises(DegenerateEmbeddingError,
                       match=f"^{name} has a near-zero embedding$"):
        similarity_matrix(model, tiny_dataset, images, codes=codes)


def test_report_encodes_each_caption_once(tiny_model, tiny_dataset,
                                          monkeypatch):
    encoded = []
    original = Model.encode_captions

    def counting(self, token_lists):
        encoded.extend(list(ids) for ids in token_lists)
        return original(self, token_lists)

    monkeypatch.setattr(Model, "encode_captions", counting)
    report = build_report(tiny_model, tiny_dataset,
                          list(range(tiny_dataset.n_images)), "all",
                          [("half", [0, 2, 4])], with_distances=True)
    assert report.subsets and report.distances
    assert encoded == [rec.token_ids for rec in tiny_dataset.captions]


def test_report_never_normalises_v_m(tiny_model, tiny_dataset, monkeypatch):
    # V_M feeds only the global grid, which training ranks and eval does
    # not; only the distances (off here) compare it
    v_m, normalised = [], []
    encode, unit_rows = Model.encode_images, ag.unit_rows

    def keeping_v_m(self, msv, roi):
        codes = encode(self, msv, roi)
        v_m.append(codes.v_m.data.copy())
        return codes

    def recording(x):
        normalised.append(x.copy())
        return unit_rows(x)

    monkeypatch.setattr(Model, "encode_images", keeping_v_m)
    monkeypatch.setattr(ag, "unit_rows", recording)
    build_report(tiny_model, tiny_dataset, list(range(tiny_dataset.n_images)),
                 "all", [("half", [0, 2, 4])], with_distances=False)
    assert v_m and normalised
    assert not any(np.array_equal(x, code) for x in normalised for code in v_m)


def test_load_subset_file(tmp_path):
    path = tmp_path / "subset.txt"
    path.write_text("3\n\n1\n4\n", encoding="utf-8")
    assert load_subset_file(str(path)) == [3, 1, 4]
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        load_subset_file(str(path))
    path.write_text("3\nfour\n", encoding="utf-8")
    with pytest.raises(ValueError, match="four"):
        load_subset_file(str(path))


# ------------------------------------------------------------------ reports

def test_build_report_and_rendering(tiny_model, tiny_dataset, tmp_path):
    subset_name = "halves"
    report = build_report(tiny_model, tiny_dataset, [0, 1, 2, 3],
                          split_name="train",
                          subset_files=[(subset_name, [0, 1])],
                          with_distances=True)
    assert report.split == "train"
    assert report.n_images == 4
    assert report.n_texts == 20
    assert report.full["mr"] == mean_recall(
        [report.full[f"r{k}_{d}"] for d in ("i2t", "t2i") for k in (1, 5, 10)])
    assert report.subsets[0]["source"] == subset_name
    full = similarity_matrix(tiny_model, tiny_dataset, [0, 1, 2, 3])
    assert report.subsets[0] == {**subset_eval(tiny_dataset, full, [0, 1]),
                                 "source": subset_name}
    assert set(report.distances) == {"v_mr__t_rg", "v_m__t_g", "v_r__v_mr",
                                     "v_r__v_m", "v_r__t_rg", "v_r__t_g"}

    payload = json.loads(report.to_json())
    assert payload["report_version"] == 1
    assert payload["prng"] == "splitmix64"
    assert payload["config_hash"] == report.config_hash

    table = render_table(report)
    assert "split=train images=4 texts=20" in table
    assert f"{report.full['mr']:.2f}" in table
    assert "subset[halves]" in table
