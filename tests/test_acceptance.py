"""Acceptance gate: one test per shipped guarantee of the engine.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Tolerances and budgets are stated inline and are part of
the contract:

  01  finite-difference gradients on micro shapes, < 1e-4, < 60 s
  02  component oracles (attention, enhancement, fusion, guidance,
      recurrence, optimizer) to 1e-12 over 10 seeds each
  03  exact pinned values of the ranking loss
  04  pinned mean-recall fixtures and a brute-force ranking oracle
  05  desk-scale overfit: perfect training retrieval in <= 200 epochs,
      final-branch loss < 0.01, < 5 minutes single-threaded
  06  fused/guided embeddings sit closer than their unfused baselines
  07  order invariances: region rows (bitwise), batch order, scaling
  08  learning-rate schedule fixtures; byte-identical reruns
  09  every ablation mode trains end to end under a distinct config hash
"""
from __future__ import annotations

import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from dove import autograd as ag
from dove.batching import gather_batch, split_dataset
from dove.checks import GRADCHECK_TOLERANCE, MICRO, gradcheck_report
from dove.config import TrainConfig, config_hash
from dove.dataio import load_dataset
from dove.evaluation import (SimilarityResult, build_report,
                             embedding_distances, mean_recall, recall_at_k,
                             recall_block, similarity_matrix)
from dove.gated_attention import (dtga, gated_self_attention,
                                  register_dtga_params, register_ga_params,
                                  word_features)
from dove.model import Model
from dove.objective import cosine_matrix, triplet_loss
from dove.optimizer import adam_step, init_adam, lr_at
from dove.params import ParamRegistry
from dove.roam import (ifa_fuse, iga_pair_rows, register_ifa_params,
                       register_iga_params)
from dove.synth import synth_dataset, write_dataset
from dove.text_encoder import bigru, register_gru_params
from dove.train import load_checkpoint, model_from_checkpoint, train

D, HEADS = 8, 2

OVERFIT_CFG = TrainConfig(d=64, heads=2, batch_size=8, epochs=100, seed=3,
                          lr0=0.002, decay_factor=0.7, decay_every=20,
                          val_fraction=0.0)


def snapshot(reg):
    return {name: t.data.copy() for name, t in reg.tensors().items()}


@pytest.fixture(scope="module")
def overfit_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("overfit-data")
    write_dataset(synth_dataset(seed=1, n_images=32, n_clusters=4,
                                d_in=64, d_r=32), str(out))
    return load_dataset(str(out))


@pytest.fixture(scope="module")
def overfit_run(overfit_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("overfit-run")
    started = time.perf_counter()
    result = train(replace(OVERFIT_CFG), overfit_dataset, str(out))
    elapsed = time.perf_counter() - started
    model = model_from_checkpoint(load_checkpoint(result.checkpoint_path),
                                  overfit_dataset)
    split = split_dataset(overfit_dataset, OVERFIT_CFG.val_fraction,
                          OVERFIT_CFG.seed)
    return SimpleNamespace(result=result, elapsed=elapsed, model=model,
                           ds=overfit_dataset,
                           train_images=split.train_images)


# --------------------------------------------------------------------------

def test_criterion_01_gradients_exact_and_fast():
    assert (MICRO["batch"], MICRO["n_m"], MICRO["n_r"], MICRO["d"]) == \
        (2, 2, 3, 8)
    assert MICRO["n_c"] <= 3
    started = time.perf_counter()
    report = gradcheck_report(seed=0, max_coords=24)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    assert "autograd-primitives" in report and "objective-full" in report
    for module, err in report.items():
        assert err < GRADCHECK_TOLERANCE, f"{module}: max rel err {err:.3e}"


def test_criterion_02_components_match_independent_oracles():
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)

        reg = ParamRegistry(seed=seed)
        register_ga_params(reg, "ga", D, HEADS)
        x = rng.uniform(-1, 1, (4, D))
        got = gated_self_attention(ag.constant(x), reg, "ga", HEADS,
                                   ag.Packing([4])).data
        want = oracles.gated_attention(x, snapshot(reg), "ga", HEADS)
        assert np.allclose(got, want, atol=1e-12)

        reg = ParamRegistry(seed=seed)
        register_dtga_params(reg, D, HEADS)
        a = rng.uniform(-1, 1, (3, D))
        b = rng.uniform(-1, 1, (3, D))
        got = dtga(ag.constant(a), ag.constant(b), reg, HEADS,
                   ag.Packing([3])).data
        assert np.allclose(got, oracles.dtga(a, b, snapshot(reg), HEADS),
                           atol=1e-12)

        for head in ("linear", "nonlinear"):
            reg = ParamRegistry(seed=seed)
            register_ifa_params(reg, D, head)
            f_m, f_r = rng.uniform(-1, 1, (2, D)), rng.uniform(-1, 1, (3, D))
            got = ifa_fuse(ag.constant(f_m), ag.constant(f_r), reg, 1,
                           head).data
            assert np.allclose(got, oracles.ifa(f_m, f_r, snapshot(reg), head),
                               atol=1e-12)

            reg = ParamRegistry(seed=seed)
            register_iga_params(reg, D, head)
            e_r, e_g = rng.uniform(-1, 1, (1, D)), rng.uniform(-1, 1, D)
            got = iga_pair_rows(ag.constant(e_r), ag.constant(e_g[None, :]),
                                reg, head)[0]
            assert np.allclose(got, oracles.iga(e_r[0], e_g, snapshot(reg),
                                                head), atol=1e-12)

        reg = ParamRegistry(seed=seed)
        register_gru_params(reg, D)
        e = rng.uniform(-1, 1, (4, 300))
        states = bigru(ag.constant(e), reg, ag.Packing([4]))
        want_f, want_b = oracles.bigru(e, snapshot(reg))
        assert np.allclose(states.forward.data, want_f, atol=1e-12)
        assert np.allclose(states.backward.data, want_b, atol=1e-12)

        theta0 = rng.uniform(-1, 1, (3, 4))
        reg = ParamRegistry(seed=0)
        w = reg.matrix("w", 3, 4)
        w.data = theta0.copy()
        state = init_adam(reg)
        grads = [rng.uniform(-1, 1, (3, 4)) for _ in range(5)]
        for g in grads:
            w.grad = g.copy()
            adam_step(reg, state, lr=0.01)
        assert np.allclose(w.data, oracles.adam_run(theta0, grads, 0.01),
                           atol=1e-12)


def test_criterion_03_ranking_loss_pinned_values():
    loss = triplet_loss(ag.constant(np.array([[0.5, 0.6], [0.4, 0.7]])), 0.2)
    assert loss.item() == 0.5
    flat = triplet_loss(ag.constant(np.full((2, 2), 0.3)), 0.2)
    assert flat.item() == 0.8


def test_criterion_04_recall_oracle_and_pinned_means():
    assert round(mean_recall([8.66, 22.35, 34.95, 6.04, 23.95, 40.35]),
                 2) == 22.72
    assert round(mean_recall([16.81, 36.80, 49.93, 12.20, 44.13, 66.50]),
                 2) == 37.73

    n_images, per_image = 50, 5
    for trial in range(20):
        rng = np.random.default_rng(4000 + trial)
        scores = rng.uniform(-1, 1, (n_images, n_images * per_image))
        if trial % 2:  # coarse grid every other trial to exercise ties
            scores = np.round(scores * 3) / 3
        text_to_image = np.repeat(np.arange(n_images), per_image)
        rng.shuffle(text_to_image)
        sim = SimilarityResult(scores=scores,
                               image_ids=list(range(n_images)),
                               caption_ids=list(range(scores.shape[1])),
                               text_to_image=text_to_image)
        recalls = {}
        for direction, oracle in (("i2t", oracles.recall_i2t),
                                  ("t2i", oracles.recall_t2i)):
            for k in (1, 5, 10):
                got = recall_at_k(sim, k, direction)
                assert got == oracle(scores, text_to_image, k)
                recalls[direction, k] = got
        for direction in ("i2t", "t2i"):
            assert (recalls[direction, 1] <= recalls[direction, 5]
                    <= recalls[direction, 10])


def test_criterion_05_desk_scale_overfit(overfit_run):
    assert OVERFIT_CFG.epochs <= 200
    assert overfit_run.elapsed < 300.0, (
        f"training took {overfit_run.elapsed:.0f}s")
    assert overfit_run.result.epochs[-1].loss_final < 0.01
    sim = similarity_matrix(overfit_run.model, overfit_run.ds,
                            overfit_run.train_images)
    block = recall_block(sim)
    assert block["r1_i2t"] == 100.0
    assert block["r1_t2i"] == 100.0


def test_criterion_06_fusion_and_guidance_tighten_the_space(overfit_run):
    stats = embedding_distances(overfit_run.model, overfit_run.ds,
                                overfit_run.train_images)
    assert stats["v_mr__t_rg"]["mean"] < stats["v_m__t_g"]["mean"], (
        "fused-vs-guided pairs are not closer than global pairs")
    assert stats["v_r__v_mr"]["mean"] < stats["v_r__v_m"]["mean"], (
        "fusion does not pull the joint code toward the region code")


def test_criterion_07_order_and_scale_invariances(tiny_dataset):
    from dove.checks import micro_fixture
    model, batch = micro_fixture(seed=5)
    rng = np.random.default_rng(6)

    # region rows: pooled image code and its scores, bit for bit
    t_g = model.encode_captions(batch.captions)
    base = model.encode_images(batch.msv, batch.roi)
    for trial in range(3):
        shuffled = model.encode_images(
            batch.msv, [r[rng.permutation(len(r))] for r in batch.roi])
        assert np.array_equal(base.v_mr.data, shuffled.v_mr.data)
        for got, want in zip(model.score_matrices(shuffled, t_g),
                             model.score_matrices(base, t_g)):
            assert np.array_equal(got.data, want.data)

    # batch order: total loss to 1e-12
    cfg = TrainConfig(d=8, heads=2, batch_size=2, epochs=1, seed=13,
                      val_fraction=0.0)
    tiny_model = Model(cfg, tiny_dataset.embedding)
    tiny_model.bind_feature_widths(tiny_dataset.msv.shape[2],
                                   tiny_dataset.roi.shape[2])
    indices = [0, 7, 13, 22]
    base_total = tiny_model.batch_losses(
        gather_batch(tiny_dataset, indices))[0].item()
    for perm in ([2, 3, 0, 1], [3, 1, 0, 2]):
        total = tiny_model.batch_losses(
            gather_batch(tiny_dataset, [indices[p] for p in perm]))[0].item()
        assert abs(total - base_total) < 1e-12

    # cosine scale invariance to 1e-12
    for seed in range(10):
        r = np.random.default_rng(seed)
        a, b = r.uniform(-1, 1, 16), r.uniform(-1, 1, 16)
        plain = cosine_matrix(ag.constant(a[None, :]),
                              ag.constant(b[None, :])).item()
        scaled = cosine_matrix(ag.constant(3e-3 * a[None, :]),
                               ag.constant(17.0 * b[None, :])).item()
        assert abs(plain - scaled) < 1e-12


def test_criterion_08_schedule_fixtures_and_bitwise_reruns(tmp_path):
    assert lr_at(0.0002, 0.7, 20, 0) == pytest.approx(0.0002, rel=1e-12)
    assert lr_at(0.0002, 0.7, 20, 20) == pytest.approx(0.00014, rel=1e-12)
    assert lr_at(0.0002, 0.7, 20, 40) == pytest.approx(0.000098, rel=1e-12)

    data_dir = tmp_path / "data"
    write_dataset(synth_dataset(seed=9, n_images=6, n_clusters=2, n_m=3,
                                n_r=4, d_in=6, d_r=4,
                                caption_len_range=(3, 5)), str(data_dir))
    ds = load_dataset(str(data_dir))
    cfg = TrainConfig(d=8, heads=2, batch_size=2, epochs=3, seed=21,
                      lr0=0.01, val_fraction=0.0)
    artifacts = []
    for name in ("a", "b"):
        result = train(replace(cfg), ds, str(tmp_path / name))
        model = model_from_checkpoint(load_checkpoint(result.checkpoint_path),
                                      ds)
        report = build_report(model, ds, list(range(ds.n_images)), "all")
        artifacts.append((open(result.checkpoint_path, "rb").read(),
                          report.to_json()))
    assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "reports differ"


def test_criterion_09_every_ablation_trains_under_its_own_hash(
        overfit_dataset, tmp_path):
    modes = [
        {},
        {"dtga_inputs": "ff"},
        {"dtga_inputs": "bb"},
        {"dtga_inputs": "avg"},
        {"no_dtga": True},
        {"no_ifa": True},
        {"no_iga": True},
        {"ifa_head": "nonlinear"},
        {"iga_head": "linear"},
    ]
    hashes = []
    for i, mode in enumerate(modes):
        cfg = replace(OVERFIT_CFG, epochs=1, **mode)
        result = train(cfg, overfit_dataset, str(tmp_path / f"mode{i}"))
        model = model_from_checkpoint(load_checkpoint(result.checkpoint_path),
                                      overfit_dataset)
        report = build_report(model, overfit_dataset,
                              list(range(overfit_dataset.n_images)), "all",
                              with_distances=False)
        assert set(report.full) == {"r1_i2t", "r5_i2t", "r10_i2t",
                                    "r1_t2i", "r5_t2i", "r10_t2i", "mr"}
        hashes.append(report.config_hash)
    assert len(set(hashes)) == len(modes), "config hashes collide"

    # the enhancement ablation must reduce to the plain average of the
    # two recurrence directions
    reg = ParamRegistry(seed=4)
    register_gru_params(reg, D)
    e = np.random.default_rng(8).uniform(-1, 1, (5, 300))
    one = ag.Packing([5])
    states = bigru(ag.constant(e), reg, one)
    got = word_features(states.forward, states.backward, reg, HEADS,
                        mode="fb", disabled=True, packing=one).data
    want = (states.forward.data + states.backward.data) / 2.0
    assert np.array_equal(got, want)
