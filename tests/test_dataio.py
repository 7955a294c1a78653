"""Feature banks, vocabulary, captions, embedding table, dataset assembly."""
from __future__ import annotations

import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dove import dataio
from dove.dataio import (BankFormatError, BankPayloadError,
                         BankVersionError, CaptionFormatError, Dataset,
                         load_captions, load_dataset, load_embedding_table,
                         load_feature_bank, load_vocab, normalize_token,
                         read_bank_header, write_captions,
                         write_embedding_table, write_feature_bank,
                         write_vocab)
from dove.config import TrainConfig
from dove.evaluation import build_report
from dove.synth import synth_dataset, write_dataset
from dove.train import load_checkpoint, model_from_checkpoint, train


def bank_path(tmp_path, values):
    path = tmp_path / "bank.fb"
    write_feature_bank(str(path), np.asarray(values, dtype=np.float64))
    return str(path)


# -------------------------------------------------------------------- banks

def test_bank_round_trip_bit_identical(tmp_path):
    # values exactly representable in float32 survive the round trip exactly
    values = np.array([[[0.5, -1.25, 3.0], [0.0625, 8.0, -0.75]]])
    path = bank_path(tmp_path, values)
    assert read_bank_header(path) == (1, 2, 3)
    loaded = load_feature_bank(path)
    assert loaded.dtype == np.float32
    assert np.array_equal(loaded, values)


def test_loaded_bank_is_a_writable_float32_copy(tmp_path):
    values = np.random.default_rng(5).standard_normal((3, 4, 5))
    loaded = load_feature_bank(bank_path(tmp_path, values))
    assert loaded.dtype == np.float32 and loaded.flags.writeable
    assert np.array_equal(loaded, values.astype(np.float32))
    loaded[0, 0, 0] = 2.0  # the caller may edit it, as a table fix-up does


def test_loading_a_bank_holds_one_copy_of_its_payload(tmp_path):
    # the loaded values are the only copy left; while loading, the file's
    # bytes and that copy are the only two payload-sized blocks
    values = np.ones((64, 36, 512), dtype=np.float32)  # 4.7 MB payload
    path = str(tmp_path / "big.fb")
    write_feature_bank(path, values)
    tracemalloc.start()
    try:
        loaded = load_feature_bank(path)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.shape == values.shape
    assert current <= 1.05 * values.nbytes
    assert peak <= 2.1 * values.nbytes


def test_bank_write_checks_the_float32_values_it_writes(tmp_path):
    # 1e39 is finite as float64 but inf as float32: writing it would make a
    # bank the loader rejects
    path = tmp_path / "over.fb"
    with pytest.raises(BankPayloadError, match="non-finite"):
        write_feature_bank(str(path), np.array([[[1.0, 1e39]]]))
    assert list(tmp_path.iterdir()) == []
    top = float(np.finfo(np.float32).max)
    values = np.array([[[top, -top]]])
    assert np.array_equal(load_feature_bank(bank_path(tmp_path, values)),
                          values)


def test_bank_write_rejects_bad_payloads(tmp_path):
    with pytest.raises(BankPayloadError):
        write_feature_bank(str(tmp_path / "x.fb"), np.zeros((2, 3)))  # rank 2
    with pytest.raises(BankPayloadError):
        write_feature_bank(str(tmp_path / "x.fb"),
                           np.array([[[1.0, np.inf]]]))


def test_bank_truncated_payload(tmp_path):
    path = bank_path(tmp_path, np.ones((2, 2, 2)))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-4])  # drop one float32
    with pytest.raises(BankPayloadError, match="payload holds"):
        load_feature_bank(path)


def test_bank_oversized_payload(tmp_path):
    path = bank_path(tmp_path, np.ones((2, 2, 2)))
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(BankPayloadError):
        load_feature_bank(path)


@pytest.mark.parametrize("shape,extent", [((0, 2, 3), "samples"),
                                          ((2, 0, 3), "rows"),
                                          ((2, 3, 0), "cols")])
def test_bank_zero_extent_is_rejected(tmp_path, shape, extent):
    # the header and the empty payload agree, but no model can read it
    path = bank_path(tmp_path, np.zeros(shape))
    assert read_bank_header(path) == shape
    message = f"{re.escape(path)}: header declares zero {extent}"
    with pytest.raises(BankPayloadError, match=message):
        load_feature_bank(path)


def test_bank_nonfinite_payload_names_offset(tmp_path):
    path = tmp_path / "nan.fb"
    payload = np.array([1.0, 2.0, np.nan, 4.0], dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(struct.Struct("<8sIII").pack(b"DOVEFB01", 1, 2, 2))
        fh.write(payload)
    with pytest.raises(BankPayloadError, match="float offset 2"):
        load_feature_bank(str(path))


def test_bank_bad_magic(tmp_path):
    path = tmp_path / "bad.fb"
    path.write_bytes(b"NOTABANK" + b"\x00" * 12)
    with pytest.raises(BankFormatError):
        read_bank_header(str(path))


def test_bank_unsupported_version(tmp_path):
    path = tmp_path / "new.fb"
    path.write_bytes(struct.Struct("<8sIII").pack(b"DOVEFB02", 1, 1, 1)
                     + b"\x00" * 4)
    with pytest.raises(BankVersionError):
        read_bank_header(str(path))


def test_bank_short_header(tmp_path):
    path = tmp_path / "short.fb"
    path.write_bytes(b"DOVEFB01")
    with pytest.raises(BankFormatError, match="shorter than"):
        read_bank_header(str(path))


# -------------------------------------------------------------------- vocab

def test_vocab_round_trip(tmp_path):
    path = str(tmp_path / "vocab.txt")
    write_vocab(path, ["<unk>", "river", "bridge"])
    assert load_vocab(path) == {"<unk>": 0, "river": 1, "bridge": 2}


@pytest.mark.parametrize("text,complaint", [
    ("river\t1\nriver\t2\n", "duplicate token"),
    ("river\t1\nbridge\t1\n", "duplicate id"),
    ("river\tone\n", "non-integer id"),
    ("river\t-3\n", "negative id"),
    ("river 1\n", "expected"),
])
def test_vocab_rejects(tmp_path, text, complaint):
    path = tmp_path / "vocab.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CaptionFormatError, match=complaint):
        load_vocab(str(path))


# ----------------------------------------------------------------- captions

def test_normalize_token():
    assert normalize_token("Dog.") == "dog"
    assert normalize_token("--Hello!!") == "hello"
    assert normalize_token("it's") == "it's"  # interior punctuation stays
    assert normalize_token("((()))") == ""


def test_captions_round_trip_and_unknowns(tmp_path):
    path = str(tmp_path / "caps.txt")
    write_captions(path, [(0, ["a", "River."]), (1, ["zzz", "bridge"])])
    caps = load_captions(path, {"<unk>": 0, "a": 1, "river": 2, "bridge": 3},
                         n_images=2)
    assert [r.image_index for r in caps.records] == [0, 1]
    assert caps.records[0].token_ids == [1, 2]   # normalization applied
    assert caps.records[1].token_ids == [0, 3]   # zzz fell back to unknown
    assert caps.unknown_tokens == 1


@pytest.mark.parametrize("line,complaint", [
    ("5\ta b", "out of range"),
    ("-1\ta b", "out of range"),
    ("x\ta b", "non-integer image index"),
    ("0\t...", "no tokens"),
    ("0 a b", "expected"),
])
def test_captions_reject(tmp_path, line, complaint):
    path = tmp_path / "caps.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(CaptionFormatError, match=complaint):
        load_captions(str(path), {"a": 1, "b": 2}, n_images=2)


# --------------------------------------------------------------- embeddings

def test_embedding_table_round_trip(tmp_path):
    path = str(tmp_path / "emb.fb")
    table = np.round(np.linspace(-1, 1, 2 * dataio.EMBED_DIM), 3).reshape(
        2, dataio.EMBED_DIM).astype(np.float32).astype(np.float64)
    write_embedding_table(path, table)
    assert np.array_equal(load_embedding_table(path), table)


def test_embedding_table_rejects_wrong_width(tmp_path):
    with pytest.raises(BankPayloadError):
        write_embedding_table(str(tmp_path / "emb.fb"), np.zeros((4, 299)))
    # a legal bank whose shape is not an embedding table
    path = str(tmp_path / "notemb.fb")
    write_feature_bank(path, np.zeros((2, 2, dataio.EMBED_DIM)))
    with pytest.raises(BankPayloadError, match="rows=1"):
        load_embedding_table(path)


# ------------------------------------------------------------------ dataset

def test_load_dataset_assembles_everything(tiny_dataset_dir, tiny_dataset):
    ds = tiny_dataset
    assert ds.n_images == 6
    assert ds.msv.shape == (6, 3, 6)
    assert ds.roi.shape == (6, 4, 4)
    assert ds.n_captions == 30
    assert ds.embedding.shape[1] == dataio.EMBED_DIM
    assert ds.unknown_tokens == 0
    assert ds.captions_of([2]) == [k for k, rec in enumerate(ds.captions)
                                   if rec.image_index == 2]
    assert ds.captions_of([4, 1]) == [k for k, rec in enumerate(ds.captions)
                                      if rec.image_index in (1, 4)]
    # every referenced token id stays inside the embedding table
    top = max(max(rec.token_ids) for rec in ds.captions)
    assert top < ds.embedding.shape[0]


def test_load_dataset_rejects_sample_count_mismatch(tiny_dataset_dir, tmp_path):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(tiny_dataset_dir, broken)
    write_feature_bank(str(broken / dataio.ROI_FILE), np.zeros((3, 4, 4)))
    with pytest.raises(BankPayloadError, match="sample counts differ"):
        load_dataset(str(broken))


def test_load_dataset_rejects_small_embedding(tiny_dataset_dir, tmp_path):
    import shutil
    broken = tmp_path / "small_emb"
    shutil.copytree(tiny_dataset_dir, broken)
    write_embedding_table(str(broken / dataio.EMBED_FILE),
                          np.zeros((2, dataio.EMBED_DIM)))
    with pytest.raises(BankPayloadError, match="vocab ids reach"):
        load_dataset(str(broken))


def test_float32_banks_give_the_bytes_of_their_float64_upcast(tmp_path):
    # rows become float64 exactly where they enter the model, so training
    # and a report from the loaded banks match a float64 copy of them
    data = tmp_path / "data"
    write_dataset(synth_dataset(seed=1, n_images=32, n_clusters=4,
                                d_in=64, d_r=32), str(data))
    ds32 = load_dataset(str(data))
    assert {a.dtype for a in (ds32.msv, ds32.roi, ds32.embedding)} == {
        np.dtype(np.float32)}
    ds64 = replace(ds32, msv=ds32.msv.astype(np.float64),
                   roi=ds32.roi.astype(np.float64),
                   embedding=ds32.embedding.astype(np.float64))
    cfg = TrainConfig(d=64, heads=2, batch_size=8, epochs=2, seed=3)
    images = list(range(32))
    outputs = []
    for name, ds in (("f32", ds32), ("f64", ds64)):
        result = train(replace(cfg), ds, str(tmp_path / name))
        model = model_from_checkpoint(load_checkpoint(result.checkpoint_path),
                                      ds)
        report = build_report(model, ds, images, "all",
                              [("half", images[::2])], with_distances=True)
        with open(result.checkpoint_path, "rb") as fh:
            outputs.append((fh.read(), report.to_json()))
    assert outputs[0] == outputs[1]


def test_dataset_views():
    ds = Dataset(msv=np.zeros((2, 1, 3)), roi=np.zeros((2, 1, 3)),
                 captions=[], embedding=np.zeros((1, 300)), vocab={"<unk>": 0})
    assert ds.n_images == 2 and ds.n_captions == 0
