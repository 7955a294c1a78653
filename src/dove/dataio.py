"""On-disk dataset artifacts and their loaders.

A feature bank is a little-endian binary container:

    bytes 0..7   magic "DOVEFB01" (format name + version)
    bytes 8..19  three uint32: n_samples, rows, cols (each at least 1)
    payload      n_samples*rows*cols float32, sample-major row-major

Banks stay float32 in memory; ``Model`` makes their values float64 as
they enter the graph.  Caption files are UTF-8 lines
``<image_index>\\t<token token ...>``; vocabulary files are
``<token>\\t<id>`` with id 0 reserved for unknown tokens.  The embedding
table reuses the bank container with rows=1 and cols=300.

Every file the engine writes goes through ``atomic_write``.
"""
from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"DOVEFB01"
MAGIC_PREFIX = b"DOVEFB"
EMBED_DIM = 300
UNKNOWN_ID = 0

_HEADER = struct.Struct("<8sIII")


class BankFormatError(ValueError):
    """The file is not a feature bank (bad magic or malformed header)."""


class BankVersionError(BankFormatError):
    """The file is a feature bank of an unsupported version."""


class BankPayloadError(ValueError):
    """Payload truncated, oversized, or containing non-finite values."""


class CaptionFormatError(ValueError):
    """A caption or vocabulary line failed to parse or validate."""


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "w"):
    """A file to write whose contents replace ``path`` when the block ends.

    The block writes a temporary file beside ``path``, which then takes
    ``path``'s place in one ``os.replace``, so a reader finds the old file
    or the whole new one.  If the block raises, the temporary file is
    removed and ``path`` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_feature_bank(path: str, values: np.ndarray):
    """Write an (n_samples, rows, cols) array as a bank of finite float32s."""
    with np.errstate(over="ignore"):
        arr = np.asarray(values, dtype="<f4", order="C")
    if arr.ndim != 3:
        raise BankPayloadError(f"bank values must be rank 3, got rank {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise BankPayloadError("bank values contain non-finite entries")
    n, rows, cols = arr.shape
    with atomic_write(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, rows, cols))
        fh.write(arr)


def read_bank_header(path: str) -> tuple[int, int, int]:
    """(n_samples, rows, cols) from the header, with magic validation."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise BankFormatError(f"{path}: file shorter than a bank header")
    magic, n, rows, cols = _HEADER.unpack(head)
    if magic != MAGIC:
        if magic.startswith(MAGIC_PREFIX):
            raise BankVersionError(
                f"{path}: bank version {magic[6:].decode('ascii', 'replace')!r} "
                f"unsupported (expected {MAGIC[6:].decode('ascii')!r})")
        raise BankFormatError(f"{path}: bad magic {magic!r}")
    return n, rows, cols


def load_feature_bank(path: str) -> np.ndarray:
    """Load a bank as a writable float32 (n_samples, rows, cols) array."""
    n, rows, cols = read_bank_header(path)
    for name, size in (("samples", n), ("rows", rows), ("cols", cols)):
        if size == 0:
            raise BankPayloadError(f"{path}: header declares zero {name}")
    expected = n * rows * cols
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        payload = fh.read()
    count = len(payload) // 4
    if len(payload) % 4 != 0 or count != expected:
        raise BankPayloadError(
            f"{path}: payload holds {count} float32 values, header declares {expected}")
    flat = np.frombuffer(payload, dtype="<f4").copy()
    del payload
    bad = ~np.isfinite(flat)
    if bad.any():
        offset = int(np.argmax(bad))
        raise BankPayloadError(f"{path}: non-finite value at float offset {offset}")
    return flat.reshape(n, rows, cols)


# ------------------------------------------------------------------- vocab

def write_vocab(path: str, tokens: list[str]):
    """Write token->id lines; tokens[i] gets id i (index 0 is the unknown)."""
    with atomic_write(path) as fh:
        for i, tok in enumerate(tokens):
            fh.write(f"{tok}\t{i}\n")


def load_vocab(path: str) -> dict[str, int]:
    vocab: dict[str, int] = {}
    ids = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CaptionFormatError(
                    f"{path}:{lineno}: expected '<token>\\t<id>', got {line!r}")
            token, raw_id = parts
            try:
                token_id = int(raw_id)
            except ValueError:
                raise CaptionFormatError(
                    f"{path}:{lineno}: non-integer id {raw_id!r}") from None
            if token_id < 0:
                raise CaptionFormatError(f"{path}:{lineno}: negative id {token_id}")
            if token in vocab:
                raise CaptionFormatError(f"{path}:{lineno}: duplicate token {token!r}")
            if token_id in ids:
                raise CaptionFormatError(f"{path}:{lineno}: duplicate id {token_id}")
            vocab[token] = token_id
            ids.add(token_id)
    return vocab


# ---------------------------------------------------------------- captions

@dataclass
class CaptionRecord:
    image_index: int
    token_ids: list[int]


@dataclass
class CaptionSet:
    records: list[CaptionRecord]
    unknown_tokens: int  # how many tokens fell back to id 0


def normalize_token(token: str) -> str:
    """Lowercase and strip leading/trailing ASCII punctuation."""
    return token.lower().strip("!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


def load_captions(path: str, vocab: dict[str, int],
                  n_images: int) -> CaptionSet:
    records = []
    unknown = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise CaptionFormatError(
                    f"{path}:{lineno}: expected '<image_index>\\t<tokens>', got {line!r}")
            raw_idx, text = parts
            try:
                image_index = int(raw_idx)
            except ValueError:
                raise CaptionFormatError(
                    f"{path}:{lineno}: non-integer image index {raw_idx!r}") from None
            if not 0 <= image_index < n_images:
                raise CaptionFormatError(
                    f"{path}:{lineno}: image index {image_index} out of range")
            tokens = [tok for tok in map(normalize_token, text.split()) if tok]
            if not tokens:
                raise CaptionFormatError(f"{path}:{lineno}: caption has no tokens")
            ids = []
            for tok in tokens:
                if tok in vocab:
                    ids.append(vocab[tok])
                else:
                    ids.append(UNKNOWN_ID)
                    unknown += 1
            records.append(CaptionRecord(image_index, ids))
    return CaptionSet(records, unknown)


def write_captions(path: str, records: list[tuple[int, list[str]]]):
    with atomic_write(path) as fh:
        for image_index, tokens in records:
            fh.write(f"{image_index}\t{' '.join(tokens)}\n")


# -------------------------------------------------------------- embeddings

def write_embedding_table(path: str, table: np.ndarray):
    arr = np.asarray(table)
    if arr.ndim != 2 or arr.shape[1] != EMBED_DIM:
        raise BankPayloadError(
            f"embedding table must be (vocab, {EMBED_DIM}), got {arr.shape}")
    write_feature_bank(path, arr[:, None, :])


def load_embedding_table(path: str) -> np.ndarray:
    bank = load_feature_bank(path)
    n, rows, cols = bank.shape
    if rows != 1 or cols != EMBED_DIM:
        raise BankPayloadError(
            f"{path}: embedding table must have rows=1 cols={EMBED_DIM}, "
            f"got rows={rows} cols={cols}")
    return bank[:, 0, :]


# ----------------------------------------------------------------- dataset

MSV_FILE = "msv.fb"
ROI_FILE = "roi.fb"
CAPTIONS_FILE = "captions.txt"
VOCAB_FILE = "vocab.txt"
EMBED_FILE = "embedding.fb"

DATASET_FILES = (MSV_FILE, ROI_FILE, CAPTIONS_FILE, VOCAB_FILE, EMBED_FILE)


@dataclass
class Dataset:
    """A fully loaded dataset: feature banks plus text artifacts."""
    msv: np.ndarray          # (n_images, n_m, d_in), float32 from a bank
    roi: np.ndarray          # (n_images, n_r, d_r), float32 from a bank
    captions: list[CaptionRecord]
    embedding: np.ndarray    # (vocab_size, 300), float32 from a bank
    vocab: dict[str, int]
    unknown_tokens: int = 0

    @property
    def n_images(self) -> int:
        return self.msv.shape[0]

    @property
    def n_captions(self) -> int:
        return len(self.captions)

    def captions_of(self, image_indices) -> list[int]:
        """Indices, in file order, of every caption of the given images."""
        wanted = set(image_indices)
        return [k for k, rec in enumerate(self.captions)
                if rec.image_index in wanted]


def load_dataset(directory: str) -> Dataset:
    msv = load_feature_bank(os.path.join(directory, MSV_FILE))
    roi = load_feature_bank(os.path.join(directory, ROI_FILE))
    if msv.shape[0] != roi.shape[0]:
        raise BankPayloadError(
            f"bank sample counts differ: msv={msv.shape[0]} roi={roi.shape[0]}")
    vocab = load_vocab(os.path.join(directory, VOCAB_FILE))
    caps = load_captions(os.path.join(directory, CAPTIONS_FILE), vocab,
                         n_images=msv.shape[0])
    table = load_embedding_table(os.path.join(directory, EMBED_FILE))
    max_id = max(vocab.values(), default=0)
    if table.shape[0] <= max_id:
        raise BankPayloadError(
            f"embedding table has {table.shape[0]} rows but vocab ids reach {max_id}")
    return Dataset(msv, roi, caps.records, table, vocab, caps.unknown_tokens)
