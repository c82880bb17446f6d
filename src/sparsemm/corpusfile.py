"""The corpus directory format: two files per sample, written and read one sample at a time.

`save_corpus` writes sample i as `sample_NNNNN.npy`, the bytes `np.save`
writes for its trace's steps raveled and concatenated into one float64 array,
written from the steps' own buffers with no concatenated copy; then
`sample_NNNNN.json`, a canonical record of the sample, the trace's geometry
and step count, and the payload's sha256. `load_corpus` gives the samples back
as an `OcrCorpus` that reads and checks sample i's files each time it is read:
the record against RECORD_FIELDS and the grid, the payload against its record.
A loaded trace's steps are read-only views of the payload bytes read.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .artifacts import (
    Count, Field, ListOf, Number, String, encode_json, list_dir, make_dir, npy_header,
    read_array, read_object, write_bytes,
)
from .errors import InvalidInputError, ShapeError
from .simmodel import TEXT_TOKEN, AttentionTrace, OcrCorpus, OcrSample

__all__ = ["RECORD_FIELDS", "load_corpus", "save_corpus"]

# a corpus record's fields, as `_save_sample` writes them
RECORD_FIELDS = (
    Field("layers", Count(1)),
    Field("query_heads", Count(1)),
    Field("steps", Count(1)),
    Field("pairs", ListOf((Count(), ListOf(Number(), 4)))),
    Field("image_shape", ListOf(Count(1), 2)),
    Field("grid", ListOf(Count(1), 2)),
    Field("prompt_layout", ListOf(Count(TEXT_TOKEN))),
    Field("sha256", String()),
)


def _corpus_names(directory) -> list[str]:
    names = list_dir(directory, "corpus")
    return sorted(n for n in names if n.startswith("sample_") and n.endswith((".json", ".npy")))


def _save_sample(directory, stem: str, sample: OcrSample, trace: AttentionTrace, digest) -> None:
    """Write one sample's payload, then its record; feed both to `digest` in name order.

    The payload is the `.npy` header, then each step's own buffer, raveled:
    the bytes `np.save` writes for the steps concatenated, with no copy made.
    Its buffers are freed on return, so a corpus holds one sample's at a time.
    """
    steps = [step.ravel() for step in trace.steps]
    payload = [npy_header((sum(step.size for step in steps),)), *steps]
    record = encode_json({
        "image_shape": list(sample.image_shape),
        "grid": list(sample.grid),
        "pairs": [[tok, list(bbox)] for tok, bbox in sample.pairs],
        "prompt_layout": list(sample.prompt_layout),
        "layers": trace.layers,
        "query_heads": trace.query_heads,
        "steps": trace.out_len,
        "sha256": write_bytes(os.path.join(directory, stem + ".npy"), payload),
    })
    write_bytes(os.path.join(directory, stem + ".json"), record)
    for name, parts in ((stem + ".json", [record]), (stem + ".npy", payload)):
        digest.update(name.encode())
        for part in parts:
            digest.update(part)


def save_corpus(directory, samples) -> str:
    """Write each sample as `sample_NNNNN.json` beside `sample_NNNNN.npy`.

    A directory that already holds sample files is refused before anything
    is written, so a corpus never mixes in another corpus's samples.

    `samples` is read once, in order, and each sample is written before the
    next is read, so a lazy corpus is written one trace at a time.

    The `.npy` payload is one 1-D float64 array: the trace's steps, each
    raveled, concatenated in step order. The JSON record is canonical and
    holds the sample, the trace's geometry and step count, and the payload's
    sha256.

    Returns the corpus digest: the sha256 over the names and bytes of every
    record and payload, in name order, computed from the bytes as they are
    written, so nothing is read back.
    """
    make_dir(directory)
    if _corpus_names(directory):
        raise InvalidInputError(f"{directory} already holds a corpus; give an empty directory")
    digest = hashlib.sha256()
    for i, (sample, trace) in enumerate(samples):
        _save_sample(directory, f"sample_{i:05d}", sample, trace, digest)
    return digest.hexdigest()


def _load_record(path) -> tuple[OcrSample, dict]:
    """The sample and the checked fields of one corpus record.

    Past RECORD_FIELDS, the layout must label every patch of the grid once.
    """
    record = read_object(path, "corpus record", RECORD_FIELDS, old_format=(("rows",), "corpus"))
    grid = tuple(record["grid"])
    layout = record["prompt_layout"]
    labels = sorted(layout)
    del labels[: labels.count(TEXT_TOKEN)]  # every text token sorts first
    n_patches = grid[0] * grid[1]
    # each patch index once; the count goes first, so a huge grid never builds a range
    if len(labels) != n_patches or labels != list(range(n_patches)):
        raise InvalidInputError(
            f"corpus record {path}: layout's {len(labels)} image tokens are not the grid's "
            f"patch indices 0..{n_patches - 1}, each once"
        )
    pairs = tuple((tok, tuple(float(v) for v in bbox)) for tok, bbox in record["pairs"])
    return OcrSample(tuple(record["image_shape"]), grid, pairs, tuple(layout)), record


def _load_payload(path, record: dict, prompt_len: int) -> AttentionTrace:
    """The trace stored in a `.npy` payload, checked against its record.

    `read_array` checks the values; each row must also sum to 1 within 1e-9.
    """
    layers, heads, n_steps = record["layers"], record["query_heads"], record["steps"]
    expected = layers * heads * (n_steps * prompt_len + n_steps * (n_steps - 1) // 2)
    flat = read_array(path, record["sha256"], (expected,), "corpus payload")
    steps = np.split(flat, np.cumsum(layers * heads * (prompt_len + np.arange(n_steps)))[:-1])
    steps = tuple(step.reshape(layers, heads, -1) for step in steps)
    for t, step in enumerate(steps):
        if np.abs(step.sum(axis=2) - 1.0).max() > 1e-9:
            raise InvalidInputError(f"corpus payload {path}: step {t} rows do not sum to 1")
    return AttentionTrace(steps, prompt_len)


def load_corpus(directory) -> OcrCorpus:
    """The (OcrSample, AttentionTrace) pairs of a `save_corpus` directory, in name order.

    A missing or record-less directory, or a payload without its record (left by a
    `save_corpus` cut short), fails at once, and so does a malformed first record,
    which is read now for the corpus's (layers, query_heads). Sample i's files are
    read and checked each time it is read; an unreadable, malformed or mismatched
    file raises InvalidInputError, and a record of other (layers, query_heads) than the
    first raises ShapeError.
    """
    names = _corpus_names(directory)
    stems = [n[: -len(".json")] for n in names if n.endswith(".json")]
    orphans = sorted({n[: -len(".npy")] for n in names if n.endswith(".npy")} - set(stems))
    if orphans:
        raise InvalidInputError(
            f"corpus payload {os.path.join(directory, orphans[0] + '.npy')} has no record"
        )
    if not stems:
        raise InvalidInputError(f"no sample records in {directory}")
    first = os.path.join(directory, stems[0] + ".json")
    _, record = _load_record(first)
    heads = (record["layers"], record["query_heads"])

    def read(i: int) -> tuple[OcrSample, AttentionTrace]:
        stem = os.path.join(directory, stems[i])
        sample, record = _load_record(stem + ".json")
        got = (record["layers"], record["query_heads"])
        if got != heads:
            raise ShapeError(
                f"corpus record {stem}.json scores {got} (layers, query_heads), "
                f"the first record {first} {heads}"
            )
        return sample, _load_payload(stem + ".npy", record, sample.prompt_len)

    return OcrCorpus(len(stems), read)
