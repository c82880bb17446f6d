"""The synthetic model's generated bytes, pinned by sha256.

Every bench CSV and CLI artifact is computed from these rows, so a change to
the generator that moves a single bit, or draws from its generator in
another order, shows here first. The digests cover each corpus sample's
fields and step rows, and each decode workload's window scores, decode steps
and regions, for four models: MHA 2x4, GQA 2x4 over 2 kv heads with a
masked planted head, a prompt too short for an image grid, and 1x65 over 5
kv heads at prompt 2048, whose window rows and decode steps span several row
tiles of the generator and end in a one-row remainder.

The generator masks nothing, so the masked model's bytes are the base
model's, masked after they are drawn (`masked_model`): its corpus steps and
decode steps by `masked_steps`, and its window scores read from the
`MaskedGroups` table that the base workload derives for its masked set. Its
digests are the ones the model gave when the generator drew masked rows
itself, so they also check that masking after every draw perturbs no other
bit.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from sparsemm.simmodel import (
    ModelGeometry,
    PlantedHeadSet,
    build_synthetic_model,
    generate_ocr_samples,
)

from masked_model import masked_corpus, masked_steps, table_scores


def _array(digest, arr, dtype) -> None:
    arr = np.ascontiguousarray(arr, dtype=dtype)
    digest.update(repr(arr.shape).encode())
    digest.update(arr.tobytes())


def corpus_digest(samples) -> str:
    digest = hashlib.sha256()
    for sample, trace in samples:
        fields = [sample.image_shape, sample.grid, sample.pairs, sample.prompt_layout]
        digest.update(json.dumps(fields).encode())
        for step in trace.steps:
            _array(digest, step, np.float64)
    return digest.hexdigest()


def workload_digest(workload) -> str:
    digest = hashlib.sha256()
    digest.update(repr((workload.prompt_len, workload.out_len, workload.window)).encode())
    _array(digest, workload.window_scores, np.float64)
    for rows in workload.steps:
        _array(digest, rows, np.float64)
    _array(digest, workload.union_positions, np.int64)
    for region in workload.token_regions:
        _array(digest, region, np.int64)
    return digest.hexdigest()


PLANTED = ((0, 1), (1, 2))

MODELS = {
    # name: (layers, query_heads, kv_heads, planted, masked, seed, prompt_len, window)
    "mha-2x4": (2, 4, 4, PLANTED, (), 5, 160, 32),
    "gqa-2x4-2kv-masked": (2, 4, 2, PLANTED, ((0, 1), (1, 3)), 6, 160, 32),
    "no-image-grid": (2, 4, 2, PLANTED, (), 7, 6, 4),
    "multi-tile-1x65-5kv": (1, 65, 5, ((0, 1), (0, 40)), (), 8, 2048, 4),
}

DIGESTS = {
    "mha-2x4": (
        "3cc061d732c1ba26176466beda6626c8cc2278f65379aa9b6f76eae24952b5d7",
        "5d1e594ca38820a376128647fe2fcb0b0b0936193b833f1f2fb430f909b5e1c5",
    ),
    "gqa-2x4-2kv-masked": (
        "dce207af5081943783dbc1d3daa3af9437a8674ab219d2d03cfbc8225db38513",
        "b81865fa4150c80825b3e711e2dae1715677feab4963ca7edde789d0a4b44561",
    ),
    "no-image-grid": (
        "3ce472820a881a77217d9ed80e772a4b3cfe003da008dff51158bedcc9b84b8e",
        "34133dec9ae49c3240bbded60b0b45dd9c978b04220bc62a5c21dc25c301438d",
    ),
    "multi-tile-1x65-5kv": (
        "d7de280e25985b22113ac5665f9591ff6b58fc51736edeb86a93129af36faa1d",
        "557e377a9ce860cd2a485e9158258d6a8556aad6784a044cedf748f188e7021e",
    ),
}


def _model(name):
    """The base model and its masked heads."""
    layers, query_heads, kv_heads, planted, masked, seed, _, _ = MODELS[name]
    planted = PlantedHeadSet.uniform(planted, 0.8)
    model = build_synthetic_model(ModelGeometry(layers, query_heads, kv_heads), planted, seed)
    return model, masked


@pytest.mark.parametrize("name", sorted(MODELS))
def test_corpus_bytes(name):
    model, masked = _model(name)
    samples = masked_corpus(generate_ocr_samples(model, 3, seed=11), masked)
    assert corpus_digest(samples) == DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_decode_workload_bytes(name):
    *_, prompt_len, window = MODELS[name]
    model, masked = _model(name)
    workload = model.decode_workload(prompt_len, 3, window, [masked])
    workload = replace(workload, window_scores=table_scores(workload, 0),
                       steps=masked_steps(workload.steps, masked))
    assert workload_digest(workload) == DIGESTS[name][1]
