"""Tests for the synthetic attention model: planted structure, determinism, IO."""

import dataclasses
import hashlib
import json
import math
import re
import tempfile
import tracemalloc
import weakref
from collections import deque
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from sparsemm import cache, simmodel
from sparsemm.allocator import POLICY_NAMES, AllocationConfig, BudgetPlan, allocate, allocate_uniform
from sparsemm.cache import compress_prefill, replay_masked, replay_plans, sum_onto_kv_heads
from sparsemm.chaser import HeadScoreMatrix, chase_corpus, match_bbox_to_patches
from sparsemm.errors import InvalidInputError, ShapeError
from sparsemm.simmodel import (
    TEXT_TOKEN,
    AttentionTrace,
    DecodeWorkload,
    ModelGeometry,
    OcrSample,
    PlantedHeadSet,
    SyntheticModel,
    build_synthetic_model,
    generate_ocr_samples,
    mask_heads,
)
from sparsemm.corpusfile import load_corpus, save_corpus

from corpus_oracle import corpus_digest
from ranking_oracle import rank_window_keys
from replay_oracle import replay_plan


def small_model(seed=0, strength=1.0, planted=((0, 1),), geometry=None):
    geo = geometry or ModelGeometry.mha(2, 4)
    return build_synthetic_model(geo, PlantedHeadSet.uniform(list(planted), strength), seed)


def oracle_normalize_blocks(draw, roles):
    """Role-wise normalization through a gathered copy and a zero-filled output.

    `roles` pairs position arrays with target masses; roles with no visible
    position forfeit their mass to the rest (renormalized). The in-place
    `simmodel._normalize_blocks` must reproduce it bit for bit.
    """
    out = np.zeros_like(draw)
    live = [(pos, m) for pos, m in roles if pos.size]
    z = sum(m for _, m in live)
    for pos, m in live:
        block = draw[..., pos]
        out[..., pos] = (m / z) * block / block.sum(axis=-1, keepdims=True)
    return out


def oracle_hit_row(rng, row, region):
    """Rebuild a planted head's decode row in place as peak + region + scaled background."""
    weights = rng.exponential(size=region.size)
    peak = int(region[rng.integers(region.size)])
    row *= 1.0 - simmodel.PEAK_MASS - simmodel.REGION_MASS
    row[region] += simmodel.REGION_MASS * weights / weights.sum()
    row[peak] += simmodel.PEAK_MASS


def oracle_trace(steps):
    """A drawn trace's steps drawn one at a time, each normalized by `oracle_normalize_blocks`.

    `steps` is a `DecodeSteps`. Each step's background is drawn whole, then
    its planted heads' hits, then its masked rows go uniform, before the
    next step is drawn: the per-step draw that batched steps must equal.
    """
    model, rng = steps.model, simmodel._fork(steps.rng)
    geo = model.geometry
    bg = steps.bg
    out = []
    for t, region in enumerate(steps.regions):
        visible = steps.prompt_len + t
        draw = rng.exponential(size=(geo.layers, geo.query_heads, visible))
        block = oracle_normalize_blocks(draw, [
            (np.arange(steps.text_off, visible), bg[0]),
            (np.arange(steps.n_pre), bg[1]),
            (np.arange(steps.n_pre, min(steps.text_off, visible)), bg[2]),
        ])
        for l, h in model.planted.heads:
            if rng.random() < model.planted.strength and region.size:
                oracle_hit_row(rng, block[l, h], region)
        for l, h in sorted(model.masked):
            block[l, h] = 1.0 / visible
        out.append(block)
    return out


def oracle_layout(model, prompt_len, out_len, window):
    """The decode workload's prompt layout, drawn as `SyntheticModel.decode_workload` draws it.

    Returns (rng, n_pre, image_off, g, union_positions, token_regions), the
    generator as it stands before the window rows.
    """
    rng = model._rng(simmodel._STREAM_DECODE, prompt_len, out_len, window)
    n_pre = min(4, max(0, prompt_len - window))
    tail = max(1, min(24, window - n_pre, prompt_len - n_pre))
    g_avail = prompt_len - n_pre - tail
    if g_avail >= 4:
        gr = int(math.isqrt(g_avail))
        gc = g_avail // gr
        g = gr * gc
        header = g_avail - g
    else:
        gr = gc = g = 0
        header = max(0, g_avail)
    image_off = n_pre + header

    rects = []
    union_patches = set()
    if g:
        for _ in range(16):
            if len(union_patches) >= 0.6 * g:
                break
            rh = int(rng.integers(max(1, gr // 4), max(2, gr // 3) + 1))
            rw = int(rng.integers(max(1, gc // 4), max(2, gc // 3) + 1))
            r0 = int(rng.integers(0, gr - rh + 1))
            c0 = int(rng.integers(0, gc - rw + 1))
            rects.append((r0, c0, rh, rw))
            union_patches |= {(r0 + i) * gc + (c0 + j) for i in range(rh) for j in range(rw)}
    union_positions = image_off + np.array(sorted(union_patches), dtype=np.int64)

    token_regions = []
    for _ in range(out_len):
        if rects:
            r0, c0, rh, rw = rects[int(rng.integers(len(rects)))]
            sh = int(rng.integers(1, rh + 1))
            sw = int(rng.integers(1, rw + 1))
            o_r = r0 + int(rng.integers(0, rh - sh + 1))
            o_c = c0 + int(rng.integers(0, rw - sw + 1))
            patches = np.array([(o_r + i) * gc + (o_c + j) for i in range(sh) for j in range(sw)])
            token_regions.append(image_off + patches)
        else:
            token_regions.append(np.empty(0, dtype=np.int64))
    return rng, n_pre, image_off, g, union_positions, token_regions


def oracle_decode_workload(model, prompt_len, out_len, window):
    """The materializing decode workload: (L, Hq, w, Lp) window rows and decode rows.

    Same RNG draws and role layout as `SyntheticModel.decode_workload`, but
    every window row is stored, and blocks are normalized by
    `oracle_normalize_blocks`. Returns (window_attention, decode_rows).
    """
    geo = model.geometry
    lp = prompt_len
    rng, n_pre, image_off, g, union_positions, token_regions = oracle_layout(
        model, prompt_len, out_len, window
    )
    sinks = np.arange(n_pre)
    leak_pos = np.arange(n_pre, image_off + g)
    tail_pos = np.arange(image_off + g, lp)

    bg = simmodel.DECODE_BG
    window_stack = np.zeros((geo.layers, geo.query_heads, window, lp))
    for i in range(window):
        pos = lp - window + i
        visible = pos + 1
        text = tail_pos[tail_pos <= pos]
        leak_vis = leak_pos[leak_pos <= pos]
        draw = rng.exponential(size=(geo.layers, geo.query_heads, visible))
        block = oracle_normalize_blocks(draw, [(text, bg[0]), (sinks, bg[1]), (leak_vis, bg[2])])
        union_vis = union_positions[union_positions <= pos]
        for l, h in model.planted.heads:
            if union_vis.size:
                u_mass = simmodel.WINDOW_REGION_FACTOR * model.planted.strength
                spread = rng.exponential(size=union_vis.size)
                row = (1.0 - u_mass) * block[l, h]
                row[union_vis] += u_mass * spread / spread.sum()
                block[l, h] = row
        for l, h in sorted(model.masked):
            block[l, h] = 1.0 / visible
        window_stack[:, :, i, :visible] = block

    decode_rows = []
    for t in range(out_len):
        visible = lp + t
        text = np.concatenate([tail_pos, lp + np.arange(t)])
        draw = rng.exponential(size=(geo.layers, geo.query_heads, visible))
        block = oracle_normalize_blocks(draw, [(text, bg[0]), (sinks, bg[1]), (leak_pos, bg[2])])
        region = token_regions[t]
        for l, h in model.planted.heads:
            if rng.random() < model.planted.strength and region.size:
                oracle_hit_row(rng, block[l, h], region)
        for l, h in sorted(model.masked):
            block[l, h] = 1.0 / visible
        decode_rows.append(block)
    return window_stack, decode_rows


def masked_sets(masked):
    """Each set of a `MaskedGroups` table, in set order, as its heads and its rows' groups,
    rows and scores: the table's rows where `sets == i`."""
    return [
        SimpleNamespace(heads=heads, groups=masked.groups[masked.sets == i],
                        rows=masked.rows[masked.sets == i], scores=masked.scores[masked.sets == i])
        for i, heads in enumerate(masked.heads)
    ]


def rows_buffer_window(model, prompt_len, out_len, window, masks=()):
    """The window pass that holds each window row whole in a block-sized `rows` buffer.

    Every row is drawn whole with `rng.exponential`, normalized by
    `oracle_normalize_blocks`, edited and masked in place, as
    `oracle_decode_workload` draws it, and summed onto the kv heads whole;
    each masked set's groups, those holding a head the model does not mask
    yet, ascending, are copied from it: the pass as it ran before window
    rows were streamed in kv-group tiles. Returns (window_scores,
    [scores of each masked set]).
    """
    geo = model.geometry
    lp, n = prompt_len, prompt_len - window
    rng, n_pre, image_off, g, union_positions, _ = oracle_layout(
        model, prompt_len, out_len, window
    )
    bg = simmodel.DECODE_BG
    u_mass = simmodel.WINDOW_REGION_FACTOR * model.planted.strength
    size = geo.group_size
    cells = []
    for heads in masks:
        heads = mask_heads(model, heads).masked - model.masked
        groups = sorted({l * geo.kv_heads + h // size for l, h in heads})
        rows = np.zeros((len(groups), size), dtype=bool)
        for l, h in heads:
            rows[groups.index(l * geo.kv_heads + h // size), h % size] = True
        cells.append(SimpleNamespace(groups=np.array(groups, dtype=np.intp), rows=rows,
                                     scores=np.zeros((len(groups), n))))
    window_scores = np.zeros((geo.layers, geo.kv_heads, n))
    rows = np.empty(geo.layers * geo.query_heads * lp)
    for i in range(window):
        pos = lp - window + i
        visible = pos + 1
        block = rows[: geo.layers * geo.query_heads * visible].reshape(
            geo.layers, geo.query_heads, visible
        )
        block[...] = oracle_normalize_blocks(
            rng.exponential(size=block.shape),
            [(np.arange(image_off + g, visible), bg[0]), (np.arange(n_pre), bg[1]),
             (np.arange(n_pre, min(image_off + g, visible)), bg[2])],
        )
        union_vis = union_positions[union_positions <= pos]
        for l, h in model.planted.heads:
            if union_vis.size:
                spread = rng.exponential(size=union_vis.size)
                block[l, h] *= 1.0 - u_mass
                block[l, h, union_vis] += u_mass * spread / spread.sum()
        for l, h in sorted(model.masked):
            block[l, h] = 1.0 / visible
        window_scores += sum_onto_kv_heads(block[:, :, :n], geo.kv_heads)
        grouped = block.reshape(-1, geo.group_size, visible)
        for cell in cells:
            rows_of = grouped[cell.groups, :, :n]
            rows_of[cell.rows] = 1.0 / visible
            cell.scores[...] += sum_onto_kv_heads(rows_of, 1)[:, 0]
    if window:
        window_scores /= window
        for cell in cells:
            cell.scores[...] /= window
    return window_scores, [cell.scores for cell in cells]


def eager_corpus(model, n, seed):
    """The corpus drawn into a list: sample i from its own generator, in index order."""
    return [model.sample_ocr(model._rng(simmodel._STREAM_CORPUS, seed, i)) for i in range(n)]


def assert_same_sample(got, want):
    (sample, trace), (want_sample, want_trace) = got, want
    assert sample == want_sample
    assert trace.prompt_len == want_trace.prompt_len
    assert [r.shape for r in trace.steps] == [r.shape for r in want_trace.steps]
    assert [r.tobytes() for r in trace.steps] == [r.tobytes() for r in want_trace.steps]


def held_arrays(value, held=None) -> dict:
    """id -> nbytes of every ndarray reachable through dataclass fields and containers."""
    held = {} if held is None else held
    if isinstance(value, np.ndarray):
        held[id(value)] = value.nbytes
    elif isinstance(value, (tuple, list, set, frozenset)):
        for item in value:
            held_arrays(item, held)
    elif isinstance(value, dict):
        for item in value.values():
            held_arrays(item, held)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            held_arrays(getattr(value, f.name), held)
    return held


class TestGeometry:
    def test_group_size(self):
        geo = ModelGeometry(2, 8, 2)
        assert geo.group_size == 4

    def test_mha(self):
        geo = ModelGeometry.mha(3, 5)
        assert (geo.layers, geo.query_heads, geo.kv_heads) == (3, 5, 5)
        assert geo.group_size == 1

    def test_divisibility_enforced(self):
        with pytest.raises(InvalidInputError):
            ModelGeometry(2, 6, 4)


class TestPlantedHeadSet:
    def test_canonical_order_and_len(self):
        planted = PlantedHeadSet.uniform([(3, 1), (0, 2)], 0.5)
        assert planted.heads == ((0, 2), (3, 1))
        assert len(planted) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            PlantedHeadSet.uniform([(0, 1), (0, 1)], 0.5)

    def test_strength_bounds(self):
        with pytest.raises(InvalidInputError):
            PlantedHeadSet.uniform([(0, 1)], 1.5)

    def test_out_of_geometry_rejected_at_build(self):
        planted = PlantedHeadSet.uniform([(2, 0)], 0.5)
        with pytest.raises(InvalidInputError, match=r"planted head \(2, 0\) outside geometry"):
            build_synthetic_model(ModelGeometry.mha(2, 4), planted, 0)
        with pytest.raises(InvalidInputError, match="planted head"):
            SyntheticModel(ModelGeometry.mha(2, 4), planted, 0)


class TestTraceValidation:
    """A trace checks its steps' shapes only; the loader checks the values it reads."""

    @pytest.mark.parametrize("steps, error, fragment", [
        ((), InvalidInputError, "at least one step"),
        ((np.full((1, 2, 3), 1 / 3), np.full((2, 1, 4), 0.25)), ShapeError,
         r"must share \(layers, heads\)"),
        ((np.full((1, 2, 3), 1 / 3), np.full((1, 2, 3), 1 / 3)), ShapeError,
         "step 1 rows have length 3, expected 4"),
    ], ids=["no-step", "mismatched-heads", "wrong-step-length"])
    def test_structure(self, steps, error, fragment):
        with pytest.raises(error, match=fragment):
            AttentionTrace(steps, 3)

    def test_steps_are_frozen(self):
        ok = np.full((1, 1, 4), 0.25)
        trace = AttentionTrace((ok,), 4)
        with pytest.raises(ValueError):
            trace.steps[0][0, 0, 0] = 1.0

    def test_steps_are_read_only_views_of_the_arrays_given(self):
        given = (np.full((1, 2, 4), 0.25), np.full((1, 2, 5), 0.2))
        trace = AttentionTrace(given, 4)
        for step, array in zip(trace.steps, given, strict=True):
            assert np.shares_memory(step, array)
            assert not step.flags.writeable
            assert array.flags.writeable


class TestDeterminism:
    def test_same_seed_bitwise_identical_corpus(self):
        a = generate_ocr_samples(small_model(seed=5), 3, seed=9)
        b = generate_ocr_samples(small_model(seed=5), 3, seed=9)
        for (sa, ta), (sb, tb) in zip(a, b):
            assert sa == sb
            assert len(ta.steps) == len(tb.steps)
            for ra, rb in zip(ta.steps, tb.steps):
                assert np.array_equal(ra, rb)

    def test_corpus_seed_changes_samples(self):
        a = generate_ocr_samples(small_model(seed=5), 1, seed=0)
        b = generate_ocr_samples(small_model(seed=5), 1, seed=1)
        assert a[0][0] != b[0][0]

    def test_decode_workload_deterministic(self):
        m = small_model(seed=3)
        wa = m.decode_workload(128, 4, 32)
        wb = m.decode_workload(128, 4, 32)
        assert np.array_equal(wa.window_scores, wb.window_scores)
        for ra, rb in zip(wa.steps, wb.steps, strict=True):
            assert np.array_equal(ra, rb)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_model_seed_outside_32_bits_rejected(self, seed):
        with pytest.raises(InvalidInputError, match=f"model seed {seed} outside"):
            small_model(seed=seed)
        with pytest.raises(InvalidInputError, match="model seed"):
            SyntheticModel(ModelGeometry.mha(2, 4), PlantedHeadSet(), seed)
        with pytest.raises(InvalidInputError, match="model seed"):
            replace(small_model(), seed=seed)  # the copy mask_heads makes

    def test_largest_model_seed_accepted(self):
        model = mask_heads(small_model(seed=2**32 - 1), [(1, 2)])
        assert model.seed == 2**32 - 1
        assert len(generate_ocr_samples(model, 1, seed=0)) == 1

    def test_sample_variety(self):
        samples = generate_ocr_samples(small_model(seed=1), 20, seed=0)
        assert len({s.grid for s, _ in samples}) >= 2
        assert len({t.out_len for _, t in samples}) >= 2


class TestPlantedBehavior:
    def test_strength_one_always_hits(self):
        model = small_model(seed=7, strength=1.0)
        for sample, trace in generate_ocr_samples(model, 10, seed=2):
            position_of = {p: i for i, p in enumerate(sample.prompt_layout) if p != TEXT_TOKEN}
            for t, step in enumerate(trace.steps):
                _, bbox = sample.pairs[t]
                patches = match_bbox_to_patches(bbox, sample.image_shape, sample.grid)
                positions = {position_of[p] for p in patches}
                assert int(np.argmax(step[0, 1])) in positions

    def test_strength_zero_indistinguishable_from_background(self):
        model = small_model(seed=11, strength=0.0)
        planted_hits = other_hits = n_tokens = 0
        for sample, trace in generate_ocr_samples(model, 150, seed=4):
            position_of = {p: i for i, p in enumerate(sample.prompt_layout) if p != TEXT_TOKEN}
            for t, step in enumerate(trace.steps):
                _, bbox = sample.pairs[t]
                patches = match_bbox_to_patches(bbox, sample.image_shape, sample.grid)
                positions = {position_of[p] for p in patches}
                n_tokens += 1
                top = np.argmax(step, axis=2)
                for l in range(2):
                    for h in range(4):
                        hit = int(top[l, h]) in positions
                        if (l, h) == (0, 1):
                            planted_hits += int(hit)
                        else:
                            other_hits += int(hit)
        assert n_tokens >= 500
        pooled_rate = other_hits / (n_tokens * 7)
        assert binomtest(planted_hits, n_tokens, max(pooled_rate, 1e-12)).pvalue > 0.01

    def test_strength_one_head_ranks_first_over_corpus(self):
        model = build_synthetic_model(
            ModelGeometry.mha(4, 4), PlantedHeadSet.uniform([(2, 1)], 1.0), seed=13
        )
        scores, _ = chase_corpus(generate_ocr_samples(model, 100, seed=0))
        assert int(np.argmax(scores.scores)) == 2 * 4 + 1


class TestMasking:
    def test_empty_mask_is_identity(self):
        base = generate_ocr_samples(small_model(seed=21), 2, seed=3)
        masked = generate_ocr_samples(mask_heads(small_model(seed=21), []), 2, seed=3)
        for (_, ta), (_, tb) in zip(base, masked):
            for ra, rb in zip(ta.steps, tb.steps):
                assert np.array_equal(ra, rb)

    def test_masking_unrelated_head_leaves_planted_rows_unchanged(self):
        base = generate_ocr_samples(small_model(seed=21), 3, seed=3)
        masked = generate_ocr_samples(
            mask_heads(small_model(seed=21), [(1, 2)]), 3, seed=3
        )
        for (_, ta), (_, tb) in zip(base, masked):
            for ra, rb in zip(ta.steps, tb.steps):
                assert np.array_equal(ra[0, 1], rb[0, 1])
                assert np.allclose(rb[1, 2], 1.0 / ra.shape[2], atol=1e-15)

    def test_masking_all_heads_makes_every_row_uniform(self):
        model = mask_heads(
            small_model(seed=22), [(l, h) for l in range(2) for h in range(4)]
        )
        for _, trace in generate_ocr_samples(model, 2, seed=0):
            for step in trace.steps:
                assert np.allclose(step, 1.0 / step.shape[2], atol=1e-15)

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError, match=r"masked head \(5, 0\) outside geometry"):
            mask_heads(small_model(), [(5, 0)])
        with pytest.raises(InvalidInputError, match="masked head"):
            replace(small_model(), masked=frozenset({(0, 4)}))


@pytest.fixture(params=["drawn", "stored"])
def make_corpus(request, tmp_path):
    """generate_ocr_samples, or the same corpus saved and read back by load_corpus."""
    def make(model, n, seed):
        corpus = generate_ocr_samples(model, n, seed)
        if request.param == "drawn":
            return corpus
        save_corpus(tmp_path / "corpus", corpus)
        return load_corpus(tmp_path / "corpus")
    return make


class TestLazyCorpus:
    def _model(self):
        geometry = ModelGeometry(2, 4, 2)
        model = small_model(seed=61, strength=0.8, planted=((0, 1), (1, 2)), geometry=geometry)
        return mask_heads(model, [(1, 3)])

    def test_any_order_and_every_pass_match_the_eager_list(self, make_corpus):
        model = self._model()
        corpus = make_corpus(model, 5, 4)
        want = eager_corpus(model, 5, 4)
        assert isinstance(corpus, simmodel.OcrCorpus)
        assert len(corpus) == 5
        for i in (3, 0, 4, -1, 1, 2, -5, 3):
            assert_same_sample(corpus[i], want[i])
        for _ in range(2):
            got = list(corpus)
            assert len(got) == 5
            for sample, want_sample in zip(got, want, strict=True):
                assert_same_sample(sample, want_sample)

    def test_saved_lazily_as_an_eager_list_saves(self, tmp_path):
        model = self._model()
        save_corpus(tmp_path / "lazy", generate_ocr_samples(model, 3, seed=2))
        save_corpus(tmp_path / "eager", eager_corpus(model, 3, 2))
        assert corpus_digest(tmp_path / "lazy") == corpus_digest(tmp_path / "eager")

    def test_index_outside_the_corpus_raises(self, make_corpus):
        corpus = make_corpus(small_model(), 2, 0)
        for i in (2, -3):
            with pytest.raises(IndexError):
                corpus[i]
        with pytest.raises(TypeError):
            corpus[0.0]

    def test_frozen(self, make_corpus):
        corpus = make_corpus(small_model(), 2, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            corpus.size = 3


class TestCorpusIO:
    def test_round_trip_bitwise(self, tmp_path):
        samples = generate_ocr_samples(small_model(seed=31), 3, seed=1)
        save_corpus(tmp_path, samples)
        back = load_corpus(tmp_path)
        assert len(back) == 3
        for (sa, ta), (sb, tb) in zip(samples, back):
            assert sa == sb
            for ra, rb in zip(ta.steps, tb.steps):
                assert np.array_equal(ra, rb)

    def test_digest_reproducible(self, tmp_path):
        samples = generate_ocr_samples(small_model(seed=31), 3, seed=1)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        save_corpus(d1, samples)
        save_corpus(d2, samples)
        assert corpus_digest(d1) == corpus_digest(d2)

    @pytest.mark.parametrize("n, seed", [(1, 0), (3, 1), (12, 5)])
    def test_save_returns_the_digest_of_what_it_wrote(self, tmp_path, n, seed):
        """save_corpus hashes the bytes as it writes them; corpus_digest reads them back."""
        digest = save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), n, seed))
        assert digest == corpus_digest(tmp_path)

    def test_digest_sensitive_to_content(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        save_corpus(d1, generate_ocr_samples(small_model(seed=31), 2, seed=1))
        save_corpus(d2, generate_ocr_samples(small_model(seed=31), 2, seed=2))
        assert corpus_digest(d1) != corpus_digest(d2)

    def test_layout_is_a_record_beside_a_flat_payload(self, tmp_path):
        samples = generate_ocr_samples(small_model(seed=31), 2, seed=1)
        save_corpus(tmp_path, samples)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "sample_00000.json", "sample_00000.npy", "sample_00001.json", "sample_00001.npy",
        ]
        sample, trace = samples[1]
        record = json.loads((tmp_path / "sample_00001.json").read_text())
        assert "rows" not in record
        assert (record["layers"], record["query_heads"], record["steps"]) == (2, 4, trace.out_len)
        data = (tmp_path / "sample_00001.npy").read_bytes()
        assert record["sha256"] == hashlib.sha256(data).hexdigest()
        flat = np.load(tmp_path / "sample_00001.npy", allow_pickle=False)
        assert flat.dtype == np.float64 and flat.ndim == 1
        assert np.array_equal(flat, np.concatenate([step.ravel() for step in trace.steps]))

    @settings(max_examples=30, deadline=None)
    @given(
        layers=st.integers(1, 3),
        heads=st.integers(1, 3),
        hand_steps=st.integers(1, 3),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_property(self, layers, heads, hand_steps, n, seed):
        model = build_synthetic_model(
            ModelGeometry.mha(layers, heads), PlantedHeadSet.uniform([(0, 0)], 0.7), seed
        )
        samples = list(generate_ocr_samples(model, n, seed))
        # generated prompts open with text; a hand-built one opens with an image token
        layout = (1, TEXT_TOKEN, 0)
        rng = np.random.default_rng(seed)
        hand = OcrSample(
            (32, 64), (1, 2), ((7, (2.0, 3.0, 60.0, 30.0)),) * hand_steps, layout
        )
        rows = tuple(rng.dirichlet(np.ones(3 + t), size=(layers, heads)) for t in range(hand_steps))
        samples.append((hand, AttentionTrace(rows, len(layout))))
        with tempfile.TemporaryDirectory() as directory:
            save_corpus(directory, samples)
            back = list(load_corpus(directory))
        assert len(back) == n + 1
        for (sa, ta), (sb, tb) in zip(samples, back):
            assert sa == sb
            assert tb.prompt_len == ta.prompt_len and tb.out_len == ta.out_len
            for ra, rb in zip(ta.steps, tb.steps):
                assert ra.shape == rb.shape
                assert ra.tobytes() == rb.tobytes()

    def test_directory_with_samples_is_refused(self, tmp_path):
        save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), 3, seed=1))
        before = corpus_digest(tmp_path)
        with pytest.raises(InvalidInputError, match="already holds a corpus"):
            save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), 2, seed=2))
        assert corpus_digest(tmp_path) == before
        assert len(list(tmp_path.iterdir())) == 6

    def _flip_second_payload_byte(self, directory):
        payload = directory / "sample_00001.npy"
        data = bytearray(payload.read_bytes())
        data[-3] ^= 0x01
        payload.write_bytes(bytes(data))

    def test_flipped_payload_byte_changes_digest_and_fails_load(self, tmp_path):
        save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), 2, seed=1))
        before = corpus_digest(tmp_path)
        self._flip_second_payload_byte(tmp_path)
        assert corpus_digest(tmp_path) != before
        with pytest.raises(InvalidInputError, match="sha256"):
            list(load_corpus(tmp_path))

    def test_flipped_payload_byte_fails_only_its_sample(self, tmp_path):
        save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), 2, seed=1))
        self._flip_second_payload_byte(tmp_path)
        corpus = load_corpus(tmp_path)
        corpus[0]
        with pytest.raises(InvalidInputError, match="sha256"):
            corpus[1]

    def test_payload_without_its_record_is_refused(self, tmp_path):
        """A corpus cut short between a payload and its record does not read as a smaller one."""
        save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), 3, seed=1))
        (tmp_path / "sample_00002.json").unlink()
        orphan = tmp_path / "sample_00002.npy"
        with pytest.raises(InvalidInputError, match=f"{re.escape(str(orphan))} has no record"):
            load_corpus(tmp_path)

    def test_chasing_a_stored_corpus_holds_one_trace_at_a_time(self, tmp_path):
        save_corpus(tmp_path, generate_ocr_samples(small_model(seed=31), 20, seed=1))
        largest = max(p.stat().st_size for p in tmp_path.glob("*.npy"))
        tracemalloc.start()
        try:
            chase_corpus(load_corpus(tmp_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # streaming peaks near 3.7x (the last trace, the next payload and its
        # frozen copy); the 20 traces of an eager list reach about 13.6x
        assert peak < 6 * largest


class TestDecodeWorkload:
    def test_geometry_and_probability_structure(self):
        model = small_model(seed=41)
        wl = model.decode_workload(160, 3, 32)
        window_attention, _ = oracle_decode_workload(model, 160, 3, 32)
        assert window_attention.shape == (2, 4, 32, 160)
        assert wl.window_scores.shape == (2, 4, 160 - 32)
        # window row i may only see positions <= 160 - 32 + i
        for i in range(32):
            assert np.allclose(window_attention[:, :, i, 160 - 32 + i + 1 :], 0.0)
            assert np.allclose(window_attention[:, :, i].sum(axis=-1), 1.0, atol=1e-9)
        for t, rows in enumerate(wl.steps):
            assert rows.shape == (2, 4, 160 + t)
            assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-9)

    def test_regions_live_inside_prompt(self):
        wl = small_model(seed=42).decode_workload(200, 5, 32)
        assert wl.union_positions.min() >= 0
        assert wl.union_positions.max() < 200
        for region in wl.token_regions:
            assert set(region.tolist()) <= set(wl.union_positions.tolist())

    @pytest.mark.parametrize(
        "query_heads, kv_heads, masked, prompt_len, window",
        [
            (4, 4, (), 160, 32),  # MHA
            (4, 2, (), 160, 32),  # GQA 4 -> 2
            (4, 1, (), 160, 32),  # GQA 4 -> 1
            (4, 2, ((0, 1), (1, 3)), 160, 32),  # a masked planted head and another
            (4, 2, (), 32, 32),  # Lp = w: no key left of the window
            (4, 1, (), 33, 32),  # one scored key, one kv head
            (4, 2, (), 40, 32),  # a 3x4 image grid
            (4, 4, (), 6, 4),  # two sink tokens and no image grid
        ],
    )
    def test_matches_materializing_oracle(self, query_heads, kv_heads, masked, prompt_len, window):
        geo = ModelGeometry(2, query_heads, kv_heads)
        model = mask_heads(
            small_model(seed=43, strength=0.8, planted=((0, 1), (1, 2)), geometry=geo), masked
        )
        wl = model.decode_workload(prompt_len, 3, window)
        window_attention, decode_rows = oracle_decode_workload(model, prompt_len, 3, window)
        want = rank_window_keys(window_attention, kv_heads, window).scores
        assert wl.window_scores.shape == (2, kv_heads, prompt_len - window)
        assert np.array_equal(wl.window_scores, want)
        for got, rows in zip(wl.steps, decode_rows, strict=True):
            assert np.array_equal(got, rows)

    def test_holds_no_window_by_prompt_array(self):
        lp, w = 160, 32
        wl = small_model(seed=44).decode_workload(lp, 3, w)
        shapes = []
        for value in vars(wl).values():
            items = value if isinstance(value, tuple) else (value,)
            shapes += [v.shape for v in items if isinstance(v, np.ndarray)]
        assert (2, 4, lp - w) in shapes
        for shape in shapes:
            assert (w, lp) not in zip(shape, shape[1:]), shape

    @pytest.mark.parametrize("kv_heads, prompt_len, window", [(2, 160, 32), (4, 6, 4), (1, 32, 32)])
    def test_steps_are_the_same_bytes_on_every_pass(self, kv_heads, prompt_len, window):
        geo = ModelGeometry(2, 4, kv_heads)
        model = mask_heads(
            small_model(seed=45, strength=0.8, planted=((0, 1), (1, 2)), geometry=geo), [(1, 3)]
        )
        wl = model.decode_workload(prompt_len, 4, window)
        _, want = oracle_decode_workload(model, prompt_len, 4, window)
        want = [rows.tobytes() for rows in want]
        assert len(want) == wl.out_len == 4
        assert [rows.tobytes() for rows in wl.steps] == want
        assert [rows.tobytes() for rows in wl.steps] == want
        # two passes at once do not share a generator
        for a, b, rows in zip(wl.steps, wl.steps, want, strict=True):
            assert a.tobytes() == b.tobytes() == rows

    def test_passes_leave_the_held_generator_unmoved(self):
        wl = small_model(seed=47).decode_workload(64, 3, 8)
        before = wl.steps.rng.bit_generator.state
        first = [rows.tobytes() for rows in wl.steps]
        assert wl.steps.rng.bit_generator.state == before
        assert [rows.tobytes() for rows in wl.steps] == first

    def test_holds_no_more_than_its_scores_and_regions(self):
        """The decode steps are drawn when read, never stored with the workload."""
        wl = small_model(seed=46).decode_workload(160, 16, 32)
        allowed = wl.window_scores.nbytes + wl.union_positions.nbytes
        allowed += sum(region.nbytes for region in wl.token_regions)
        assert sum(held_arrays(wl).values()) <= allowed
        # one stored step alone would break the bound
        assert next(iter(wl.steps)).nbytes > allowed

    def test_prompt_shorter_than_window_rejected(self):
        with pytest.raises(InvalidInputError):
            small_model().decode_workload(16, 2, 32)
        with pytest.raises(InvalidInputError):
            small_model().decode_workload(64, 0, 32)


class TestNormalizeBlocks:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_in_place_matches_gathering_oracle(self, data):
        layers = data.draw(st.integers(1, 3))
        heads = data.draw(st.integers(1, 4))
        visible = data.draw(st.integers(1, 300))
        # a partition of [0, visible) into contiguous ranges, some of them empty,
        # listed in an arbitrary role order
        n_cuts = data.draw(st.integers(0, 4))
        cuts = data.draw(st.lists(st.integers(0, visible), min_size=n_cuts, max_size=n_cuts))
        cuts.sort()
        bounds = [0, *cuts, visible]
        ranges = list(zip(bounds, bounds[1:]))
        order = data.draw(st.permutations(range(len(ranges))))
        masses = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=len(ranges), max_size=len(ranges))
        )
        seed = data.draw(st.integers(0, 2**16))
        draw = np.random.default_rng(seed).exponential(size=(layers, heads, visible))
        roles = [(*ranges[k], masses[k]) for k in order]
        want = oracle_normalize_blocks(
            draw.copy(), [(np.arange(start, stop), m) for start, stop, m in roles]
        )
        # a scratch buffer longer than the block, holding stale values
        simmodel._normalize_blocks(
            [draw.reshape(-1, visible)], roles, np.full(draw.size + 5, np.nan)
        )
        assert np.array_equal(draw, want)

    def test_a_draw_without_a_2d_view_is_refused(self):
        """Rows filled through a copy would leave `draw` as it was: `_fill` refuses them."""
        roles = [(0, 4, 0.3), (4, 10, 0.7)]
        base = np.zeros((3, 2, 10))
        draw = base.swapaxes(0, 1)  # (2, 3, 10): its rows have no common stride
        with pytest.raises(ValueError):
            simmodel._fill(np.random.default_rng(5), draw, 0)
        assert not base.any()
        # every other row of a block is a 2-D block: normalized in place there
        rows = np.random.default_rng(6).exponential(size=(6, 10))
        want = oracle_normalize_blocks(
            rows[::2].copy(), [(np.arange(start, stop), m) for start, stop, m in roles]
        )
        simmodel._normalize_blocks([rows[::2]], roles, np.empty(30))
        assert np.array_equal(rows[::2], want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_blocks_side_by_side_keep_each_blocks_bits(self, data):
        """Blocks normalized together, the shorter ones padded with zeros, equal each alone."""
        n_pre = data.draw(st.integers(0, 6))
        text_off = data.draw(st.integers(n_pre, 40))
        widths = sorted(data.draw(
            st.lists(st.integers(text_off + 1, text_off + 60), min_size=1, max_size=5)
        ))
        rows = data.draw(st.lists(st.integers(2, 9), min_size=len(widths), max_size=len(widths)))
        masses = data.draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        blocks = [rng.exponential(size=(r, v)) for r, v in zip(rows, widths)]
        want = [
            oracle_normalize_blocks(block.copy(), [
                (np.arange(text_off, block.shape[1]), masses[0]),
                (np.arange(n_pre), masses[1]),
                (np.arange(n_pre, text_off), masses[2]),
            ])
            for block in blocks
        ]
        roles = [(text_off, widths[-1], masses[0]), (0, n_pre, masses[1]),
                 (n_pre, text_off, masses[2])]
        simmodel._normalize_blocks(blocks, roles, np.full(widths[-1] * sum(rows) + 3, np.nan))
        for got, block_want in zip(blocks, want, strict=True):
            assert np.array_equal(got, block_want)

    @settings(max_examples=200, deadline=None)
    @given(groups=st.integers(1, 200), group=st.integers(1, 5),
           visible=st.integers(0, 3 * simmodel.TILE_VALUES))
    def test_row_tiles_partition_the_rows(self, groups, group, visible):
        rows = groups * group
        tiles = list(simmodel._row_tiles(rows, visible, group))
        assert [start for start, _ in tiles] == [0, *(stop for _, stop in tiles[:-1])]
        assert tiles[-1][1] == rows
        sizes = [stop - start for start, stop in tiles]
        # whole kv groups; one row alone only when the block is one row
        assert all(size % group == 0 for size in sizes)
        assert min(sizes) >= 2 or rows == 1
        # a tile holds at most TILE_VALUES values and a row, three rows, or one group
        bound = max(simmodel.TILE_VALUES + visible, 3 * visible, group * visible)
        assert max(sizes) * visible <= bound

    @pytest.mark.parametrize(
        "shape, n_pre, text_off",
        [
            ((1, 33, 2048), 4, 2024),  # 32-row tiles; a one-row remainder joins the last
            ((5, 13, 2048), 4, 2024),  # 32 + 33 rows
            ((2, 40, 2048), 4, 2024),  # 32 + 32 + 16 rows
            ((3, 11, 6000), 0, 5990),  # 10-row tiles, a three-row remainder; no sinks
            ((1, 5, 40000), 4, 39990),  # visible above half a tile: 2 + 3 rows
            ((1, 4, 40000), 2, 40010),  # 2 + 2 rows; text_off beyond the row
            ((1, 1, 70000), 4, 69990),  # one row longer than a tile
            ((1, 1, 7), 2, 5),
        ],
    )
    def test_draw_block_in_row_tiles_matches_whole_block_oracle(self, shape, n_pre, text_off):
        """The drawing loop draws and sums a large step tile by tile; its bits are the whole
        block's."""
        visible = shape[2]
        bg = simmodel.DECODE_BG
        draw = np.random.default_rng(visible).exponential(size=shape)
        want = oracle_normalize_blocks(draw, [
            (np.arange(text_off, visible), bg[0]),
            (np.arange(n_pre), bg[1]),
            (np.arange(n_pre, min(text_off, visible)), bg[2]),
        ])
        model = small_model(planted=(), geometry=ModelGeometry.mha(*shape[:2]))
        got = np.full(shape, np.nan)
        plan = simmodel._plan(model.geometry, visible, 1, text_off)
        pieces = model._draw(np.random.default_rng(visible), plan, visible, n_pre, text_off, bg,
                             lambda rng, t: "edit", lambda t, a, b: got.reshape(-1, visible)[a:b])
        # one piece per row tile; the step's edit comes with its last
        edits = [edit for _, edit in pieces]
        assert edits == [None] * (len(edits) - 1) + ["edit"]
        assert len(edits) == len(list(simmodel._row_tiles(shape[0] * shape[1], visible)))
        assert np.array_equal(got, want)


class TestBatchedSteps:
    """Small steps drawn a batch at a time are the steps drawn one at a time, bit for bit."""

    @pytest.mark.parametrize(
        "tile", [1, 2500, 1 << 24], ids=["one-step-batches", "cut-mid-trace", "whole-traces"]
    )
    @pytest.mark.parametrize(
        "geometry, planted, masked",
        [
            # GQA, a masked planted head and a masked head beside a planted one
            (ModelGeometry(2, 4, 2), ((0, 1), (1, 2)), ((0, 1), (1, 3))),
            (ModelGeometry.mha(2, 4), ((0, 1),), ((1, 0),)),
            # one row: its steps are summed pairwise, so never side by side
            (ModelGeometry(1, 1, 1), ((0, 0),), ()),
        ],
        ids=["gqa-masked", "mha", "one-row"],
    )
    def test_corpus_steps_equal_the_per_step_draw(self, monkeypatch, tile, geometry, planted,
                                                  masked):
        """Corpus steps, window rows and decode steps, however `_plan` cuts them, are their
        per-step draws: corpus and decode steps `oracle_trace`'s, window scores, with and
        without masked sets, `rows_buffer_window`'s."""
        monkeypatch.setattr(simmodel, "TILE_VALUES", tile)
        model = mask_heads(
            small_model(seed=80, strength=0.9, planted=planted, geometry=geometry), masked
        )
        rows = geometry.layers * geometry.query_heads
        batches = []
        for _, trace in generate_ocr_samples(model, 6, seed=9):
            steps = trace.steps
            want = oracle_trace(steps)
            assert [step.tobytes() for step in steps] == [step.tobytes() for step in want]
            batches.append(simmodel._step_batches(rows, steps.prompt_len, len(steps),
                                                  steps.text_off))
        # each tile size draws the batches it is meant to
        sizes = [stop - first for trace in batches for first, stop in trace]
        if tile == 1 or rows == 1:
            assert set(sizes) == {1}
        elif tile == 1 << 24:
            assert all(len(trace) == 1 for trace in batches) and min(sizes) > 1
        else:
            assert max(sizes) > 1 and max(len(trace) for trace in batches) > 1

        # a workload's window rows and decode steps; its first window rows see no text
        prompt_len, out_len, window = 64, 5, 20
        masks = [[(0, 0)], [planted[-1]]]
        normalize, drawn = simmodel._normalize_blocks, []

        def counted(blocks, *args):
            drawn.append(len(blocks))
            return normalize(blocks, *args)

        monkeypatch.setattr(simmodel, "_normalize_blocks", counted)
        workload = model.decode_workload(prompt_len, out_len, window, masks)
        # window rows are normalized side by side wherever steps may be
        assert max(drawn) > 1 if tile > 1 and rows > 1 else set(drawn) == {1}
        window_scores, cell_scores = rows_buffer_window(model, prompt_len, out_len, window, masks)
        assert workload.window_scores.tobytes() == window_scores.tobytes()
        for cell, want in zip(masked_sets(workload.masked), cell_scores, strict=True):
            assert cell.scores.tobytes() == want.tobytes()
        want = [step.tobytes() for step in oracle_trace(workload.steps)]
        assert [step.tobytes() for step in workload.steps] == want
        shapes = [(geometry.layers, geometry.query_heads, prompt_len + t) for t in range(out_len)]
        got = [assembled(ranges, shape)[0].tobytes()
               for ranges, shape in zip(workload.steps.ranges(), shapes, strict=True)]
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 300), lp=st.integers(0, 3000), n=st.integers(1, 20),
           text_off=st.integers(0, 3000))
    def test_step_batches_partition_the_steps(self, rows, lp, n, text_off):
        batches = simmodel._step_batches(rows, lp, n, text_off)
        assert [first for first, _ in batches] == [0, *(stop for _, stop in batches[:-1])]
        assert batches[-1][1] == n
        for (first, stop), after in zip(batches, [*batches[1:], None]):
            # a batch's table, its last step's positions by its rows, fits a tile
            table = (stop - first) * (lp + stop - 1) * rows
            if stop - first > 1:
                assert rows > 1 and lp + first > text_off
                assert table <= simmodel.TILE_VALUES
            # and it takes every next step that fits
            if after and rows > 1 and lp + first > text_off:
                assert (stop + 1 - first) * (lp + stop) * rows > simmodel.TILE_VALUES

    def test_a_drawn_small_trace_holds_one_batch(self):
        """Reading a trace of small steps peaks at one batch and its scratch, not the trace.

        At 8x16 a step is 10K to 25K values, so a batch holds two to six
        steps and both traces read here span three batches and more than two
        tiles. A batch of steps holds at most TILE_VALUES values, and so does
        its table in the scratch; the rest is numpy's ufunc buffer (8192
        values) and the role totals. Holding the trace whole, or two batches,
        breaks the bound. A small workload's decode steps, read by `ranges`,
        are batched the same way: 8 steps of 150 to 157 positions, three to a
        batch, placed in one buffer that holds one batch.
        """
        model = small_model(seed=51, strength=0.8, geometry=ModelGeometry.mha(8, 16),
                            planted=((0, 1), (3, 4)))
        corpus = generate_ocr_samples(model, 3, 4)
        tile = simmodel.TILE_VALUES * 8
        workload = model.decode_workload(150, 8, 8)

        def read_whole(steps):
            for step in steps:
                del step

        def read_ranges(steps):
            for ranges in steps.ranges():
                deque(ranges, maxlen=0)

        for steps, read in [(corpus[1][1].steps, read_whole), (corpus[2][1].steps, read_whole),
                            (workload.steps, read_ranges)]:
            assert len(simmodel._step_batches(128, steps.prompt_len, len(steps),
                                              steps.text_off)) == 3
            assert sum(step.nbytes for step in steps) > 2 * tile
            tracemalloc.start()
            try:
                read(steps)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * tile + tile / 4


def assembled(ranges, shape):
    """One step's whole (layers, query_heads, visible) rows from its kv-group ranges.

    Every group must come exactly once; returns the step and the groups of
    each range, in the order the ranges came.
    """
    layers, heads, visible = shape
    out = np.full((layers * heads, visible), np.nan)
    groups = []
    for start, rows in ranges:
        k, group, n = rows.shape
        assert n == visible
        out.reshape(-1, group, visible)[start : start + k] = rows
        groups.append(set(range(start, start + k)))
    assert sorted(q for part in groups for q in part) == list(range(layers * heads // group))
    return out.reshape(shape), groups


class TestStreamedRanges:
    """A workload's streamed kv-group ranges are its whole steps, bit for bit."""

    @pytest.mark.parametrize(
        "geometry, planted, masked, prompt_len, window, whole",
        [
            # 16 groups of 4 rows, 4 groups to a tile: planted heads in every
            # tile, masked heads in three, one of them planted, and planted
            # groups side by side (4 and 5, 11 and 12)
            (ModelGeometry(4, 16, 4), ((0, 1), (1, 2), (1, 5), (2, 13), (3, 0)),
             ((1, 5), (0, 9), (3, 15)), 4096, 8, False),
            # groups of 3 rows: 30-row tiles, where row tiles would take 32
            (ModelGeometry(3, 15, 5), ((0, 4), (2, 14)), ((1, 0),), 2048, 6, False),
            # MHA at 40000 positions: a two-row tile and a three-row last tile
            (ModelGeometry(1, 5, 5), ((0, 1), (0, 3)), ((0, 4),), 40000, 3, False),
            # a step that fits the tile buffer goes out whole, as one range
            (ModelGeometry(2, 8, 4), ((0, 1), (1, 6)), ((1, 7), (0, 2)), 160, 32, True),
            # a one-row block
            (ModelGeometry(1, 1, 1), ((0, 0),), (), 64, 8, True),
        ],
        ids=["planted-in-several-tiles", "group-of-3", "mha", "step-fits-one-tile", "one-row"],
    )
    def test_ranges_are_the_whole_steps(self, geometry, planted, masked, prompt_len, window,
                                        whole):
        model = mask_heads(small_model(seed=70, strength=0.9, planted=planted, geometry=geometry),
                           masked)
        masks = [[(0, 0)], [planted[-1]]]
        workload = model.decode_workload(prompt_len, 3, window, masks)
        g = geometry.group_size
        held = {l * geometry.kv_heads + h // g for l, h in planted}
        steps = list(workload.steps)
        for t, ranges in enumerate(workload.steps.ranges()):
            shape = (geometry.layers, geometry.query_heads, prompt_len + t)
            got, groups = assembled(ranges, shape)
            assert got.tobytes() == steps[t].tobytes()
            # the groups that hold a planted head come last, in ranges of their own
            last = [bool(part & held) for part in groups]
            assert (len(groups) == 1) == whole
            if not whole:
                assert last == sorted(last)
                assert all(part <= held for part in groups if part & held)
        assert t == 2
        window_scores, cell_scores = rows_buffer_window(model, prompt_len, 3, window, masks)
        assert workload.window_scores.tobytes() == window_scores.tobytes()
        for cell, want in zip(masked_sets(workload.masked), cell_scores, strict=True):
            assert cell.scores.tobytes() == want.tobytes()

    def test_a_reader_that_stops_early_moves_no_later_step(self):
        model = small_model(seed=71, strength=0.9, planted=((0, 1), (1, 2)),
                            geometry=ModelGeometry(2, 8, 2))
        workload = model.decode_workload(2048, 3, 4)
        want = [rows.tobytes() for rows in workload.steps]
        got = []
        for t, ranges in enumerate(workload.steps.ranges()):
            if t == 1:
                next(ranges)  # read one range of step 1 only
                continue
            got.append(assembled(ranges, (2, 8, 2048 + t))[0].tobytes())
        assert got == [want[0], want[2]]

    def test_drawn_trace_gives_the_same_bits_on_every_pass_and_in_any_order(self):
        geometry = ModelGeometry(2, 4, 2)
        model = mask_heads(
            small_model(seed=72, strength=0.8, planted=((0, 1), (1, 2)), geometry=geometry),
            [(1, 3)],
        )
        traces = [trace for _, trace in generate_ocr_samples(model, 3, seed=5)]
        assert all(isinstance(trace.steps, simmodel.DecodeSteps) for trace in traces)
        # a drawn trace holds its layout, not its steps
        for trace in traces:
            assert sum(held_arrays(trace).values()) < 4096
        want = [[step.tobytes() for step in trace.steps] for trace in traces]
        for i in (2, 0, 1, 1, 0):
            assert [step.tobytes() for step in traces[i].steps] == want[i]
        # two traces, and two passes over one, read in lockstep
        for a, b, c in zip(traces[0].steps, traces[2].steps, traces[0].steps):
            assert a.tobytes() == c.tobytes()
        assert [step.tobytes() for step in traces[2].steps] == want[2]
        # and the bits are the ones the trace's drawn sample saves
        for i, (_, trace) in enumerate(eager_corpus(model, 3, 5)):
            assert [step.tobytes() for step in trace.steps] == want[i]


def one_at_a_time(steps):
    """Yield a fresh copy of each of `steps`, checking that the last is dead first.

    Through a weakref, each copy must be gone before the next is made, so a
    consumer that holds step t while step t + 1 is built fails.
    """
    ref = None
    for drawn in steps:
        assert ref is None or ref() is None, "a decode step outlived the read of the next"
        rows = drawn.copy()
        del drawn
        ref = weakref.ref(rows)
        yield rows
        del rows


class TestOneStepAlive:
    """Decoding holds one step's rows: step t is freed before step t + 1 is drawn."""

    def test_a_read_step_is_freed_before_the_next_is_drawn(self):
        """Drawing step 1 peaks at one step and a tile, not at two steps."""
        geo = ModelGeometry(4, 16, 4)
        lp = 4096
        workload = small_model(seed=48, geometry=geo).decode_workload(lp, 3, 8)
        block = geo.layers * geo.query_heads * lp * 8
        tracemalloc.start()
        try:
            it = iter(workload.steps)
            ref = weakref.ref(next(it))
            tracemalloc.reset_peak()
            assert next(it).shape == (4, 16, lp + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ref() is None
        # the new step and the tile scratch (0.26 blocks); step 0 still held
        # while step 1 is allocated would add a block
        assert peak < 1.6 * block

    @pytest.mark.parametrize("masks", [(), [[(0, 1)], [(1, 0), (1, 3)]]])
    def test_replay_drops_each_step_before_the_next(self, masks):
        geo = ModelGeometry(2, 4, 2)
        model = small_model(seed=49, strength=0.8, planted=((0, 1), (1, 2)), geometry=geo)
        workload = model.decode_workload(64, 4, 8, masks)
        plans = [allocate_uniform(AllocationConfig(2 * 2 * 24, window=8), 2, 2)] * (
            1 + len(workload.masked.heads)
        )
        replay = replay_masked if masks else replay_plans
        checked = replace(workload, steps=one_at_a_time(workload.steps))
        for got, want in zip(replay(geo, checked, plans), replay(geo, workload, plans),
                             strict=True):
            assert np.array_equal(got.recall_per_step, want.recall_per_step)
            assert np.array_equal(got.head_mean_recall, want.head_mean_recall)

    def test_stage_peaks_in_step_blocks(self):
        """Window pass and replay where a step spans several tiles: no stage holds a step.

        A step block is one (layers, query_heads, Lp) float64 array, 2 MiB
        here, and a tile a quarter of it: 4 of the 16 kv groups. A streamed
        step is drawn in one tile and its normalizing copy, with the two
        planted groups held aside (`stream`, about 0.66 blocks). The window
        pass holds that stream and the scores (a quarter block); the replay
        holds it, the key order (scores-sized), one ranked chunk and its
        table. Each bound is those arrays and half a block for the layout,
        the per-range sums and the negated scores. The window pass reads
        about 1.1 blocks and the replay 1.4, at 1 plan and at 15. A
        block-sized rows buffer in the window pass, or a whole step held in
        the replay, adds a block and breaks its bound.
        """
        geo = ModelGeometry(4, 16, 4)
        lp, w = 4096, 8
        model = small_model(seed=50, strength=0.8, planted=((0, 1), (3, 5)), geometry=geo)
        block = geo.layers * geo.query_heads * lp * 8
        rows = geo.layers * geo.query_heads
        tile = max(b - a for a, b in simmodel._row_tiles(rows, lp, geo.group_size)) * lp * 8
        assert 4 * tile < 1.1 * block  # several tiles to a step
        stream = 2 * tile + 2 * geo.group_size * lp * 8
        chunk = cache.RANK_CHUNK_VALUES * 8
        tracemalloc.start()
        try:
            workload = model.decode_workload(lp, 3, w)
            _, window_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scores = workload.window_scores.nbytes
        assert window_peak < scores + stream + 0.5 * block
        for n_plans in (1, 15):
            # per-head budgets from the window to past the prompt
            plans = [
                allocate_uniform(AllocationConfig(4 * 4 * int(b), window=w), 4, 4)
                for b in np.linspace(w, lp + 100, n_plans)
            ]
            tracemalloc.start()
            try:
                replay_plans(geo, workload, plans)
                _, replay_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert replay_peak < scores + 2 * chunk + stream + 0.5 * block, n_plans

    def test_chasing_a_drawn_corpus_holds_one_step(self):
        """`chase_corpus` over drawn samples at 32x32 holds one corpus step, not a trace.

        A drawn trace draws each step as the chase reads it: the step, the
        tile scratch that draws it and the scoring temporaries, about 1.7 of
        the largest step. A trace held whole is 5 to 9 steps here.
        """
        model = small_model(seed=5, strength=0.8, geometry=ModelGeometry(32, 32, 8),
                            planted=[(l, 3 * l % 32) for l in range(32)])
        corpus = generate_ocr_samples(model, 4, 2)
        largest = max(sample.prompt_len + trace.out_len - 1 for sample, trace in corpus)
        step = 32 * 32 * largest * 8
        chase_corpus(generate_ocr_samples(model, 1, 3))  # first-call allocations
        tracemalloc.start()
        try:
            chase_corpus(corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(trace.out_len for _, trace in corpus) >= 5
        assert peak < step + simmodel.TILE_VALUES * 8 + 0.5 * step


class TestDecodeWithCache:
    """Recall and slot accounting of `replay_plans` on model decode workloads."""

    def _replay(self, model, lp, out, w, per_head):
        layers, heads = model.geometry.layers, model.geometry.kv_heads
        plan = allocate_uniform(AllocationConfig(layers * heads * per_head, window=w), layers, heads)
        workload = model.decode_workload(lp, out, w)
        (record,) = replay_plans(model.geometry, workload, [plan])
        return record

    def test_full_cache_recall_exactly_one(self):
        record = self._replay(small_model(seed=51), 128, 5, 32, per_head=128)
        assert (record.recall_per_step == 1.0).all()
        assert record.peak_slots == 2 * 4 * (128 + 5)

    def test_all_uniform_model_matches_analytic_recall(self):
        model = mask_heads(
            small_model(seed=52), [(l, h) for l in range(2) for h in range(4)]
        )
        lp, out, w = 128, 6, 32
        record = self._replay(model, lp, out, w, per_head=w)
        want = (w + np.arange(out)) / (lp + np.arange(out))
        assert np.abs(record.recall_per_step - want).max() <= 1e-12

    def test_compressed_slot_accounting(self):
        lp, out, w, b = 128, 4, 32, 48
        record = self._replay(small_model(seed=53), lp, out, w, per_head=b)
        assert record.slots_per_step.tolist() == [2 * 4 * (b + t) for t in range(out)]
        assert record.peak_slots == 2 * 4 * (b + out)
        assert record.total_touches == sum(2 * 4 * (b + t) for t in range(out))

    def test_decode_record_aggregates(self):
        record = self._replay(small_model(seed=55), 96, 3, 32, per_head=96)
        assert record.mean_recall == pytest.approx(1.0)
        assert record.head_mean_recall.shape == (2, 4)
        assert np.allclose(record.head_mean_recall, 1.0)


class TestReplayPlans:
    """replay_plans against the slot-by-slot oracle, `replay_oracle.replay_plan`.

    Integer fields must match exactly. Recalls may differ only by summation
    order: a float64 sum of at most Lp terms, each at most 1, stays far below
    the 1e-12 tolerance.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        layers=st.integers(1, 2),
        query_heads=st.sampled_from([2, 4]),
        kv_kind=st.sampled_from(["one", "two", "mha"]),
        window=st.integers(1, 8),
        extra=st.integers(2, 40),
        out_len=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_matches_replay_oracle(
        self, layers, query_heads, kv_kind, window, extra, out_len, seed
    ):
        kv_heads = {"one": 1, "two": 2, "mha": query_heads}[kv_kind]
        geo = ModelGeometry(layers, query_heads, kv_heads)
        model = small_model(seed=seed, strength=0.8, planted=((0, 1),), geometry=geo)
        lp = window + extra
        workload = model.decode_workload(lp, out_len, window)
        n_kv = layers * kv_heads
        scores = HeadScoreMatrix(np.random.default_rng(seed).random((layers, kv_heads)))
        # per-head budgets at b = w, w < b < Lp, b = Lp and b > Lp
        levels = (window, (window + lp) // 2, lp, lp + 3)
        plans = [
            allocate(policy, AllocationConfig(b * n_kv, window), layers, kv_heads, scores, seed)
            for policy in POLICY_NAMES
            for b in levels
        ]
        mixed = np.resize(np.array(levels), n_kv).reshape(layers, kv_heads)
        plans.append(BudgetPlan(mixed, int(mixed.sum()), window=window))

        # a key is ranked where replay_plans orders it: the stable tie rule
        order = np.argsort(-workload.window_scores, axis=-1, kind="stable")
        for plan, fast in zip(plans, replay_plans(geo, workload, plans), strict=True):
            # compress_prefill keeps the window plus the first table-index
            # keys of that order, min(b, Lp) - w per kv head
            kept, _ = compress_prefill(workload.window_scores, plan, window, lp)
            assert kept[:, :, lp - window :].all()
            index = np.minimum(plan.budgets, lp) - window
            ranked = np.take_along_axis(kept[:, :, : lp - window], order, axis=2)
            assert np.array_equal(ranked, np.arange(lp - window) < index[:, :, None])
            slow = replay_plan(geo, workload, plan)
            assert np.array_equal(fast.slots_per_step, slow.slots_per_step)
            assert np.array_equal(fast.touches_per_step, slow.touches_per_step)
            assert fast.peak_slots == slow.peak_slots
            assert fast.total_touches == slow.total_touches
            assert np.abs(fast.recall_per_step - slow.recall_per_step).max() <= 1e-12
            assert np.abs(fast.head_mean_recall - slow.head_mean_recall).max() <= 1e-12
            assert abs(fast.mean_recall - slow.mean_recall) <= 1e-12
            full = plan.budgets >= lp
            if full.all():
                assert (fast.recall_per_step == 1.0).all()

    @pytest.mark.parametrize(
        "masks", [(), [[(0, 1)], [(1, 2), (1, 3)], [(0, 0), (0, 2), (1, 0), (1, 2)]]]
    )
    def test_ranking_in_chunks_moves_no_bit(self, monkeypatch, masks):
        """Chunks of one kv group, and of three of four groups, give the records of one chunk.

        The masked sets touch group 0, group 3, and all four groups, so with
        chunks of three the last set also ends in a partial chunk.
        """
        geo = ModelGeometry(2, 4, 2)
        model = small_model(seed=54, strength=0.8, planted=((0, 1), (1, 2)), geometry=geo)
        lp, w = 96, 8
        workload = model.decode_workload(lp, 3, w, masks)
        plans = [allocate_uniform(AllocationConfig(2 * 2 * 40, window=w), 2, 2)] * (1 + len(masks))
        replay = replay_masked if masks else replay_plans
        group_values = geo.group_size * (lp - w)
        assert cache.RANK_CHUNK_VALUES >= 4 * group_values  # all four groups in one chunk
        whole = replay(geo, workload, plans)
        for chunk in (1, 3):
            monkeypatch.setattr(cache, "RANK_CHUNK_VALUES", chunk * group_values)
            for got, want in zip(replay(geo, workload, plans), whole, strict=True):
                assert np.array_equal(got.recall_per_step, want.recall_per_step)
                assert np.array_equal(got.head_mean_recall, want.head_mean_recall)

    def test_tied_scores_follow_the_shared_tie_rule(self):
        # coarse scores tie often, so only the tie rule decides which keys a
        # plan keeps; both paths must keep the same ones
        lp, w, out_len = 72, 8, 2
        geo = ModelGeometry(1, 2, 1)
        rng = np.random.default_rng(57)
        empty = np.empty(0, dtype=np.int64)
        workload = DecodeWorkload(
            lp,
            out_len,
            w,
            empty,
            (empty,) * out_len,
            rng.integers(0, 3, size=(1, 1, lp - w)).astype(float),
            tuple(rng.dirichlet(np.ones(lp + t), size=(1, 2)) for t in range(out_len)),
        )
        plans = [BudgetPlan(np.array([[b]]), b, window=w) for b in (w + 5, w + 20, w + 41)]
        for plan, fast in zip(plans, replay_plans(geo, workload, plans), strict=True):
            slow = replay_plan(geo, workload, plan)
            assert np.abs(fast.recall_per_step - slow.recall_per_step).max() <= 1e-12

    def _setup(self):
        model = small_model(seed=56)
        return model.geometry, model.decode_workload(64, 2, 8)

    def test_window_mismatch_rejected(self):
        geo, workload = self._setup()
        plan = allocate_uniform(AllocationConfig(2 * 4 * 16, window=4), 2, 4)
        with pytest.raises(InvalidInputError):
            replay_plans(geo, workload, [plan])

    def test_layer_mismatch_rejected(self):
        geo, workload = self._setup()
        plan = allocate_uniform(AllocationConfig(3 * 4 * 16, window=8), 3, 4)
        with pytest.raises(ShapeError):
            replay_plans(geo, workload, [plan])

    def test_kv_head_mismatch_rejected(self):
        geo, workload = self._setup()
        plan = allocate_uniform(AllocationConfig(2 * 2 * 16, window=8), 2, 2)
        with pytest.raises(ShapeError):
            replay_plans(geo, workload, [plan])

    def test_budget_below_window_rejected(self):
        geo, workload = self._setup()
        budgets = np.full((2, 4), 16)
        budgets[1, 3] = 7
        plan = BudgetPlan(budgets, int(budgets.sum()), window=8)
        with pytest.raises(InvalidInputError):
            replay_plans(geo, workload, [plan])


class TestReplayMasked:
    """One window pass and one step stream against each masked model's own workload.

    `decode_workload(..., masks)` with `replay_masked` must give every masked
    cell the bits that `mask_heads(model, heads).decode_workload(...)` replayed
    by `replay_plans` gives: `==`, no tolerance.
    """

    GEOMETRIES = [(2, 4, 4), (2, 4, 2), (1, 4, 1), (2, 8, 2)]  # group sizes 1, 2, 4, 4

    @staticmethod
    def _fixed_masks(geo, planted):
        g = geo.group_size
        every = [(l, h) for l in range(geo.layers) for h in range(geo.query_heads)]
        return [
            [(0, 0), (0, 1)],  # two heads of one group once g >= 2
            [(geo.layers - 1, h) for h in range(geo.query_heads - g, geo.query_heads)],  # a group
            every,
            [head for head in every if head not in planted][:3],  # no planted head
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.sampled_from(GEOMETRIES),
        window=st.integers(0, 8),
        extra=st.integers(0, 40),
        out_len=st.integers(1, 3),
        premasked=st.booleans(),
        picks=st.lists(st.lists(st.integers(0, 15), max_size=5), max_size=2),
        seed=st.integers(0, 2**16),
    )
    def test_cells_equal_masked_models(
        self, shape, window, extra, out_len, premasked, picks, seed
    ):
        geo = ModelGeometry(*shape)
        planted = ((0, 1), (geo.layers - 1, geo.query_heads - 1))
        model = small_model(seed=seed, strength=0.8, planted=planted, geometry=geo)
        if premasked:  # a head the model masks already, inside a group the cells re-sum
            model = mask_heads(model, [(0, 0)])
        lp = max(window + extra, 1)
        heads = [(l, h) for l in range(geo.layers) for h in range(geo.query_heads)]
        masks = self._fixed_masks(geo, planted) + [
            [heads[i % len(heads)] for i in pick] for pick in picks
        ]
        masks += masks  # each set twice: under mixed budgets, then cut inside the ranked keys
        workload = model.decode_workload(lp, out_len, window, masks)
        assert len(workload.masked.heads) == len(masks)

        rng = np.random.default_rng(seed)
        middle = window + (lp - window + 1) // 2
        levels = np.array([window, middle, lp, lp + 3])
        shape_kv = (geo.layers, geo.kv_heads)
        budgets = rng.choice(levels, size=(1 + len(masks), *shape_kv))
        budgets[1 + len(masks) // 2 :] = middle
        plans = [BudgetPlan(b, int(b.sum()), window=window) for b in budgets]
        fast = replay_masked(geo, workload, plans)
        assert len(fast) == 1 + len(masks)
        (base,) = replay_plans(geo, workload, plans[:1])
        assert np.array_equal(fast[0].recall_per_step, base.recall_per_step)
        assert np.array_equal(fast[0].head_mean_recall, base.head_mean_recall)

        n_groups = geo.layers * geo.kv_heads
        for mask, cell, plan, got in zip(masks, masked_sets(workload.masked), plans[1:], fast[1:],
                                         strict=True):
            masked_model = mask_heads(model, mask)
            assert cell.heads == masked_model.masked - model.masked
            own = masked_model.decode_workload(lp, out_len, window)
            spliced = workload.window_scores.reshape(n_groups, lp - window).copy()
            spliced[cell.groups] = cell.scores
            assert np.array_equal(spliced.reshape(own.window_scores.shape), own.window_scores)
            (want,) = replay_plans(geo, own, [plan])
            assert np.array_equal(got.recall_per_step, want.recall_per_step)
            assert np.array_equal(got.head_mean_recall, want.head_mean_recall)
            assert np.array_equal(got.slots_per_step, want.slots_per_step)
            assert got.peak_slots == want.peak_slots

    def test_sets_that_share_kv_groups_over_several_ranges(self):
        """One set repeated and two overlapping sets, read in one pass over multi-range steps.

        At (2, 16, 4) and a 4096-key prompt a step is 131K values, so each
        window row and decode step comes as two tiles of four kv groups and
        the planted groups last. The sets' groups, sorted together, repeat
        and interleave across those ranges.
        """
        geo = ModelGeometry(2, 16, 4)
        lp, w, out_len = 4096, 4, 2
        planted = ((0, 1), (1, 13))  # kv groups 0 and 7
        model = small_model(seed=81, strength=0.9, planted=planted, geometry=geo)
        first = [(0, 1), (0, 5), (1, 9)]  # groups 0, 1 and 6
        other = [(0, 2), (1, 9), (1, 10), (1, 14)]  # groups 0, 6 and 7
        masks = [first, first, other]
        workload = model.decode_workload(lp, out_len, w, masks)
        steps = workload.steps.ranges()
        assert len([start for start, _ in next(steps)]) > 2
        deque(steps, maxlen=0)
        cells = masked_sets(workload.masked)
        assert len({int(g) for cell in cells for g in cell.groups}) < sum(
            cell.groups.size for cell in cells)

        rng = np.random.default_rng(81)
        levels = np.array([w, w + 1000, lp, lp + 3])
        budgets = rng.choice(levels, size=(1 + len(masks), geo.layers, geo.kv_heads))
        plans = [BudgetPlan(b, int(b.sum()), window=w) for b in budgets]
        fast = replay_masked(geo, workload, plans)
        n_groups = geo.layers * geo.kv_heads
        for mask, cell, plan, got in zip(masks, masked_sets(workload.masked), plans[1:], fast[1:],
                                         strict=True):
            own = mask_heads(model, mask).decode_workload(lp, out_len, w)
            spliced = workload.window_scores.reshape(n_groups, lp - w).copy()
            spliced[cell.groups] = cell.scores
            assert spliced.reshape(own.window_scores.shape).tobytes() == own.window_scores.tobytes()
            (want,) = replay_plans(geo, own, [plan])
            assert got.recall_per_step.tobytes() == want.recall_per_step.tobytes()
            assert got.head_mean_recall.tobytes() == want.head_mean_recall.tobytes()
            assert np.array_equal(got.slots_per_step, want.slots_per_step)

    def test_masked_window_holds_only_the_touched_groups(self):
        """The table holds one row per (set, kv group) a set touches, sorted by kv group, ties
        in set order."""
        geo = ModelGeometry(2, 8, 2)
        model = small_model(seed=3, geometry=geo)
        workload = model.decode_workload(64, 2, 8, [[(1, 5), (1, 6)]])
        (cell,) = masked_sets(workload.masked)
        assert cell.groups.tolist() == [3]
        assert cell.rows.tolist() == [[False, True, True, False]]
        assert cell.scores.shape == (1, 64 - 8)
        # a second set: kv group 0, and kv group 3 beside the first set's row there
        table = model.decode_workload(64, 2, 8, [[(1, 5), (1, 6)], [(1, 4), (0, 0)]]).masked
        assert table.sets.tolist() == [1, 0, 1]
        assert table.groups.tolist() == [0, 3, 3]
        assert table.rows.tolist() == [[True, False, False, False], [False, True, True, False],
                                       [True, False, False, False]]
        assert table.scores.shape == (3, 64 - 8)
        assert table.scores[1].tobytes() == workload.masked.scores[0].tobytes()

    def test_plan_count_must_match_the_masked_sets(self):
        geo = ModelGeometry.mha(2, 4)
        workload = small_model(seed=4).decode_workload(64, 2, 8, [[(0, 0)]])
        plan = allocate_uniform(AllocationConfig(2 * 4 * 16, window=8), 2, 4)
        with pytest.raises(InvalidInputError, match="2 masked|1 masked"):
            replay_masked(geo, workload, [plan])

    def test_mask_outside_geometry_rejected(self):
        with pytest.raises(InvalidInputError, match="masked head \\(2, 0\\) outside geometry"):
            small_model().decode_workload(64, 2, 8, [[(2, 0)]])
