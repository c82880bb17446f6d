"""Tests for bbox-to-patch mapping, hit scoring, aggregation, GQA grouping."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemm
from sparsemm import chaser
from sparsemm.chaser import (
    HeadScoreMatrix,
    aggregate_gqa_scores,
    chase_corpus,
    load_scores,
    match_bbox_to_patches,
    normalize_corpus,
    save_scores,
    score_sample,
    token_positions,
)
from sparsemm.errors import DegenerateBoxError, InvalidInputError, ShapeError
from sparsemm.simmodel import (
    TEXT_TOKEN,
    AttentionTrace,
    ModelGeometry,
    OcrSample,
    PlantedHeadSet,
    build_synthetic_model,
    generate_ocr_samples,
)


def oracle_rasterize(bbox, image_shape, grid):
    """Pixel-marching reference; exact when the image dims divide by the grid."""
    height, width = image_shape
    rows, cols = grid
    assert height % rows == 0 and width % cols == 0
    cell_h, cell_w = height // rows, width // cols
    x0, y0, x1, y1 = bbox
    covered = set()
    for py in range(height):
        for px in range(width):
            # pixel square [px, px+1) x [py, py+1) vs open bbox interior
            if px < x1 and px + 1 > x0 and py < y1 and py + 1 > y0:
                if min(x1, px + 1) > max(x0, px) and min(y1, py + 1) > max(y0, py):
                    covered.add((py // cell_h) * cols + (px // cell_w))
    return tuple(sorted(covered))


class TestMatchBboxToPatches:
    def test_single_cell_containment(self):
        assert match_bbox_to_patches((0, 0, 49, 49), (100, 100), (2, 2)) == (0,)

    def test_full_cover(self):
        assert match_bbox_to_patches((0, 0, 99, 99), (100, 100), (2, 2)) == (0, 1, 2, 3)

    def test_boundary_touch_does_not_count(self):
        # x=50 is the cell boundary of a 2x2 grid on a 100px image
        assert match_bbox_to_patches((0, 0, 50, 50), (100, 100), (2, 2)) == (0,)

    def test_rasterization_oracle_case(self):
        got = match_bbox_to_patches((50, 50, 120, 60), (224, 224), (4, 4))
        assert got == oracle_rasterize((50, 50, 120, 60), (224, 224), (4, 4))

    def test_rasterization_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            rows, cols = rng.integers(1, 5, size=2)
            height, width = int(rows) * int(rng.integers(8, 20)), int(cols) * int(rng.integers(8, 20))
            x0, y0 = rng.uniform(0, width - 1), rng.uniform(0, height - 1)
            bbox = (x0, y0, rng.uniform(x0 + 0.5, width), rng.uniform(y0 + 0.5, height))
            got = match_bbox_to_patches(bbox, (height, width), (int(rows), int(cols)))
            assert got == oracle_rasterize(bbox, (height, width), (int(rows), int(cols)))

    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateBoxError):
            match_bbox_to_patches((10, 10, 10, 40), (100, 100), (2, 2))

    def test_outside_image_rejected(self):
        with pytest.raises(DegenerateBoxError):
            match_bbox_to_patches((-5, 0, 40, 40), (100, 100), (2, 2))
        with pytest.raises(DegenerateBoxError):
            match_bbox_to_patches((0, 0, 140, 40), (100, 100), (2, 2))

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            match_bbox_to_patches((0, 0, 10, 10), (100, 100), (0, 2))


# layouts the generator never makes: empty, no image token, duplicated,
# missing and above-the-grid labels
LAYOUTS = st.one_of(
    st.just(()),
    st.lists(st.just(TEXT_TOKEN), max_size=6),
    st.lists(st.integers(TEXT_TOKEN, 12), max_size=24),
).map(tuple)


def draw_positions_case(data):
    """(layout, per-pair patch set or None for a degenerate box, pairs, out_len)."""
    layout = data.draw(LAYOUTS)
    patch_sets = data.draw(st.lists(
        st.one_of(st.none(), st.lists(st.integers(0, 15), unique=True).map(sorted).map(tuple)),
        max_size=5,
    ))
    # a pair's bbox carries its index, which `stub_patches` reads
    pairs = tuple((7, (float(t), 0.0, 1.0, 1.0)) for t in range(len(patch_sets)))
    return layout, patch_sets, pairs, data.draw(st.integers(0, len(patch_sets) + 2))


def stub_patches(patch_sets):
    """A `match_bbox_to_patches` that gives each pair its drawn patch set, or raises."""

    def match(bbox, image_shape, grid):
        patches = patch_sets[int(bbox[0])]
        if patches is None:
            raise DegenerateBoxError("drawn as degenerate")
        return patches

    return match


def oracle_positions(layout, patch_sets, pairs, t):
    """Token t's prompt positions as `np.isin` finds them, or None where it is skipped."""
    if t >= len(pairs) or patch_sets[t] is None:
        return None
    positions = np.flatnonzero(np.isin(np.asarray(layout), patch_sets[t]))
    return positions if positions.size else None


class TestTokenPositions:
    def test_positions_follow_the_layout(self):
        # patches 0 and 2 of a 2x2 grid sit at prompt positions 2 and 4
        layout = (TEXT_TOKEN, TEXT_TOKEN, 0, 1, 2, 3, TEXT_TOKEN)
        sample = OcrSample((100, 100), (2, 2), ((7, (10.0, 10.0, 40.0, 90.0)),), layout)
        (positions,) = token_positions(sample, 1)
        assert positions.tolist() == [2, 4]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lookup_matches_isin_oracle(self, data):
        """Hand-built layouts and patch sets, read as `np.isin` reads them."""
        layout, patch_sets, pairs, out_len = draw_positions_case(data)
        sample = OcrSample((100, 100), (2, 2), pairs, layout)
        with mock.patch.object(chaser, "match_bbox_to_patches", stub_patches(patch_sets)):
            got = token_positions(sample, out_len)
        want = [oracle_positions(layout, patch_sets, pairs, t) for t in range(out_len)]
        assert len(got) == out_len
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.dtype == np.intp and g.tolist() == w.tolist()


def make_sample_and_trace(n_tokens, region_patches, peak_patch, grid=(2, 2)):
    """One-head fixture: every token's row argmaxes at `peak_patch`."""
    g = grid[0] * grid[1]
    layout = (TEXT_TOKEN,) + tuple(range(g)) + (TEXT_TOKEN, TEXT_TOKEN)
    lp = len(layout)
    cell = 50.0
    # bbox covering exactly region_patches (assumed a row-major rectangle)
    rs = [p // grid[1] for p in region_patches]
    cs = [p % grid[1] for p in region_patches]
    bbox = (
        min(cs) * cell + 5,
        min(rs) * cell + 5,
        (max(cs) + 1) * cell - 5,
        (max(rs) + 1) * cell - 5,
    )
    pairs = tuple((7, bbox) for _ in range(n_tokens))
    sample = OcrSample((grid[0] * 50, grid[1] * 50), grid, pairs, layout)
    steps = []
    for t in range(n_tokens):
        row = np.full(lp + t, 0.3 / (lp + t - 1))
        row[1 + peak_patch] = 0.7  # patch p sits at prompt position 1 + p
        row /= row.sum()
        steps.append(row[None, None, :])
    return sample, AttentionTrace(tuple(steps), lp)


class TestScoreSample:
    def test_one_patch_region_full_credit(self):
        sample, trace = make_sample_and_trace(5, [3], 3)
        result = score_sample(sample, trace)
        assert result.increment.scores[0, 0] == pytest.approx(5.0)
        assert (result.increment.corpus_tokens, result.tokens_skipped) == (5, 0)

    def test_four_patch_region_quarter_credit(self):
        sample, trace = make_sample_and_trace(4, [0, 1, 2, 3], 2)
        result = score_sample(sample, trace)
        assert result.increment.scores[0, 0] == pytest.approx(4 * 0.25)

    def test_miss_scores_zero(self):
        sample, trace = make_sample_and_trace(3, [0], 3)  # argmax outside the region
        assert score_sample(sample, trace).increment.scores[0, 0] == 0.0

    def test_missing_pair_skipped(self):
        sample, trace = make_sample_and_trace(4, [3], 3)
        short = OcrSample(sample.image_shape, sample.grid, sample.pairs[:2], sample.prompt_layout)
        result = score_sample(short, trace)
        assert (result.increment.corpus_tokens, result.tokens_skipped) == (2, 2)
        assert result.increment.scores[0, 0] == pytest.approx(2.0)

    def test_degenerate_bbox_skipped(self):
        sample, trace = make_sample_and_trace(3, [3], 3)
        broken = (sample.pairs[0], (7, (10.0, 10.0, 10.0, 20.0)), sample.pairs[2])
        result = score_sample(
            OcrSample(sample.image_shape, sample.grid, broken, sample.prompt_layout), trace
        )
        assert (result.increment.corpus_tokens, result.tokens_skipped) == (2, 1)

    def test_argmax_on_a_generated_position_is_a_miss(self):
        # every row peaks on the last generated token; no prompt position is there
        sample, trace = make_sample_and_trace(3, [0, 1, 2, 3], 0)
        lp = sample.prompt_len
        steps = []
        for t, step in enumerate(trace.steps):
            row = step.copy()
            if t:
                row[0, 0, lp + t - 1] = 1.0
            steps.append(row)
        result = score_sample(sample, AttentionTrace(tuple(steps), lp))
        assert result.increment.scores[0, 0] == pytest.approx(0.25)  # step 0 alone hits
        assert result.increment.corpus_tokens == 3

    def test_trace_prompt_of_another_length_is_refused(self):
        # an argmax on a generated position must never be read against the layout
        sample, trace = make_sample_and_trace(3, [0, 1, 2, 3], 0)
        lp = sample.prompt_len
        for other in (lp - 1, lp + 1):
            steps = tuple(np.full((1, 1, other + t), 1.0 / (other + t)) for t in range(3))
            with pytest.raises(ShapeError, match=f"prompt_len {other} != .* {lp}"):
                score_sample(sample, AttentionTrace(steps, other))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_hits_match_isin_oracle(self, data):
        """Argmaxes on prompt and generated positions, read as `np.isin` reads them."""
        layout, patch_sets, pairs, out_len = draw_positions_case(data)
        sample = OcrSample((100, 100), (2, 2), pairs, layout)
        lp = len(layout)  # the trace's prompt is as long as the sample's layout
        layers, heads = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        steps = []
        for t in range(max(out_len, 1)):
            rows = rng.random((layers, heads, lp + t))
            if lp + t:  # an empty layout's step 0 has no position to peak on
                # peaks on generated positions where there are any, else anywhere
                peaks = rng.integers(lp if t else 0, lp + t, size=(layers, heads))
                first = rng.random((layers, heads)) < 0.5
                peaks[first] = rng.integers(0, lp + t, size=int(first.sum()))
                np.put_along_axis(rows, peaks[..., None], 2.0, axis=2)
            steps.append(rows)
        trace = AttentionTrace(tuple(steps), lp)
        with mock.patch.object(chaser, "match_bbox_to_patches", stub_patches(patch_sets)):
            got = score_sample(sample, trace)
        want = np.zeros((layers, heads))
        scored = 0
        for t, rows in enumerate(steps):
            positions = oracle_positions(layout, patch_sets, pairs, t)
            if positions is not None:
                want += (1.0 / positions.size) * np.isin(np.argmax(rows, axis=2), positions)
                scored += 1
        assert np.array_equal(got.increment.scores, want)
        assert (got.increment.corpus_tokens, got.tokens_skipped) == (scored, len(steps) - scored)

    def test_brute_force_oracle_on_generated_corpus(self):
        model = build_synthetic_model(
            ModelGeometry.mha(2, 3), PlantedHeadSet.uniform([(0, 1)], 0.7), seed=11
        )
        for sample, trace in generate_ocr_samples(model, 4, seed=2):
            got = score_sample(sample, trace)
            want = np.zeros((2, 3))
            scored = 0
            position_of = {p: i for i, p in enumerate(sample.prompt_layout) if p != TEXT_TOKEN}
            for t, step in enumerate(trace.steps):
                _, bbox = sample.pairs[t]
                patches = match_bbox_to_patches(bbox, sample.image_shape, sample.grid)
                positions = {position_of[p] for p in patches}
                scored += 1
                for l in range(2):
                    for h in range(3):
                        row = step[l, h].tolist()
                        best = 0
                        for j, v in enumerate(row):
                            if v > row[best]:
                                best = j
                        if best in positions:
                            want[l, h] += 1.0 / len(positions)
            assert got.increment.corpus_tokens == scored
            assert np.allclose(got.increment.scores, want, atol=1e-12)


def corpus_of(layers, heads, n, seed):
    model = build_synthetic_model(
        ModelGeometry.mha(layers, heads), PlantedHeadSet.uniform([(0, 1)], 0.8), seed
    )
    return list(generate_ocr_samples(model, n, seed))


class TestAggregateCorpus:
    """Corpus aggregation: `chase_corpus` sums the increments, `normalize_corpus` scales the sum."""

    def test_normalization_fixed_point(self):
        out = normalize_corpus(HeadScoreMatrix(np.array([[0.5, 0.0], [0.25, 0.0]]), 1))
        assert out.scores.max() == 1.0
        assert out.corpus_tokens == 1

    def test_all_zero_guard(self):
        out = normalize_corpus(HeadScoreMatrix(np.zeros((2, 2)), 3))
        assert (out.scores == 0.0).all()

    def test_all_equal_positive_maps_to_ones(self):
        out = normalize_corpus(HeadScoreMatrix(np.full((2, 2), 0.5), 2))
        assert (out.scores == 1.0).all()

    def test_permutation_equivariance(self):
        samples = corpus_of(3, 4, 5, seed=17)
        a, skipped_a = chase_corpus(samples)
        b, skipped_b = chase_corpus([samples[i] for i in [4, 2, 0, 3, 1]])
        assert np.allclose(a.scores, b.scores, atol=1e-12)
        assert (a.corpus_tokens, skipped_a) == (b.corpus_tokens, skipped_b)

    def test_precision_weighting(self):
        # equal hit counts; head 0 hit in 1-patch sets, head 1 in 4-patch sets
        out = normalize_corpus(HeadScoreMatrix(np.array([[3 * 1.0, 3 * 0.25]]), 3))
        assert out.scores[0, 0] > out.scores[0, 1]

    def test_hit_monotonicity(self):
        base = np.array([[1.0, 2.0]])
        more = base.copy()
        more[0, 0] += 0.5  # one extra hit on head 0
        a = normalize_corpus(HeadScoreMatrix(base, 4))
        b = normalize_corpus(HeadScoreMatrix(more, 4))
        assert b.scores[0, 0] >= a.scores[0, 0]

    def test_zero_tokens_rejected(self):
        with pytest.raises(InvalidInputError):
            normalize_corpus(HeadScoreMatrix.zeros(1, 1))
        with pytest.raises(InvalidInputError):
            chase_corpus([])

    def test_shape_mismatch_rejected(self):
        # a (2, 4) sum plus a (1, 4) increment would broadcast without the check
        two, one = corpus_of(2, 4, 1, seed=3) + corpus_of(1, 4, 1, seed=3)
        for samples in ([two, one], [one, two]):
            with pytest.raises(ShapeError):
                chase_corpus(samples)

    def test_sum_equals_the_sum_of_sample_increments(self):
        samples = corpus_of(2, 3, 6, seed=9)
        results = [score_sample(sample, trace) for sample, trace in samples]
        total = sum(r.increment.scores for r in results)
        tokens = sum(r.increment.corpus_tokens for r in results)
        want = normalize_corpus(HeadScoreMatrix(total, tokens))
        scores, skipped = chase_corpus(samples)
        assert scores.scores.tobytes() == want.scores.tobytes()
        assert scores.corpus_tokens == tokens
        assert skipped == sum(r.tokens_skipped for r in results)


class TestAggregateGqa:
    def test_group_one_identity(self):
        m = HeadScoreMatrix(np.random.default_rng(1).random((2, 4)))
        assert np.array_equal(aggregate_gqa_scores(m, 1).scores, m.scores)

    def test_group_all_row_sum(self):
        m = HeadScoreMatrix(np.random.default_rng(2).random((3, 4)))
        out = aggregate_gqa_scores(m, 4)
        assert out.scores.shape == (3, 1)
        assert np.allclose(out.scores[:, 0], m.scores.sum(axis=1), atol=1e-12)

    def test_block_sum_oracle_32_to_8(self):
        m = HeadScoreMatrix(np.random.default_rng(3).random((32, 32)))
        out = aggregate_gqa_scores(m, 4)
        want = np.zeros((32, 8))
        for l in range(32):
            for j in range(8):
                acc = 0.0
                for q in range(4 * j, 4 * j + 4):
                    acc += m.scores[l, q]
                want[l, j] = acc
        assert np.allclose(out.scores, want, atol=1e-12)

    def test_per_layer_conservation(self):
        m = HeadScoreMatrix(np.random.default_rng(4).random((6, 8)))
        for group in (1, 2, 4, 8):
            out = aggregate_gqa_scores(m, group)
            assert np.allclose(out.scores.sum(axis=1), m.scores.sum(axis=1), atol=1e-12)

    def test_non_divisible_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_gqa_scores(HeadScoreMatrix.zeros(2, 6), 4)


class TestScoreFileIO:
    def test_round_trip(self, tmp_path):
        m = HeadScoreMatrix(np.random.default_rng(5).random((3, 5)), 42)
        path = tmp_path / "scores.json"
        save_scores(path, m)
        back = load_scores(path)
        assert np.array_equal(back.scores, m.scores)
        assert back.corpus_tokens == 42

    def test_hash_stable(self, tmp_path):
        m = HeadScoreMatrix(np.ones((2, 2)), 1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        digest = save_scores(p1, m)
        assert save_scores(p2, m) == digest
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == digest

    def test_file_with_retired_normalization_loads(self, tmp_path):
        path = tmp_path / "scores.json"
        path.write_text('{"layers":1,"heads":2,"scores":[0.0,1.0],"normalization":"minmax","corpus_tokens":3}')
        back = load_scores(path)
        assert back.scores.tolist() == [[0.0, 1.0]]
        assert back.corpus_tokens == 3
        save_scores(path, back)
        assert set(json.loads(path.read_text())) == {"layers", "heads", "scores", "corpus_tokens"}

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"layers":2,"heads":2,"scores":[1.0],"normalization":"none","corpus_tokens":0}')
        with pytest.raises(ShapeError):
            load_scores(path)


class TestChaseCorpus:
    def test_planted_head_is_corpus_maximum(self):
        model = build_synthetic_model(
            ModelGeometry.mha(2, 4), PlantedHeadSet.uniform([(0, 1)], 1.0), seed=6
        )
        scores, skipped = chase_corpus(generate_ocr_samples(model, 30, seed=0))
        assert skipped == 0
        assert scores.scores[0, 1] == 1.0
        rest = scores.scores.copy().ravel()
        rest[1] = -1.0
        assert (scores.scores[0, 1] > rest).all()


def test_scoring_and_allocation_load_neither_generator_nor_cache():
    """`chaser` and `allocator` run on score matrices alone; the generator is a test fixture."""
    code = (
        "import sys, sparsemm.allocator, sparsemm.chaser;"
        "print(sorted(m for m in ('sparsemm.simmodel', 'sparsemm.cache', 'sparsemm.tensor')"
        " if m in sys.modules))"
    )
    src = str(Path(sparsemm.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
