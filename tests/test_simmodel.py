"""Tests for the synthetic attention model: planted structure, determinism, IO."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from sparsemm.allocator import POLICY_NAMES, AllocationConfig, BudgetPlan, allocate, allocate_uniform
from sparsemm.cache import keep_all_policy, make_plan_policy
from sparsemm.chaser import HeadScoreMatrix, chase_corpus, match_bbox_to_patches
from sparsemm.errors import EvictionPolicyError, InvalidInputError, ShapeError
from sparsemm.simmodel import (
    TEXT_TOKEN,
    AttentionTrace,
    ModelGeometry,
    OcrSample,
    PlantedHeadSet,
    build_synthetic_model,
    corpus_digest,
    decode_with_cache,
    generate_ocr_samples,
    load_corpus,
    mask_heads,
    replay_decode,
    replay_plans,
    save_corpus,
)


def small_model(seed=0, strength=1.0, planted=((0, 1),), geometry=None):
    geo = geometry or ModelGeometry.mha(2, 4)
    return build_synthetic_model(geo, PlantedHeadSet.uniform(list(planted), strength), seed)


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
        assert planted.pairs() == ((0, 2), (3, 1))
        assert len(planted) == 2

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidInputError):
            PlantedHeadSet.uniform([(0, 1), (0, 1)], 0.5)

    def test_strength_bounds(self):
        with pytest.raises(InvalidInputError):
            PlantedHeadSet.uniform([(0, 1)], 1.5)

    def test_out_of_geometry_rejected_at_build(self):
        with pytest.raises(InvalidInputError):
            build_synthetic_model(
                ModelGeometry.mha(2, 4), PlantedHeadSet.uniform([(2, 0)], 0.5), 0
            )


class TestTraceValidation:
    def test_rows_must_normalize(self):
        bad = np.full((1, 1, 3), 0.5)
        with pytest.raises(InvalidInputError):
            AttentionTrace((bad,), 3)

    def test_rows_must_be_non_negative(self):
        bad = np.array([[[1.5, -0.5, 0.0]]])
        with pytest.raises(InvalidInputError):
            AttentionTrace((bad,), 3)

    def test_steps_are_frozen(self):
        ok = np.full((1, 1, 4), 0.25)
        trace = AttentionTrace((ok,), 4)
        with pytest.raises(ValueError):
            trace.steps[0][0, 0, 0] = 1.0

    def test_sample_layout_must_cover_grid(self):
        with pytest.raises(InvalidInputError):
            OcrSample((100, 100), (2, 2), (), (TEXT_TOKEN, 0, 1, 2))


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
        assert np.array_equal(wa.window_attention, wb.window_attention)
        for ra, rb in zip(wa.decode_rows, wb.decode_rows):
            assert np.array_equal(ra, rb)

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
                positions = {position_of[p] for p in patches.indices}
                assert int(np.argmax(step[0, 1])) in positions

    def test_strength_zero_indistinguishable_from_background(self):
        model = small_model(seed=11, strength=0.0)
        planted_hits = other_hits = n_tokens = 0
        for sample, trace in generate_ocr_samples(model, 150, seed=4):
            position_of = {p: i for i, p in enumerate(sample.prompt_layout) if p != TEXT_TOKEN}
            for t, step in enumerate(trace.steps):
                _, bbox = sample.pairs[t]
                patches = match_bbox_to_patches(bbox, sample.image_shape, sample.grid)
                positions = {position_of[p] for p in patches.indices}
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
        with pytest.raises(InvalidInputError):
            mask_heads(small_model(), [(5, 0)])


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

    def test_digest_sensitive_to_content(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir()
        d2.mkdir()
        save_corpus(d1, generate_ocr_samples(small_model(seed=31), 2, seed=1))
        save_corpus(d2, generate_ocr_samples(small_model(seed=31), 2, seed=2))
        assert corpus_digest(d1) != corpus_digest(d2)


class TestDecodeWorkload:
    def test_geometry_and_probability_structure(self):
        model = small_model(seed=41)
        wl = model.decode_workload(160, 3, 32)
        assert wl.window_attention.shape == (2, 4, 32, 160)
        # window row i may only see positions <= 160 - 32 + i
        for i in range(32):
            assert np.allclose(wl.window_attention[:, :, i, 160 - 32 + i + 1 :], 0.0)
            assert np.allclose(wl.window_attention[:, :, i].sum(axis=-1), 1.0, atol=1e-9)
        for t, rows in enumerate(wl.decode_rows):
            assert rows.shape == (2, 4, 160 + t)
            assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-9)

    def test_regions_live_inside_prompt(self):
        wl = small_model(seed=42).decode_workload(200, 5, 32)
        assert wl.union_positions.min() >= 0
        assert wl.union_positions.max() < 200
        for region in wl.token_regions:
            assert set(region.tolist()) <= set(wl.union_positions.tolist())

    def test_prompt_shorter_than_window_rejected(self):
        with pytest.raises(InvalidInputError):
            small_model().decode_workload(16, 2, 32)
        with pytest.raises(InvalidInputError):
            small_model().decode_workload(64, 0, 32)


class TestDecodeWithCache:
    def test_full_cache_recall_exactly_one(self):
        record = decode_with_cache(small_model(seed=51), 128, 5, keep_all_policy, 32)
        assert (record.recall_per_step == 1.0).all()
        assert record.peak_slots == 2 * 4 * (128 + 5)

    def test_all_uniform_model_matches_analytic_recall(self):
        model = mask_heads(
            small_model(seed=52), [(l, h) for l in range(2) for h in range(4)]
        )
        lp, out, w = 128, 6, 32
        plan = allocate_uniform(AllocationConfig(2 * 4 * w, window=w), 2, 4)
        record = decode_with_cache(model, lp, out, make_plan_policy(plan), w)
        want = (w + np.arange(out)) / (lp + np.arange(out))
        assert np.abs(record.recall_per_step - want).max() <= 1e-12

    def test_compressed_slot_accounting(self):
        lp, out, w, b = 128, 4, 32, 48
        plan = allocate_uniform(AllocationConfig(2 * 4 * b, window=w), 2, 4)
        record = decode_with_cache(small_model(seed=53), lp, out, make_plan_policy(plan), w)
        assert record.slots_per_step.tolist() == [2 * 4 * (b + t) for t in range(out)]
        assert record.peak_slots == 2 * 4 * (b + out)
        assert record.total_touches == sum(2 * 4 * (b + t) for t in range(out))

    def test_policy_must_return_matching_cache(self):
        model = small_model(seed=54)
        with pytest.raises(EvictionPolicyError):
            decode_with_cache(model, 128, 2, lambda info: None, 32)

        def wrong_prefill(info):
            from sparsemm.cache import KvCache

            return KvCache.full(info.layers, info.kv_heads, info.prompt_len - 1)

        with pytest.raises(EvictionPolicyError):
            decode_with_cache(model, 128, 2, wrong_prefill, 32)

    def test_decode_record_aggregates(self):
        record = decode_with_cache(small_model(seed=55), 96, 3, keep_all_policy, 32)
        assert record.mean_recall == pytest.approx(1.0)
        assert record.head_mean_recall.shape == (2, 4)
        assert np.allclose(record.head_mean_recall, 1.0)


class TestReplayPlans:
    """replay_plans against the replay_decode oracle.

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
    def test_matches_replay_decode(
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

        for plan, fast in zip(plans, replay_plans(geo, workload, plans), strict=True):
            slow = replay_decode(geo, workload, make_plan_policy(plan))
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
