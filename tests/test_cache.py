"""Tests for window attention, key ranking, top-k eviction, and decode recall."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sparsemm import cache
from sparsemm.allocator import BudgetPlan
from sparsemm.cache import (
    _descending_order,
    _key_order,
    compress_prefill,
    replay_plans,
    report_to_csv,
    report_to_json,
    select_topk,
    window_attention,
)
from sparsemm.errors import InvalidInputError, ShapeError
from sparsemm.simmodel import DecodeWorkload, ModelGeometry, PlantedHeadSet, build_synthetic_model
from sparsemm.tensor import CausalMask, Matrix, matmul_scaled, softmax_row_masked

from ranking_oracle import rank_window_keys


def oracle_full_causal(q_full, k_all):
    scores = matmul_scaled(q_full, k_all, 1.0 / np.sqrt(q_full.cols))
    return softmax_row_masked(scores, CausalMask(), 0).array


def flat_plan(layers, kv_heads, per_head, window=8):
    budgets = np.full((layers, kv_heads), per_head, dtype=np.int64)
    return BudgetPlan(budgets, per_head * layers * kv_heads, window=window)


def average_window_scores(attn) -> np.ndarray:
    """Per-key mean of the window rows, for keys left of the window.

    Input is (w, Lp); output has length Lp - w. Keys inside the window are
    excluded because they are retained unconditionally. This is the oracle
    for one kv head's row of `rank_window_keys`.
    """
    arr = attn.array if isinstance(attn, Matrix) else np.asarray(attn, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError("average_window_scores expects a (w, Lp) matrix")
    w, lp = arr.shape
    if w > lp:
        raise InvalidInputError(f"window {w} exceeds prompt length {lp}")
    return arr[:, : lp - w].mean(axis=0) if w else np.zeros(lp)


def compress_window(attn, plan, w):
    """compress_prefill on the scores `rank_window_keys` takes from a window tensor."""
    scores = rank_window_keys(attn, plan.kv_heads, w).scores
    return compress_prefill(scores, plan, w, attn.shape[-1])


def hand_workload(window_scores, steps, w):
    """A decode workload of given (L, H_kv, Lp - w) window scores and per-step rows."""
    lp = window_scores.shape[-1] + w
    empty = np.empty(0, dtype=np.int64)
    n = len(steps)
    return DecodeWorkload(lp, n, w, empty, (empty,) * n, window_scores, tuple(steps))


class TestWindowAttention:
    def test_equals_last_rows_of_full_attention(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            lp = int(rng.integers(2, 40))
            w = int(rng.integers(1, lp + 1))
            d = int(rng.integers(1, 9))
            q_full = Matrix(rng.standard_normal((lp, d)))
            k_all = Matrix(rng.standard_normal((lp, d)))
            full = oracle_full_causal(q_full, k_all)
            got = window_attention(Matrix(q_full.array[lp - w :]), k_all).array
            assert np.allclose(got, full[lp - w :], rtol=1e-12, atol=1e-15)

    def test_full_window_boundary(self):
        rng = np.random.default_rng(51)
        q = Matrix(rng.standard_normal((6, 3)))
        k = Matrix(rng.standard_normal((6, 3)))
        assert np.allclose(
            window_attention(q, k).array, oracle_full_causal(q, k), rtol=1e-12
        )

    def test_zero_inputs_give_uniform_causal_rows(self):
        got = window_attention(Matrix.zeros(2, 4), Matrix.zeros(5, 4)).array
        assert np.allclose(got[0], [0.25, 0.25, 0.25, 0.25, 0.0])
        assert np.allclose(got[1], [0.2, 0.2, 0.2, 0.2, 0.2])

    def test_window_longer_than_prompt_rejected(self):
        with pytest.raises(InvalidInputError):
            window_attention(Matrix.zeros(6, 4), Matrix.zeros(5, 4))

    def test_head_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            window_attention(Matrix.zeros(2, 4), Matrix.zeros(5, 3))


class TestAverageWindowScores:
    def test_hand_case(self):
        out = average_window_scores(np.array([[0.2, 0.3, 0.5], [0.4, 0.1, 0.5]]))
        assert np.allclose(out, [0.3])

    def test_column_mean_oracle(self):
        rng = np.random.default_rng(52)
        arr = rng.random((5, 12))
        out = average_window_scores(arr)
        want = [sum(arr[i][j] for i in range(5)) / 5 for j in range(7)]
        assert np.allclose(out, want, atol=1e-12)

    def test_window_equals_prompt_yields_empty(self):
        assert average_window_scores(np.random.default_rng(0).random((4, 4))).size == 0

    def test_accepts_matrix(self):
        m = Matrix([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(average_window_scores(m), [0.75])

    def test_bad_ndim_rejected(self):
        with pytest.raises(ShapeError):
            average_window_scores(np.zeros(4))


class TestSelectTopk:
    def test_ties_prefer_earlier(self):
        sel = select_topk([5.0, 1.0, 5.0, 3.0], 2)
        assert sel.positions.tolist() == [0, 2]
        assert not sel.clamped

    def test_k_zero_and_k_full(self):
        assert select_topk([1.0, 2.0], 0).positions.size == 0
        assert select_topk([1.0, 2.0], 2).positions.tolist() == [0, 1]

    def test_clamp_flag(self):
        sel = select_topk([1.0, 2.0], 5)
        assert sel.positions.tolist() == [0, 1]
        assert sel.clamped

    def test_sort_oracle_with_ties(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            arr = rng.integers(0, 4, size=n).astype(float)  # coarse values force ties
            k = int(rng.integers(0, n + 1))
            want = sorted(sorted(range(n), key=lambda i: (-arr[i], i))[:k])
            assert select_topk(arr, k).positions.tolist() == want

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            select_topk([np.nan, 1.0], 1)
        with pytest.raises(InvalidInputError):
            select_topk([1.0], -1)
        with pytest.raises(ShapeError):
            select_topk(np.zeros((2, 2)), 1)


class TestRankWindowKeys:
    def test_kept_sets_equal_select_topk(self):
        rng = np.random.default_rng(61)
        lp, w = 24, 4
        coarse = rng.integers(0, 3, size=(2, 4, w, lp)).astype(float)  # ties
        fine = rng.random((2, 4, w, lp))  # sums that depend on their order
        for attn, kv_heads in [(a, k) for a in (coarse, fine) for k in (1, 2, 4)]:
            ranking = rank_window_keys(attn, kv_heads, w)
            assert ranking.order.shape == ranking.scores.shape == (2, kv_heads, lp - w)
            grouped = attn.reshape(2, kv_heads, 4 // kv_heads, w, lp).sum(axis=2)
            for l in range(2):
                for j in range(kv_heads):
                    abar = average_window_scores(grouped[l, j])
                    assert np.array_equal(ranking.scores[l, j], abar)
                    for k in range(lp - w + 1):
                        kept = np.sort(ranking.order[l, j, :k])
                        assert kept.tolist() == select_topk(abar, k).positions.tolist()

    def test_sums_run_in_order_for_every_shape(self):
        # one kv head and one scored key leave a single reduced axis, which a
        # plain numpy sum would add pairwise; the scores must still be the
        # sequential sum a window reduced row by row gives
        rng = np.random.default_rng(62)
        for group, w in [(4, 32), (16, 4)] * 20:
            attn = rng.random((1, group, w, w + 1))
            want = 0.0
            for i in range(w):
                row = attn[0, 0, i, 0]
                for h in range(1, group):
                    row += attn[0, h, i, 0]
                want += row
            assert rank_window_keys(attn, 1, w).scores[0, 0, 0] == want / w

    def test_errors(self):
        attn = np.zeros((1, 2, 4, 20))
        bad = attn.copy()
        bad[0, 0, 0, 0] = np.inf
        with pytest.raises(InvalidInputError):
            rank_window_keys(bad, 2, 4)  # non-finite scores
        with pytest.raises(ShapeError):
            rank_window_keys(attn, 3, 4)  # group mismatch
        with pytest.raises(ShapeError):
            rank_window_keys(attn, 2, 5)  # row count
        with pytest.raises(ShapeError):
            rank_window_keys(attn[0], 2, 4)  # ndim


class TestKeyOrder:
    """The chunked, narrow key order against `_descending_order` on the whole array."""

    @pytest.mark.parametrize(
        "n, dtype",
        [(0, np.uint8), (1, np.uint8), (256, np.uint8), (257, np.uint16),
         (65536, np.uint16), (65537, np.uint32)],
    )
    def test_equals_descending_order_at_each_dtype_bound(self, n, dtype):
        rng = np.random.default_rng(n)
        scores = rng.integers(0, 4, size=(3, n)).astype(float)  # ties everywhere
        order = _key_order(scores)
        assert order.dtype == dtype and order.shape == (3, n)
        assert np.array_equal(order, _descending_order(scores))

    @pytest.mark.parametrize("chunk_values", [1, 7, 40, 41, 1000])
    def test_chunk_edges_mid_array(self, monkeypatch, chunk_values):
        # 11 groups of 20 keys, ranked in chunks of 1, 1, 2, 2 and all 11 groups
        monkeypatch.setattr(cache, "RANK_CHUNK_VALUES", chunk_values)
        rng = np.random.default_rng(chunk_values)
        scores = rng.integers(0, 3, size=(11, 20)).astype(float)
        assert np.array_equal(_key_order(scores), _descending_order(scores))
        bad = scores.copy()
        bad[-1, -1] = np.nan  # in the last chunk
        with pytest.raises(InvalidInputError, match="finite"):
            _key_order(bad)
        lp, w = 24, 4
        budgets = rng.integers(w, lp + 2, size=(1, 11))
        plan = BudgetPlan(budgets, int(budgets.sum()), window=w)
        kept, _ = compress_prefill(scores[None], plan, w, lp)
        for j in range(11):
            best = sorted(range(lp - w), key=lambda k: (-scores[j, k], k))
            want = sorted(best[: plan.budgets[0, j] - w]) + list(range(lp - w, lp))
            assert np.flatnonzero(kept[0, j]).tolist() == want


class TestCompressPrefill:
    def test_budget_compliance_and_window_guarantee(self):
        rng = np.random.default_rng(54)
        lp, w = 40, 8
        attn = rng.random((2, 4, w, lp))
        plan = flat_plan(2, 4, 16, window=w)
        kept, report = compress_window(attn, plan, w)
        assert kept.shape == (2, 4, lp)
        window = set(range(lp - w, lp))
        for l in range(2):
            for j in range(4):
                positions = np.flatnonzero(kept[l, j])
                assert positions.size == 16
                assert window <= set(positions.tolist())
        assert report.total_kept == 2 * 4 * 16
        assert not report.scoring_skipped

    def test_identity_budget_keeps_everything(self):
        rng = np.random.default_rng(55)
        lp, w = 20, 4
        attn = rng.random((1, 2, w, lp))
        kept, report = compress_window(attn, flat_plan(1, 2, lp, window=w), w)
        assert kept.all()
        for j in range(2):
            assert np.flatnonzero(kept[0, j]).tolist() == list(range(lp))
        assert not any(h.clamped for h in report.heads)

    def test_over_budget_sets_clamped(self):
        rng = np.random.default_rng(56)
        lp, w = 10, 2
        attn = rng.random((1, 1, w, lp))
        _, report = compress_window(attn, flat_plan(1, 1, lp + 5, window=w), w)
        assert report.heads[0].clamped
        assert report.heads[0].kept == tuple(range(lp))

    def test_window_only_budget(self):
        rng = np.random.default_rng(57)
        lp, w = 30, 6
        attn = rng.random((1, 1, w, lp))
        kept, _ = compress_window(attn, flat_plan(1, 1, w, window=w), w)
        assert np.flatnonzero(kept[0, 0]).tolist() == list(range(lp - w, lp))

    def test_mass_ranking_oracle(self):
        rng = np.random.default_rng(58)
        lp, w, b = 25, 5, 12
        attn = rng.integers(0, 5, size=(1, 1, w, lp)).astype(float)  # coarse → ties
        kept, _ = compress_window(attn, flat_plan(1, 1, b, window=w), w)
        means = [sum(attn[0, 0, i, j] for i in range(w)) / w for j in range(lp - w)]
        want = sorted(sorted(range(lp - w), key=lambda j: (-means[j], j))[: b - w])
        want += list(range(lp - w, lp))
        assert np.flatnonzero(kept[0, 0]).tolist() == want

    def test_gqa_selection_follows_group_sum(self):
        # query head 0 favors key 0; query head 1 favors key 1 twice as hard.
        lp, w = 8, 2
        attn = np.full((1, 2, w, lp), 0.01)
        attn[0, 0, :, 0] = 1.0
        attn[0, 1, :, 1] = 2.5
        plan = BudgetPlan(np.array([[w + 1]]), w + 1, window=w)
        kept, _ = compress_window(attn, plan, w)
        assert np.flatnonzero(kept[0, 0]).tolist() == [1, lp - 2, lp - 1]

    def test_short_prompt_keeps_all_and_skips_scoring(self):
        lp, w = 5, 8
        scores = np.zeros((1, 2, 0))  # a prompt shorter than the window has no scored key
        kept, report = compress_prefill(scores, flat_plan(1, 2, 16, window=w), w, lp)
        assert report.scoring_skipped
        assert kept.shape == (1, 2, lp) and kept.all()
        for j in range(2):
            assert report.heads[j].kept == tuple(range(lp))

    def test_plan_below_floor_rejected_by_both_readers(self):
        """A plan under the w floor is rejected for a prompt shorter than w too."""
        w = 8
        plan = BudgetPlan(np.array([[3, 3]]), 6, window=w)
        with pytest.raises(InvalidInputError, match="fewer than w slots"):
            compress_prefill(np.zeros((1, 2, 0)), plan, w, 5)
        workload = hand_workload(np.zeros((1, 2, 0)), [np.ones((1, 2, w))], w)
        with pytest.raises(InvalidInputError, match="fewer than w slots"):
            replay_plans(ModelGeometry.mha(1, 2), workload, [plan])

    def test_errors(self):
        rng = np.random.default_rng(60)
        scores = rng.random((1, 2, 16))  # Lp = 20, w = 4
        with pytest.raises(ShapeError):
            compress_prefill(scores, flat_plan(2, 2, 8, window=4), 4, 20)  # layer mismatch
        with pytest.raises(ShapeError):
            compress_prefill(scores, flat_plan(1, 3, 8, window=4), 4, 20)  # kv head mismatch
        with pytest.raises(InvalidInputError):
            compress_prefill(scores, flat_plan(1, 2, 8, window=8), 4, 20)  # window mismatch
        with pytest.raises(ShapeError):
            compress_prefill(scores, flat_plan(1, 2, 8, window=5), 5, 20)  # key count
        short = np.zeros((1, 2, 3))  # Lp = 5 < w scores no key
        with pytest.raises(ShapeError):
            compress_prefill(short, flat_plan(1, 2, 8, window=8), 8, 5)
        with pytest.raises(InvalidInputError):
            compress_prefill(scores, flat_plan(1, 2, 3, window=4), 4, 20)  # budget < w
        with pytest.raises(ShapeError):
            compress_prefill(scores[0], flat_plan(1, 2, 8, window=4), 4, 20)  # ndim
        bad = scores.copy()
        bad[0, 1, 3] = np.nan
        with pytest.raises(InvalidInputError):
            compress_prefill(bad, flat_plan(1, 2, 8, window=4), 4, 20)  # non-finite


class TestDecodeStep:
    """Per-step recall and slot counts of `replay_plans` on hand-built workloads."""

    def test_full_cache_recall_is_exactly_one(self):
        rng = np.random.default_rng(61)
        lp, w = 10, 2
        rows = [rng.random((2, 4, lp + step)) for step in range(3)]
        workload = hand_workload(rng.random((2, 4, lp - w)), rows, w)
        (record,) = replay_plans(ModelGeometry.mha(2, 4), workload, [flat_plan(2, 4, lp, window=w)])
        assert (record.recall_per_step == 1.0).all()
        assert (record.head_mean_recall == 1.0).all()

    def test_captured_matches_python_oracle(self):
        rng = np.random.default_rng(62)
        lp, w = 12, 3
        kept_sets = [[0, 2, 3, 9, 10, 11], [1, 5, 8, 9, 10, 11]]
        scores = np.zeros((1, 2, lp - w))
        scores[0, 0, [0, 2, 3]] = 1.0
        scores[0, 1, [1, 5, 8]] = 1.0
        plan = flat_plan(1, 2, 6, window=w)
        kept, _ = compress_prefill(scores, plan, w, lp)
        assert [np.flatnonzero(k).tolist() for k in kept[0]] == kept_sets
        rows = [rng.random((1, 2, lp + step)) for step in range(2)]
        want = np.zeros((2, 2))
        for step in range(2):
            for h in range(2):
                keep = set(kept_sets[h]) | set(range(lp, lp + step))
                num = sum(rows[step][0, h, p] for p in sorted(keep))
                want[step, h] = num / rows[step][0, h].sum()
        (record,) = replay_plans(ModelGeometry.mha(1, 2), hand_workload(scores, rows, w), [plan])
        assert np.allclose(record.recall_per_step, want.mean(axis=1), atol=1e-12)
        assert np.allclose(record.head_mean_recall[0], want.mean(axis=0), atol=1e-12)

    def test_slot_and_touch_arithmetic(self):
        rng = np.random.default_rng(63)
        lp, w, b = 30, 4, 10
        scores = rank_window_keys(rng.random((2, 4, w, lp)), 2, w).scores
        rows = [rng.random((2, 4, lp + step)) for step in range(3)]
        geo = ModelGeometry(2, 4, 2)
        (record,) = replay_plans(geo, hand_workload(scores, rows, w), [flat_plan(2, 2, b, window=w)])
        group = 2
        for step in range(3):
            per_head = min(lp, b) + step
            assert record.slots_per_step[step] == 2 * 2 * per_head
            assert record.touches_per_step[step] == 2 * 2 * group * per_head

    def test_recall_monotone_in_budget(self):
        rng = np.random.default_rng(64)
        lp, w = 40, 8
        scores = rank_window_keys(rng.random((1, 2, w, lp)), 2, w).scores
        workload = hand_workload(scores, [rng.random((1, 2, lp))], w)
        plans = [flat_plan(1, 2, b, window=w) for b in (8, 12, 20, 40)]
        captured = [r.head_mean_recall for r in replay_plans(ModelGeometry.mha(1, 2), workload, plans)]
        for lo, hi in zip(captured, captured[1:]):
            assert (hi >= lo).all()
        assert (captured[-1] == 1.0).all()

    def test_geometry_errors(self):
        lp, w = 6, 2
        geo, plan = ModelGeometry.mha(1, 2), flat_plan(1, 2, 4, window=w)
        scores = np.zeros((1, 2, lp - w))
        with pytest.raises(ShapeError):
            replay_plans(geo, hand_workload(scores, [np.zeros((2, 2, lp))], w), [plan])
        with pytest.raises(ShapeError):  # length != prompt_len + step
            replay_plans(geo, hand_workload(scores, [np.zeros((1, 2, lp + 1))], w), [plan])
        rows = [np.full((1, 2, lp + t), 1.0 / (lp + t)) for t in range(3)]
        for out_len in (2, 4):  # steps yielded != out_len
            workload = replace(hand_workload(scores, rows, w), out_len=out_len)
            with pytest.raises(ShapeError, match="step"):
                replay_plans(geo, workload, [plan])


class TestPoliciesAndReports:
    def test_plan_policy_applies_compression(self):
        rng = np.random.default_rng(67)
        lp, w = 20, 4
        kept, _ = compress_prefill(rng.random((1, 2, lp - w)), flat_plan(1, 2, 7, window=w), w, lp)
        assert kept.sum() == 2 * 7

    def test_report_export(self, tmp_path):
        rng = np.random.default_rng(68)
        lp, w = 15, 3
        attn = rng.random((1, 2, w, lp))
        _, report = compress_window(attn, flat_plan(1, 2, 6, window=w), w)
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        report_to_json(report, jpath)
        report_to_csv(report, cpath)
        blob = json.loads(jpath.read_text())
        assert blob["prompt_len"] == lp and blob["window"] == w
        assert len(blob["heads"]) == 2
        lines = cpath.read_text().splitlines()
        assert len(lines) == 1 + 2
        assert ";" in lines[1].rsplit(",", 1)[-1]
        before = cpath.read_bytes()
        report_to_csv(report, cpath)
        assert cpath.read_bytes() == before


class TestReplayMemory:
    def test_replay_holds_no_score_sized_temporary(self, monkeypatch):
        """The replay's peak above its workload: the step stream, the key order, one chunk.

        The slack is 64 KiB plus one group's gather: `ndarray.take` buffers
        the strided chunk row it writes, and converts the narrow keys to intp.
        Ranking the window scores whole held their negated copy, an intp order
        and a finiteness mask, about 2.1 x the scores' bytes, which breaks the
        bound.
        """
        monkeypatch.setattr(cache, "RANK_CHUNK_VALUES", 4096)
        geometry = ModelGeometry(4, 16, 4)
        model = build_synthetic_model(geometry, PlantedHeadSet.uniform([(0, 1), (3, 9)], 0.8), 7)
        workload = model.decode_workload(4096, 2, 32)
        plans = [flat_plan(4, 4, b, window=32) for b in (32, 512, 4096)]
        groups, n = geometry.layers * geometry.kv_heads, workload.prompt_len - workload.window
        order_bytes = groups * n * np.min_scalar_type(n - 1).itemsize
        chunk = max(1, cache.RANK_CHUNK_VALUES // (geometry.group_size * n))
        table_bytes = chunk * geometry.group_size * (n + 1) * 8
        slack = (64 << 10) + (geometry.group_size + 1) * n * 8

        def peak_of(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def stream():
            for ranges in workload.steps.ranges():
                for _, rows in ranges:
                    del rows
                del ranges

        stream_bytes = peak_of(stream)
        replay_bytes = peak_of(lambda: replay_plans(geometry, workload, plans))
        assert replay_bytes < stream_bytes + order_bytes + table_bytes + slack
        assert 2.1 * workload.window_scores.nbytes > order_bytes + slack  # the bound has teeth
