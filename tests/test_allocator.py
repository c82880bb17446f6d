"""Tests for the budget allocators: frozen arithmetic, oracles, invariants."""

import json
import math

import numpy as np
import pytest

from sparsemm.allocator import (
    AllocationConfig,
    BudgetPlan,
    POLICY_NAMES,
    allocate,
    allocate_adaptive_layer,
    allocate_pyramid,
    allocate_random,
    allocate_sparsemm,
    allocate_uniform,
    load_plan,
    save_plan,
)
from sparsemm.chaser import HeadScoreMatrix
from sparsemm.errors import InfeasibleBudgetError, InvalidInputError, ShapeError


def oracle_largest_remainder(targets, total):
    """Pure-python apportionment: floors, then +1 by fractional part desc, index asc."""
    flat = [float(x) for row in targets for x in row]
    base = [math.floor(x) for x in flat]
    deficit = total - sum(base)
    order = sorted(range(len(flat)), key=lambda i: (-(flat[i] - base[i]), i))
    for i in order[:deficit]:
        base[i] += 1
    return base


def oracle_divmod_split(total, n):
    """The equal split of `total` over n heads: divmod, one extra slot each to the earliest."""
    base, rem = divmod(total, n)
    return [base + 1] * rem + [base] * (n - rem)


def oracle_sparsemm(scores, budget, w, rho):
    """Independent script evaluation of the three-part split."""
    layers, heads = len(scores), len(scores[0])
    n = layers * heads
    remain1 = budget - n * w
    r = rho * remain1 / n
    remain2 = remain1 - rho * remain1
    total = sum(sum(row) for row in scores)
    if total > 0:
        targets = [[w + r + remain2 * s / total for s in row] for row in scores]
    else:
        targets = [[w + r + remain2 / n for _ in row] for row in scores]
    return oracle_largest_remainder(targets, budget)


def oracle_adaptive_layer(scores, budget, w):
    """The adaptive-layer split as first written, one loop per layer.

    Layer totals are the even split of B; within a layer every head gets w
    plus its score's share of the rest, or an even share when the row is zero.
    """
    layers, heads = scores.shape
    if budget < layers * heads * w:
        raise InfeasibleBudgetError(f"budget {budget} below the {w}-slot floors")
    layer_totals = oracle_largest_remainder([np.full(layers, budget / layers)], budget)
    rows = []
    for l, total in enumerate(layer_totals):
        extra = total - heads * w
        row_scores = scores[l]
        mass = float(row_scores.sum())
        if mass > 0.0:
            targets = w + extra * row_scores / mass
        else:
            targets = np.full(heads, w + extra / heads)
        rows += oracle_largest_remainder([targets], total)
    return rows


def random_scores(rng, layers, heads):
    return HeadScoreMatrix(rng.random((layers, heads)))


class TestSparsemmFrozen:
    def test_symmetric_case_all_64(self):
        plan = allocate_sparsemm(
            HeadScoreMatrix(np.full((2, 2), 0.5)),
            AllocationConfig(256, window=32, uniform_ratio=0.1),
        )
        assert plan.budgets.tolist() == [[64, 64], [64, 64]]

    def test_rho_zero_one_hot(self):
        plan = allocate_sparsemm(
            HeadScoreMatrix(np.array([[1.0, 0.0, 0.0, 0.0]])),
            AllocationConfig(256, window=32, uniform_ratio=0.0),
        )
        assert plan.budgets.tolist() == [[160, 32, 32, 32]]

    def test_rho_one_equals_uniform_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            layers, heads = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            w = int(rng.integers(0, 40))
            budget = layers * heads * w + int(rng.integers(0, 500))
            budget = max(budget, layers * heads)
            cfg = AllocationConfig(budget, window=w, uniform_ratio=1.0)
            got = allocate_sparsemm(random_scores(rng, layers, heads), cfg)
            want = allocate_uniform(cfg, layers, heads)
            assert got.budgets.tolist() == want.budgets.tolist()

    def test_tie_break_prefers_earlier_index(self):
        plan = allocate_sparsemm(
            HeadScoreMatrix(np.array([[1.5, 1.5, 1.0]])),
            AllocationConfig(4, window=0, uniform_ratio=0.0),
        )
        assert plan.budgets.tolist() == [[2, 1, 1]]

    def test_zero_scores_warns_and_splits_evenly(self):
        cfg = AllocationConfig(256, window=32, uniform_ratio=0.1)
        with pytest.warns(UserWarning):
            plan = allocate_sparsemm(HeadScoreMatrix.zeros(2, 2), cfg)
        assert plan.budgets.tolist() == [[64, 64], [64, 64]]

    def test_infeasible_budget_rejected(self):
        with pytest.raises(InfeasibleBudgetError):
            allocate_sparsemm(HeadScoreMatrix.zeros(2, 2), AllocationConfig(100, window=32))


class TestSparsemmProperties:
    def test_matches_script_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            layers, heads = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            w = int(rng.integers(0, 33))
            budget = layers * heads * w + int(rng.integers(1, 600))
            rho = float(rng.choice([0.0, 0.1, 0.25, 0.5, 1.0]))
            scores = random_scores(rng, layers, heads)
            plan = allocate_sparsemm(scores, AllocationConfig(budget, w, rho))
            want = oracle_sparsemm(scores.scores.tolist(), budget, w, rho)
            assert plan.budgets.ravel().tolist() == want

    def test_conservation_and_floor(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            layers, heads = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            w = int(rng.integers(0, 33))
            n = layers * heads
            budget = n * w + int(rng.integers(0, 1000))
            budget = max(budget, max(n, 1))
            rho = float(rng.random())
            plan = allocate_sparsemm(random_scores(rng, layers, heads), AllocationConfig(budget, w, rho))
            assert int(plan.budgets.sum()) == budget
            r = rho * (budget - n * w) / n
            assert (plan.budgets >= w + math.floor(r)).all()

    def test_score_monotonicity(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            scores = random_scores(rng, 3, 4)
            plan = allocate_sparsemm(scores, AllocationConfig(600, 16, 0.2))
            s = scores.scores.ravel()
            b = plan.budgets.ravel()
            for i in range(len(s)):
                for j in range(len(s)):
                    if s[i] > s[j]:
                        assert b[i] >= b[j]

    def test_scale_invariance_dyadic(self):
        rng = np.random.default_rng(36)
        scores = random_scores(rng, 2, 4)
        cfg = AllocationConfig(512, 32, 0.1)
        base = allocate_sparsemm(scores, cfg).budgets
        for factor in (0.25, 0.5, 2.0, 8.0):
            scaled = HeadScoreMatrix(scores.scores * factor)
            assert allocate_sparsemm(scaled, cfg).budgets.tolist() == base.tolist()


class TestUniform:
    def test_frozen_example(self):
        plan = allocate_uniform(AllocationConfig(10, window=0), 1, 4)
        assert plan.budgets.tolist() == [[3, 3, 2, 2]]

    def test_remainder_spread_layer_major(self):
        plan = allocate_uniform(AllocationConfig(10, window=0), 2, 2)
        assert plan.budgets.tolist() == [[3, 3], [2, 2]]

    def test_conservation(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            layers, heads = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            budget = int(rng.integers(layers * heads, 2000))
            plan = allocate_uniform(AllocationConfig(budget, window=0), layers, heads)
            assert int(plan.budgets.sum()) == budget
            assert plan.budgets.max() - plan.budgets.min() <= 1

    def test_infeasible(self):
        with pytest.raises(InfeasibleBudgetError):
            allocate_uniform(AllocationConfig(3, window=0), 2, 2)


class TestPyramid:
    def test_frozen_two_layer_schedule(self):
        plan = allocate_pyramid(AllocationConfig(300, window=32), 2, 2)
        assert plan.budgets.tolist() == [[90, 89], [61, 60]]

    def test_single_layer_equals_uniform(self):
        cfg = AllocationConfig(300, window=32)
        assert (
            allocate_pyramid(cfg, 1, 4).budgets.tolist()
            == allocate_uniform(cfg, 1, 4).budgets.tolist()
        )

    def test_layer_totals_non_increasing(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            layers, heads = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            w = int(rng.integers(0, 33))
            budget = layers * heads * w + int(rng.integers(0, 800))
            budget = max(budget, max(layers * heads, 1))
            plan = allocate_pyramid(AllocationConfig(budget, window=w), layers, heads)
            totals = plan.budgets.sum(axis=1)
            assert (np.diff(totals) <= 0).all()
            assert int(plan.budgets.sum()) == budget
            assert (plan.budgets >= w).all()


class TestEqualSplitOracle:
    """Equal targets rounded by largest remainder give exactly the divmod split."""

    @staticmethod
    def _geometry(rng):
        layers, heads = int(rng.integers(1, 71)), int(rng.integers(1, 71))
        # spread over magnitudes: budgets from barely feasible up to 2**31
        return layers, heads, int(rng.integers(0, 2 ** int(rng.integers(1, 31))))

    def test_uniform_matches_divmod_split(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            layers, heads, spare = self._geometry(rng)
            n = layers * heads
            budget = min(n + spare, 2**31 - 1)
            plan = allocate_uniform(AllocationConfig(budget, window=0), layers, heads)
            assert plan.budgets.ravel().tolist() == oracle_divmod_split(budget, n)

    def test_pyramid_matches_divmod_rows(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            layers, heads, spare = self._geometry(rng)
            n, w = layers * heads, int(rng.integers(0, 65))
            budget = min(n * w + spare, 2**31 - 1)
            plan = allocate_pyramid(AllocationConfig(budget, window=w), layers, heads)
            weights = [float(layers - l) for l in range(layers)]
            targets = [heads * w + (budget - n * w) * wt / sum(weights) for wt in weights]
            totals = oracle_largest_remainder([targets], budget)
            want = [b for total in totals for b in oracle_divmod_split(total, heads)]
            assert plan.budgets.ravel().tolist() == want


class TestRandom:
    def test_same_seed_identical(self):
        cfg = AllocationConfig(256, 32, 0.1)
        a = allocate_random(cfg, 2, 2, seed=7)
        b = allocate_random(cfg, 2, 2, seed=7)
        assert a.budgets.tolist() == b.budgets.tolist()
        assert a.allocator == "random"

    def test_different_seeds_differ(self):
        cfg = AllocationConfig(256, 32, 0.1)
        assert (
            allocate_random(cfg, 2, 2, seed=0).budgets.tolist()
            != allocate_random(cfg, 2, 2, seed=1).budgets.tolist()
        )

    def test_monte_carlo_mean_near_even_split(self):
        cfg = AllocationConfig(256, 32, 0.1)
        acc = np.zeros((2, 2))
        for seed in range(1000):
            acc += allocate_random(cfg, 2, 2, seed=seed).budgets
        mean = acc / 1000
        assert np.abs(mean - 64.0).max() <= 0.02 * 64.0


class TestAdaptiveLayer:
    def test_equal_scores_divisible_matches_uniform(self):
        cfg = AllocationConfig(256, window=32)
        got = allocate_adaptive_layer(HeadScoreMatrix(np.full((2, 2), 0.3)), cfg)
        want = allocate_uniform(cfg, 2, 2)
        assert got.budgets.tolist() == want.budgets.tolist()

    def test_dominant_head_takes_layer_extra(self):
        plan = allocate_adaptive_layer(
            HeadScoreMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])),
            AllocationConfig(256, window=32),
        )
        assert plan.budgets.tolist() == [[96, 32], [32, 96]]

    def test_layer_totals_equalized(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            layers, heads = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            w = int(rng.integers(0, 17))
            budget = layers * heads * w + int(rng.integers(0, 500))
            budget = max(budget, max(layers * heads, 1))
            plan = allocate_adaptive_layer(
                random_scores(rng, layers, heads), AllocationConfig(budget, window=w)
            )
            totals = plan.budgets.sum(axis=1)
            assert int(totals.sum()) == budget
            assert totals.max() - totals.min() <= 1
            assert (plan.budgets >= w).all()

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for case in range(300):
            layers, heads = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            n, w = layers * heads, int(rng.integers(0, 65))
            scores = rng.random((layers, heads))
            if case % 3 == 1:
                scores[rng.random(layers) < 0.5] = 0.0  # zero rows
            elif case % 3 == 2:
                scores[:] = 0.0
            # exactly the floors, a few slots over, or far over
            spare = rng.choice([0, int(rng.integers(1, 2 * layers)), int(rng.integers(0, 2**20))])
            budget = max(n * w + int(spare), 1)
            cfg = AllocationConfig(budget, window=w)
            plan = allocate_adaptive_layer(HeadScoreMatrix(scores), cfg)
            assert plan.budgets.ravel().tolist() == oracle_adaptive_layer(scores, budget, w)
            if n * w > 1:
                short = AllocationConfig(int(rng.integers(1, n * w)), window=w)
                with pytest.raises(InfeasibleBudgetError):
                    oracle_adaptive_layer(scores, short.total_budget, w)
                with pytest.raises(InfeasibleBudgetError):
                    allocate_adaptive_layer(HeadScoreMatrix(scores), short)


class TestDispatch:
    def test_policy_names(self):
        assert POLICY_NAMES == ("sparsemm", "uniform", "pyramid", "random", "ada")

    def test_unknown_policy(self):
        with pytest.raises(InvalidInputError):
            allocate("magic", AllocationConfig(64, 0), 2, 2)

    def test_score_policy_requires_scores(self):
        with pytest.raises(InvalidInputError):
            allocate("sparsemm", AllocationConfig(256), 2, 2)

    def test_score_shape_checked(self):
        with pytest.raises(ShapeError):
            allocate("ada", AllocationConfig(256), 2, 2, scores=HeadScoreMatrix.zeros(3, 2))

    @pytest.mark.parametrize("policy", ["sparsemm", "ada"])
    @pytest.mark.parametrize("shape", [(0, 4), (2, 0)])
    def test_empty_score_matrix_rejected(self, policy, shape):
        with pytest.raises(InvalidInputError, match="at least 1"):
            allocate(policy, AllocationConfig(64, 0), *shape, scores=HeadScoreMatrix.zeros(*shape))

    def test_dispatch_matches_direct_calls(self):
        cfg = AllocationConfig(256, 32, 0.1)
        scores = HeadScoreMatrix(np.random.default_rng(8).random((2, 2)))
        assert (
            allocate("sparsemm", cfg, 2, 2, scores=scores).budgets.tolist()
            == allocate_sparsemm(scores, cfg).budgets.tolist()
        )
        assert (
            allocate("random", cfg, 2, 2, seed=3).budgets.tolist()
            == allocate_random(cfg, 2, 2, 3).budgets.tolist()
        )


class TestPlanValidationAndIO:
    def test_sum_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            BudgetPlan(np.array([[1, 2]]), total_budget=4)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidInputError):
            BudgetPlan(np.array([[1.5, 2.5]]), total_budget=4)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            BudgetPlan(np.array([[-1, 5]]), total_budget=4)

    def test_round_trip(self, tmp_path):
        scores = HeadScoreMatrix(np.random.default_rng(10).random((2, 3)))
        plan = allocate_sparsemm(scores, AllocationConfig(300, 16, 0.25))
        path = tmp_path / "plan.json"
        save_plan(path, plan)
        back = load_plan(path)
        assert back.budgets.tolist() == plan.budgets.tolist()
        assert back.total_budget == plan.total_budget
        assert back.window == plan.window
        assert back.uniform_ratio == plan.uniform_ratio
        assert back.allocator == plan.allocator

    def test_file_with_retired_score_file_hash_loads(self, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(path, allocate_uniform(AllocationConfig(40, window=8), 1, 2))
        saved = path.read_bytes()
        blob = json.loads(saved)
        assert set(blob) == {"budget_B", "w", "rho", "plan", "allocator"}
        path.write_text(json.dumps(blob | {"score_file_hash": "ab" * 32}))
        save_plan(tmp_path / "again.json", load_plan(path))
        assert (tmp_path / "again.json").read_bytes() == saved

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            AllocationConfig(0)
        with pytest.raises(InvalidInputError):
            AllocationConfig(10, window=-1)
        with pytest.raises(InvalidInputError):
            AllocationConfig(10, uniform_ratio=1.5)
