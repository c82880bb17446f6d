"""Decode replay records at a geometry the replay ranks in several chunks, pinned by sha256.

At 2 layers x 16 query heads over 4 kv heads, prompt 4096 and window 32, a
kv group's ranked keys are 4 x 4064 values, so `cache.RANK_CHUNK_VALUES`
(1 << 16) holds 4 of the 8 groups and each decode step is ranked and summed
in two chunks. The plans cover every policy at budgets from the window to
past the prompt, and a plan of mixed budgets. The masked head sets put their
kv groups in one chunk, in both chunks, in the whole second chunk, and in
every group. The digests were recorded before the replay was chunked across
plans, when it still built one prefix-sum table per step.
"""

import hashlib

import numpy as np
import pytest

from sparsemm import cache
from sparsemm.allocator import POLICY_NAMES, AllocationConfig, BudgetPlan, allocate
from sparsemm.cache import replay_masked, replay_plans
from sparsemm.chaser import HeadScoreMatrix
from sparsemm.simmodel import ModelGeometry, PlantedHeadSet, build_synthetic_model

GEOMETRY = ModelGeometry(2, 16, 4)
PROMPT, OUT, WINDOW = 4096, 3, 32
MASKS = [
    [(0, 1)],  # group 0: the first chunk
    [(0, 2), (1, 13)],  # groups 0 and 7: one in each chunk
    [(1, h) for h in range(16)],  # groups 4-7: the whole second chunk
    [(l, h) for l in range(2) for h in range(16)],  # every group
]

DIGESTS = {
    "plans": "780118997245add59a95b51b05edf8e5633406fef8e9848d06a6220b1b180bac",
    "masked": "74e4120918c7947dc47693de4c298053371c614f7dbec8ce42e214cb8a9abb1a",
}


def records_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        for arr in (record.recall_per_step, record.slots_per_step, record.touches_per_step,
                    record.head_mean_recall):
            digest.update(repr(arr.shape).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr(record.peak_slots).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def workload():
    planted = PlantedHeadSet.uniform([(0, 1), (0, 9), (1, 14)], 0.8)
    model = build_synthetic_model(GEOMETRY, planted, 60)
    return model.decode_workload(PROMPT, OUT, WINDOW, MASKS)


def test_workload_ranks_in_several_chunks():
    group_values = GEOMETRY.group_size * (PROMPT - WINDOW)
    assert cache.RANK_CHUNK_VALUES // group_values == 4
    assert GEOMETRY.layers * GEOMETRY.kv_heads == 8


def test_plan_records(workload):
    layers, kv_heads = GEOMETRY.layers, GEOMETRY.kv_heads
    scores = HeadScoreMatrix(np.random.default_rng(60).random((layers, kv_heads)))
    plans = [
        allocate(policy, AllocationConfig(b * layers * kv_heads, WINDOW), layers, kv_heads,
                 scores, 60)
        for policy in POLICY_NAMES
        for b in (WINDOW, 96, 1024, PROMPT, PROMPT + 3)
    ]
    mixed = np.array([[WINDOW, 500, PROMPT, 2000], [PROMPT + 3, 33, 1024, 4000]])
    plans.append(BudgetPlan(mixed, int(mixed.sum()), window=WINDOW))
    assert records_digest(replay_plans(GEOMETRY, workload, plans)) == DIGESTS["plans"]


def test_masked_records(workload):
    budgets = np.random.default_rng(61).choice(
        [WINDOW, 300, 2048, PROMPT, PROMPT + 3], size=(1 + len(MASKS), 2, 4)
    )
    plans = [BudgetPlan(b, int(b.sum()), window=WINDOW) for b in budgets]
    assert records_digest(replay_masked(GEOMETRY, workload, plans)) == DIGESTS["masked"]
