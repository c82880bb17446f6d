"""Decode replay records at a geometry the replay ranks in several chunks, pinned by sha256.

At 2 layers x 16 query heads over 4 kv heads, prompt 4096 and window 32, a
kv group's ranked keys are 4 x 4064 values, so `cache.RANK_CHUNK_VALUES`
(1 << 16) holds 4 of the 8 groups and each decode step is ranked and summed
in two chunks. The plans cover every policy at budgets from the window to
past the prompt, and a plan of mixed budgets. The masked head sets put their
kv groups in one chunk, in both chunks, in the whole second chunk, and in
every group. The digests were recorded before the replay was chunked across
plans, when it still built one prefix-sum table per step.

A second pin holds an MHA geometry, 4 layers x 8 heads (group size 1),
prompt 2080 and window 16: each step goes out as one range of all 32 kv
groups, and a chunk holds 31 of them, so one chunk gathers and sums many
groups and the last holds one. Its digests were recorded before the replay
gathered each group's ranked keys straight into the chunk table.
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


MHA = ModelGeometry(4, 8, 8)
MHA_PROMPT, MHA_OUT, MHA_WINDOW = 2080, 3, 16
MHA_MASKS = [
    [(0, 3)],  # group 3: the first chunk
    [(3, 7)],  # group 31: the last chunk, alone
    [(1, 0), (3, 7)],  # groups 8 and 31: one in each chunk
    [(l, h) for l in range(4) for h in range(8)],  # every group
]

MHA_DIGESTS = {
    "plans": "d1838637b40b81049d4a24e27a65de7f930ab4c89a9378f7de959da6a849e7c0",
    "masked": "f59c4a023bf77a1c96821924d6875848f26ee7aa9de8a349107bbc6928b10242",
}


@pytest.fixture(scope="module")
def mha_workload():
    planted = PlantedHeadSet.uniform([(0, 3), (2, 5), (3, 7)], 0.8)
    model = build_synthetic_model(MHA, planted, 62)
    return model.decode_workload(MHA_PROMPT, MHA_OUT, MHA_WINDOW, MHA_MASKS)


def test_mha_chunk_spans_many_groups(mha_workload):
    assert MHA.group_size == 1
    assert cache.RANK_CHUNK_VALUES // (MHA_PROMPT - MHA_WINDOW) == 31
    assert MHA.layers * MHA.kv_heads == 32
    ranges = [len(list(step)) for step in mha_workload.steps.ranges()]
    assert ranges == [1] * MHA_OUT


def test_mha_plan_records(mha_workload):
    layers, kv_heads = MHA.layers, MHA.kv_heads
    scores = HeadScoreMatrix(np.random.default_rng(62).random((layers, kv_heads)))
    plans = [
        allocate(policy, AllocationConfig(b * layers * kv_heads, MHA_WINDOW), layers, kv_heads,
                 scores, 62)
        for policy in POLICY_NAMES
        for b in (MHA_WINDOW, 40, 700, MHA_PROMPT, MHA_PROMPT + 5)
    ]
    mixed = np.random.default_rng(63).choice([MHA_WINDOW, 17, 1040, MHA_PROMPT, MHA_PROMPT + 5],
                                             size=(layers, kv_heads))
    plans.append(BudgetPlan(mixed, int(mixed.sum()), window=MHA_WINDOW))
    assert records_digest(replay_plans(MHA, mha_workload, plans)) == MHA_DIGESTS["plans"]


def test_mha_masked_records(mha_workload):
    budgets = np.random.default_rng(64).choice(
        [MHA_WINDOW, 200, 1500, MHA_PROMPT, MHA_PROMPT + 5], size=(1 + len(MHA_MASKS), 4, 8)
    )
    plans = [BudgetPlan(b, int(b.sum()), window=MHA_WINDOW) for b in budgets]
    assert records_digest(replay_masked(MHA, mha_workload, plans)) == MHA_DIGESTS["masked"]
