"""Slot-by-slot decode replay: the reference `cache.replay_plans` must match.

It keeps what `cache.compress_prefill` keeps, repeats each kv head's mask over
its query group, and scores every decode step against that mask: captured
mass is the masked prompt sum plus the generated sum, over the row total.
Slots are counted from the mask, not from budgets.
"""

import numpy as np

from sparsemm.cache import DecodeRecord, compress_prefill


def replay_plan(geometry, workload, plan) -> DecodeRecord:
    lp, w, out_len = workload.prompt_len, workload.window, workload.out_len
    assert plan.window == w, "plan and workload windows differ"
    kept, _ = compress_prefill(workload.window_scores, plan, w, lp)
    mask = np.repeat(kept, geometry.group_size, axis=1)
    recalls = np.zeros(out_len)
    head_acc = np.zeros((geometry.layers, geometry.query_heads))
    for t, rows in enumerate(workload.steps):
        prompt = rows[:, :, :lp]
        generated = rows[:, :, lp:].sum(axis=2)
        recall = ((prompt * mask).sum(axis=2) + generated) / (prompt.sum(axis=2) + generated)
        recalls[t] = recall.mean()
        head_acc += recall
    new_per_step = geometry.layers * geometry.kv_heads
    slots = int(kept.sum()) + np.arange(out_len, dtype=np.int64) * new_per_step
    peak = int(kept.sum()) + out_len * new_per_step
    return DecodeRecord(recalls, slots, geometry.group_size * slots, peak, head_acc / out_len)
