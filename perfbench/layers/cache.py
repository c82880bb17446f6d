"""cache: prefill compression (window scoring and top-k ranking) and decode steps."""

import weakref

import sparsemm.cache
import sparsemm.simmodel
from sparsemm import cli

from .simmodel import MIB

METRICS = {
    "cache.compress.calls": "count",
    "cache.compress.self_s": "s",
    "cache.keys_ranked": "count",
    "cache.clamped_heads": "count",
    "cache.rank_useful_ratio": "ratio",
    "cache.decode_step.calls": "count",
    "cache.decode_step.self_s": "s",
    "cache.decode_rows_mib": "MiB-computed",
}


def install(tr) -> None:
    # weak references to window tensors already ranked: a tensor ranked again
    # is wasted work, since the key order depends only on the tensor
    seen: list[weakref.ref] = []

    def ranked(result, window_attn, plan, w, *args, **kwargs):
        _, report = result
        layers, kv_heads = plan.budgets.shape
        if not report.scoring_skipped:
            tr.count("cache.keys_ranked", layers * kv_heads * (report.prompt_len - w))
        tr.count("cache.clamped_heads", sum(h.clamped for h in report.heads))
        seen[:] = [ref for ref in seen if ref() is not None]
        if not any(ref() is window_attn for ref in seen):
            seen.append(weakref.ref(window_attn))
            tr.count("cache.distinct_windows")

    def rows_mib(result, cache, full_rows, *args, **kwargs):
        tr.count("cache.decode_rows_mib", full_rows.nbytes / MIB)

    # make_plan_policy looks compress_prefill up in sparsemm.cache;
    # replay_decode looks decode_step up in sparsemm.simmodel
    for caller in (sparsemm.cache, cli):
        tr.wrap(caller, "compress_prefill", "cache.compress", ranked)
    tr.wrap(sparsemm.simmodel, "decode_step", "cache.decode_step", rows_mib)


def finish(fig: dict) -> None:
    calls = fig.get("cache.compress.calls", 0)
    fig["cache.rank_useful_ratio"] = fig.get("cache.distinct_windows", 0) / calls if calls else 0.0
