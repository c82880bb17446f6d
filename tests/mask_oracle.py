"""Regenerate-per-cell masking study: the reference `bench.run_masking_study` must equal.

For every masked cell it builds the masked model, generates and chases that
model's corpus again, sums grounding mass over the regenerated traces, and
builds and replays that model's own decode workload, so it relies on none of
the facts the derived study rests on. Rows come out as `run_masking_study`
emits them: cell-major, each cell's seeds in config order.
"""

import numpy as np

from sparsemm.allocator import AllocationConfig, allocate
from sparsemm.bench import MaskRow, recovery_stats, top_scored_heads
from sparsemm.cache import replay_plans
from sparsemm.chaser import aggregate_gqa_scores, chase_corpus, match_bbox_to_patches
from sparsemm.errors import DegenerateBoxError
from sparsemm.simmodel import build_synthetic_model, generate_ocr_samples, mask_heads


def grounding_mass(samples, planted) -> float:
    total = 0.0
    count = 0
    pairs = planted.heads
    if not pairs:
        return 0.0
    for sample, trace in samples:
        position_of = {patch: pos for pos, patch in enumerate(sample.prompt_layout) if patch >= 0}
        for t, step in enumerate(trace.steps):
            if t >= len(sample.pairs):
                break
            try:
                patches = match_bbox_to_patches(sample.pairs[t][1], sample.image_shape, sample.grid)
            except DegenerateBoxError:
                continue
            positions = np.array([position_of[p] for p in patches])
            for l, h in pairs:
                total += float(step[l, h, positions].sum())
                count += 1
    return total / count if count else 0.0


def decode_recall(cfg, model, scores) -> float:
    """Mean recall of the sparsemm plan for `scores` over `model`'s own decode workload."""
    budget = cfg.budgets_per_head[0] * cfg.layers * cfg.kv_heads
    plan = allocate("sparsemm", AllocationConfig(budget, cfg.window, cfg.rho), cfg.layers,
                    cfg.kv_heads, scores=aggregate_gqa_scores(scores, cfg.geometry.group_size))
    workload = model.decode_workload(cfg.prompt_len, cfg.out_len, cfg.window)
    (record,) = replay_plans(model.geometry, workload, [plan])
    return record.mean_recall


def mask_seed_rows(cfg, seed) -> list[MaskRow]:
    base_model = build_synthetic_model(cfg.geometry, cfg.planted_for_seed(seed), seed)
    base_samples = generate_ocr_samples(base_model, cfg.corpus_size, seed)
    base_scores, _ = chase_corpus(base_samples)
    planted = base_model.planted
    _, base_recovery = recovery_stats(base_scores, planted)
    base_grounding = grounding_mass(base_samples, planted)
    base_decode = decode_recall(cfg, base_model, base_scores)
    total = cfg.layers * cfg.query_heads
    rows = []
    for fraction in cfg.mask_fractions:
        n_mask = round(fraction * total)
        for mode in ("random", "top"):
            if n_mask == 0:
                chosen = []
            elif mode == "top":
                chosen = top_scored_heads(base_scores, n_mask)
            else:
                rng = np.random.default_rng(np.random.SeedSequence([int(seed) + 1000, n_mask]))
                flat = rng.choice(total, size=n_mask, replace=False)
                chosen = [(int(i) // cfg.query_heads, int(i) % cfg.query_heads) for i in flat]
            if chosen:
                model = mask_heads(base_model, chosen)
                samples = generate_ocr_samples(model, cfg.corpus_size, seed)
                scores, _ = chase_corpus(samples)
                _, recovery = recovery_stats(scores, planted)
                grounding = grounding_mass(samples, planted)
                decode = decode_recall(cfg, model, scores)
            else:
                recovery, grounding, decode = base_recovery, base_grounding, base_decode
            rows.append(MaskRow(
                seed, float(fraction), mode, n_mask,
                recovery, base_recovery - recovery,
                grounding, base_grounding - grounding,
                decode, base_decode - decode,
            ))
    return rows


def run_masking_study(cfg) -> list[MaskRow]:
    per_seed = [mask_seed_rows(cfg, seed) for seed in cfg.seeds]
    return [row for rows in zip(*per_seed) for row in rows]
