"""Experiment harness: budget sweep, rho sweep, masking study, cost model.

Each experiment consumes one ExperimentConfig and emits a list of row
dataclasses plus canonical CSV (and a JSON mirror). Rows are computed per
seed — all cells of a seed share the same corpus, score matrix and decode
workload, so comparisons are paired — and merged cell by cell, each cell's
rows in the config's seed order, which makes output bytes independent of
worker count. The masking study derives each masked cell's scores and decode
rows from the seed's one corpus and one decode workload instead of building
the masked model's own.

Seeding is hierarchical: the model seed is the cell seed, the random-plan
seed derives from (seed, budget), and fraction-specified planted heads derive
from the seed alone. Adding a policy or budget therefore never perturbs the
rows of existing cells.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from .allocator import AllocationConfig, POLICY_NAMES, allocate
from .artifacts import (
    Count, Field, ListOf, Number, String, check_fields, read_object, write_csv, write_json,
)
from .cache import replay_masked, replay_plans
from .chaser import (
    HeadScoreMatrix,
    aggregate_gqa_scores,
    chase_corpus,
    normalize_corpus,
    score_sample,
)
from .errors import InvalidInputError, SparseMMError
from .simmodel import (
    AttentionTrace,
    ModelGeometry,
    PlantedHeadSet,
    build_synthetic_model,
    generate_ocr_samples,
)

__all__ = [
    "CostRow",
    "ExperimentConfig",
    "MaskRow",
    "ResultRow",
    "load_config",
    "recovery_stats",
    "run_budget_sweep",
    "run_cost_model",
    "run_masking_study",
    "run_rho_sweep",
    "top_scored_heads",
    "write_rows_csv",
    "write_rows_json",
]

_PLANT_STREAM = 0x97AB

DEFAULT_COST_LENGTHS = (2048, 4096, 8192, 16384, 32768)


def _config(default, kind, key: str | None = None, nonempty: bool = False):
    """An ExperimentConfig field: default, kind and range, file key, and if it needs an entry."""
    return field(default=default, metadata={"kind": kind, "key": key, "nonempty": nonempty})


@dataclass(frozen=True)
class ExperimentConfig:
    """One JSON-loadable description of every experiment's inputs.

    planted_pairs pins the planted heads for all seeds; planted_fraction
    derives a per-seed set of round(fraction * layers * query_heads) heads
    (at least one). The masking study and the rho sweep use the first entry
    of budgets_per_head as their per-head budget.

    Each field declares, beside its default, its JSON kind and range, the one
    place they are written, and its key in a config file if that is not its
    name: the geometry and planted-head fields sit in their sections. Every
    config, from a file, from code or from `replace`, is held to that table,
    CONFIG_FIELDS, by `artifacts.check_fields`: its tuples as JSON lists, an
    unused planted form left out, and an error named by the field's key, as
    in "config: geometry.layers must be positive counts". The checks no
    table expresses follow: lists that need an entry, repeated entries, a
    prompt or a budget shorter than the window, exactly one planted form,
    and the model build.
    """

    layers: int = _config(8, Count(1), "geometry.layers")
    query_heads: int = _config(8, Count(1), "geometry.query_heads")
    kv_heads: int = _config(8, Count(1), "geometry.kv_heads")
    planted_pairs: tuple[tuple[int, int], ...] | None = _config(
        ((0, 1), (3, 4), (6, 2)), ListOf((Count(), Count())), "planted.pairs"
    )
    planted_fraction: float | None = _config(None, Number(0, 1), "planted.fraction")
    planted_strength: float = _config(0.8, Number(0, 1), "planted.strength")
    corpus_size: int = _config(40, Count(1))
    budgets_per_head: tuple[int, ...] = _config((48, 64, 128), ListOf(Count(1)), nonempty=True)
    rhos: tuple[float, ...] = _config((0.0, 0.1, 0.25, 0.5, 0.75, 1.0), ListOf(Number(0, 1)))
    policies: tuple[str, ...] = _config(POLICY_NAMES, ListOf(String(POLICY_NAMES)), nonempty=True)
    mask_fractions: tuple[float, ...] = _config(
        (0.0, 0.02, 0.05, 0.10), ListOf(Number(0, 1)), nonempty=True
    )
    # every seed is a model seed, so it lies in the model's seed range
    seeds: tuple[int, ...] = _config(tuple(range(10)), ListOf(Count(0, 2**32 - 1)), nonempty=True)
    prompt_len: int = _config(384, Count(1))
    out_len: int = _config(16, Count(1))
    window: int = _config(32, Count())
    rho: float = _config(0.1, Number(0, 1))
    cost_lengths: tuple[int, ...] = _config(DEFAULT_COST_LENGTHS, ListOf(Count(1)), nonempty=True)
    cost_out_len: int = _config(100, Count(1))
    cost_budget_per_head: int = _config(256, Count(1))

    def __post_init__(self) -> None:
        blob = {key: _thawed(getattr(self, f.name)) for key, f in _CONFIG_KEYS.items()}
        for form in ("planted.pairs", "planted.fraction"):  # None is the form not in use
            if blob[form] is None:
                del blob[form]
        check_fields(blob, CONFIG_FIELDS, "config")
        for f in fields(self):
            if f.metadata["nonempty"] and not getattr(self, f.name):
                raise InvalidInputError(f"{f.name} needs at least one entry")
        if self.prompt_len < self.window:
            raise InvalidInputError(
                f"prompt_len {self.prompt_len} shorter than window {self.window}"
            )
        for b in self.budgets_per_head:
            if b < self.window:
                raise InvalidInputError(
                    f"per-head budget {b} below the {self.window}-slot window"
                )
        for name in ("seeds", "budgets_per_head", "policies", "rhos", "mask_fractions"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise InvalidInputError(f"{name} repeats an entry")
        if (self.planted_pairs is None) == (self.planted_fraction is None):
            raise InvalidInputError(
                "specify exactly one of planted_pairs and planted_fraction"
            )
        # the geometry, pinned heads and strength, checked as every seed's model checks them
        pinned = PlantedHeadSet.uniform(self.planted_pairs or (), self.planted_strength)
        build_synthetic_model(self.geometry, pinned, 0)

    @property
    def geometry(self) -> ModelGeometry:
        return ModelGeometry(self.layers, self.query_heads, self.kv_heads)

    def planted_for_seed(self, seed: int) -> PlantedHeadSet:
        if self.planted_pairs is not None:
            return PlantedHeadSet.uniform(list(self.planted_pairs), self.planted_strength)
        total = self.layers * self.query_heads
        k = max(1, round(self.planted_fraction * total))
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), _PLANT_STREAM]))
        flat = rng.choice(total, size=k, replace=False)
        pairs = [(int(i) // self.query_heads, int(i) % self.query_heads) for i in flat]
        return PlantedHeadSet.uniform(pairs, self.planted_strength)


# a config file's geometry may give head_dim, which is checked, then ignored:
# no stage reads a head dimension, so no ExperimentConfig field holds it
_HEAD_DIM = Field("geometry.head_dim", Count(1), False)
# every ExperimentConfig field by its key in a config file
_CONFIG_KEYS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}
# the config file's table: every ExperimentConfig field under its key, and head_dim
CONFIG_FIELDS = (*(Field(k, f.metadata["kind"], False) for k, f in _CONFIG_KEYS.items()), _HEAD_DIM)


def _frozen(value):
    """A JSON list as a tuple, its lists as tuples too; any other value as it is."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _thawed(value):
    """A tuple or list as a JSON list, its items thawed too; any other value as it is."""
    return list(map(_thawed, value)) if isinstance(value, (tuple, list)) else value


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON object file; every error names the file once.

    The geometry and planted-head fields are spelled only inside their
    `geometry` and `planted` sections. Every key, `geometry.head_dim`
    included, is checked against CONFIG_FIELDS by one `check_fields` call, in
    the wording a config built in code gets, as in
    "config <path>: seeds[0] must lie in [0, 4294967295]"; the checks that
    ExperimentConfig adds are reported after the same prefix.
    """
    where = f"config {path}"
    blob = read_object(path, "config")
    geometry, planted = sections = [blob.pop(name, {}) for name in ("geometry", "planted")]
    for name, section in zip(("geometry", "planted"), sections):
        if not isinstance(section, dict):
            raise InvalidInputError(f"{where}: {name} must be a JSON object")
        blob |= {f"{name}.{key}": value for key, value in section.items()}
    unknown = sorted(blob.keys() - {field.name for field in CONFIG_FIELDS})
    if unknown:
        raise InvalidInputError(f"{where}: unknown config key {unknown[0]!r}")
    if geometry and not {"layers", "query_heads"} <= geometry.keys():
        raise InvalidInputError(f"{where}: geometry needs layers and query_heads")
    check_fields(blob, CONFIG_FIELDS, where)
    blob.pop(_HEAD_DIM.name, None)
    values = {_CONFIG_KEYS[key].name: _frozen(value) for key, value in blob.items()}
    if geometry:
        values.setdefault("kv_heads", values["query_heads"])
    if planted:  # a planted form the file does not give is unused; ExperimentConfig wants one
        values = {"planted_pairs": None, "planted_fraction": None} | values
    try:
        return ExperimentConfig(**values)
    except SparseMMError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ResultRow:
    """One (policy, budget, seed) cell of a sweep."""

    experiment: str
    policy: str
    budget_per_head: int
    total_budget: int
    rho: float
    seed: int
    mean_recall: float
    peak_slots: int
    slot_touches: int
    recovery_precision: float
    recovery_recall: float


@dataclass(frozen=True)
class MaskRow:
    """One (seed, fraction, mode) cell of the masking study."""

    seed: int
    fraction: float
    mode: str
    n_masked: int
    recovery_recall: float
    recovery_degradation: float
    grounding_mass: float
    grounding_degradation: float
    decode_recall: float
    decode_degradation: float


@dataclass(frozen=True)
class CostRow:
    """Closed-form slot accounting for one prompt length."""

    prompt_len: int
    out_len: int
    budget_per_head: int
    kv_heads_total: int
    full_peak_slots: int
    compressed_peak_slots: int
    peak_ratio: float
    full_slot_touches: int
    compressed_slot_touches: int
    touch_ratio: float
    cache_reduction: float


def top_scored_heads(scores: HeadScoreMatrix, k: int) -> list[tuple[int, int]]:
    """The k highest-scored (layer, query_head) pairs; ties to earlier indices."""
    order = np.argsort(-scores.scores.ravel(), kind="stable")[:k]
    heads = scores.heads
    return [(int(i) // heads, int(i) % heads) for i in order]


def recovery_stats(
    scores: HeadScoreMatrix, planted: PlantedHeadSet, k: int | None = None
) -> tuple[float, float]:
    """Precision and recall of the top-k scored heads against the planted set."""
    truth = set(planted.heads)
    if not truth:
        return 0.0, 0.0
    k = len(truth) if k is None else k
    found = set(top_scored_heads(scores, k)) & truth
    return len(found) / max(k, 1), len(found) / len(truth)


def _plan_seed(seed: int, budget: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(budget)]).generate_state(1)[0])


def _scores_for_seed(cfg: ExperimentConfig, seed: int):
    """Model and head scores for one seed; each sample is drawn as the chase reads it."""
    model = build_synthetic_model(cfg.geometry, cfg.planted_for_seed(seed), seed)
    scores, _ = chase_corpus(generate_ocr_samples(model, cfg.corpus_size, seed))
    return model, scores


def _plans(cfg: ExperimentConfig, scores: HeadScoreMatrix, seed: int, cells):
    """One budget plan per (policy, budget_per_head, rho) cell, all from one score matrix."""
    kv_scores = aggregate_gqa_scores(scores, cfg.geometry.group_size)
    n_kv = cfg.layers * cfg.kv_heads
    return [
        allocate(policy, AllocationConfig(budget * n_kv, cfg.window, rho), cfg.layers,
                 cfg.kv_heads, scores=kv_scores, seed=_plan_seed(seed, budget))
        for policy, budget, rho in cells
    ]


def _replay_seed_rows(cfg: ExperimentConfig, seed: int, experiment: str, cells) -> list[ResultRow]:
    """One row per (policy, budget_per_head, rho) cell."""
    model, scores = _scores_for_seed(cfg, seed)
    precision, recall = recovery_stats(scores, model.planted)
    workload = model.decode_workload(cfg.prompt_len, cfg.out_len, cfg.window)
    records = replay_plans(model.geometry, workload, _plans(cfg, scores, seed, cells))
    n_kv = cfg.layers * cfg.kv_heads
    return [
        ResultRow(experiment, policy, budget, budget * n_kv, rho, seed, record.mean_recall,
                  record.peak_slots, record.total_touches, precision, recall)
        for (policy, budget, rho), record in zip(cells, records)
    ]


class _PlantedRows:
    """A trace's steps, read once, that keep each step's planted rows as they pass.

    `score_sample` reads the steps through it; the grounding terms then need
    no second read, which would draw a drawn trace's steps again. `rows[t]`
    holds step t's rows of `heads`, in that order, (len(heads), visible).
    """

    def __init__(self, trace, heads):
        self.trace = trace
        self.heads = (trace.layers, trace.query_heads)
        self.index = tuple(np.array(heads, dtype=np.intp).reshape(-1, 2).T)
        self.rows = []

    def __len__(self) -> int:
        return self.trace.out_len

    def __iter__(self):
        for step in self.trace.steps:
            self.rows.append(step[self.index])
            yield step
            del step


def _grounding_terms(rows, result, planted: PlantedHeadSet):
    """(head, drawn, uniform) per scored step and planted head of one sample, in that order.

    `rows` holds each step's planted rows, as `_PlantedRows` keeps them, and
    `result` is the sample's `score_sample` result, which carries each
    token's patch positions. `drawn` is the attention mass the head's row
    places on the token's own patch set; `uniform` is the mass an exactly
    uniform (masked) row places there.
    """
    terms = []
    for kept, positions in zip(rows, result.positions):
        if positions is None:
            continue
        uniform = float(np.full(positions.size, 1.0 / kept.shape[1]).sum())
        for head, row in zip(planted.heads, kept, strict=True):
            terms.append((head, float(row[positions].sum()), uniform))
    return terms


def _grounding_mass(terms, masked) -> float:
    """Mean mass planted heads place on each token's own patch set; `masked` heads read uniform."""
    total = 0.0
    for head, drawn, uniform in terms:
        total += uniform if head in masked else drawn
    return total / len(terms) if terms else 0.0


def _masked_scores(summed: HeadScoreMatrix, masked) -> HeadScoreMatrix:
    """The corpus scores with the `masked` (layer, head) pairs' per-sample increments zeroed.

    `summed` is the corpus's summed increment. A masked head's sum of zeroed
    increments is exactly 0.0 and every other head's sum is unchanged, so
    zeroing the summed increment gives the same bits.
    """
    inc = summed.scores.copy()
    inc[tuple(np.array(masked, dtype=np.int64).reshape(-1, 2).T)] = 0.0
    return normalize_corpus(HeadScoreMatrix(inc, summed.corpus_tokens))


def _mask_seed_rows(cfg: ExperimentConfig, seed: int) -> list[MaskRow]:
    """One MaskRow per (fraction, mode) cell, every cell derived from one corpus and one workload.

    A masked model's corpus is, by definition (`simmodel`), this seed's
    corpus with the masked rows set to exactly 1/visible after every draw.
    Such a row's argmax is position 0, which is a text token in
    every sample (`simmodel.PRE_TEXT` starts at 2), so a masked head never
    scores and every skip decision is the same: the masked cell's scores are
    the seed's summed increment with the masked heads zeroed, normalized
    again, and its grounding mass reads each masked planted row as uniform.
    The corpus is read once: each step of each sample is drawn once, and it
    is scored and its planted rows are kept for the grounding terms as it
    passes. The decode half follows the same premise: one `decode_workload`
    call draws the window rows once and re-sums, per masked cell, only the kv
    groups that hold a masked head, and `replay_masked` reads the decode
    steps once for the base plan and every cell. `tests/mask_oracle.py`
    holds the regenerate-per-cell reference these rows equal.
    """
    model = build_synthetic_model(cfg.geometry, cfg.planted_for_seed(seed), seed)
    planted = model.planted
    total, tokens, terms = 0, 0, []
    for sample, trace in generate_ocr_samples(model, cfg.corpus_size, seed):
        steps = _PlantedRows(trace, planted.heads)
        result = score_sample(sample, AttentionTrace(steps, trace.prompt_len))
        total = total + result.increment.scores
        tokens += result.increment.corpus_tokens
        terms += _grounding_terms(steps.rows, result, planted)
    summed = HeadScoreMatrix(total, tokens)
    base_scores = _masked_scores(summed, [])

    n_heads = cfg.layers * cfg.query_heads
    cells = []  # (fraction, mode, n_mask, chosen heads)
    for fraction in cfg.mask_fractions:
        n_mask = round(fraction * n_heads)
        for mode in ("random", "top"):
            if n_mask == 0:
                chosen: list[tuple[int, int]] = []
            elif mode == "top":
                chosen = top_scored_heads(base_scores, n_mask)
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence([int(seed) + 1000, n_mask])
                )
                flat = rng.choice(n_heads, size=n_mask, replace=False)
                chosen = [
                    (int(i) // cfg.query_heads, int(i) % cfg.query_heads) for i in flat
                ]
            cells.append((float(fraction), mode, n_mask, chosen))

    # the base model first, then every cell that masks a head
    masks = [[]] + [chosen for *_, chosen in cells if chosen]
    scores = [_masked_scores(summed, chosen) if chosen else base_scores for chosen in masks]
    plan_cell = [("sparsemm", cfg.budgets_per_head[0], cfg.rho)]
    plans = [_plans(cfg, s, seed, plan_cell)[0] for s in scores]
    workload = model.decode_workload(cfg.prompt_len, cfg.out_len, cfg.window, masks[1:])
    records = replay_masked(model.geometry, workload, plans)
    measured = [
        (recovery_stats(s, planted)[1], _grounding_mass(terms, set(chosen)), record.mean_recall)
        for s, chosen, record in zip(scores, masks, records, strict=True)
    ]
    base_recovery, base_grounding, base_decode = measured[0]
    derived = iter(measured[1:])
    rows = []
    for fraction, mode, n_mask, chosen in cells:
        recovery, grounding, decode = next(derived) if chosen else measured[0]
        rows.append(
            MaskRow(
                seed,
                fraction,
                mode,
                n_mask,
                recovery,
                base_recovery - recovery,
                grounding,
                base_grounding - grounding,
                decode,
                base_decode - decode,
            )
        )
    return rows


def _merge_seed_lists(cfg: ExperimentConfig, fn, jobs: int):
    """fn's per-seed row lists, one per cell in order, merged cell-major."""
    runner = partial(fn, cfg)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_seed = list(pool.map(runner, cfg.seeds))
    else:
        per_seed = [runner(seed) for seed in cfg.seeds]
    return [row for rows in zip(*per_seed) for row in rows]


def run_budget_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """One paired ResultRow per (policy, budget, seed)."""
    cells = [(policy, b, cfg.rho) for policy in cfg.policies for b in cfg.budgets_per_head]
    return _merge_seed_lists(cfg, partial(_replay_seed_rows, experiment="sweep", cells=cells), jobs)


def run_rho_sweep(cfg: ExperimentConfig, jobs: int = 1) -> list[ResultRow]:
    """Sparsemm rows per (rho, seed) plus one uniform reference row per seed."""
    budget = cfg.budgets_per_head[0]
    cells = [("sparsemm", budget, float(rho)) for rho in cfg.rhos] + [("uniform", budget, 1.0)]
    return _merge_seed_lists(cfg, partial(_replay_seed_rows, experiment="rho", cells=cells), jobs)


def run_masking_study(cfg: ExperimentConfig, jobs: int = 1) -> list[MaskRow]:
    """Paired random-vs-top masking rows per (fraction, mode, seed)."""
    return _merge_seed_lists(cfg, _mask_seed_rows, jobs)


def run_cost_model(cfg: ExperimentConfig) -> list[CostRow]:
    """Closed-form peak-slot and slot-touch accounting per prompt length.

    Peak slots count one slot per retained key position per kv head, including
    generated tokens; touches count one read per query head per live slot per
    decode step. Constant model memory (weights, activations) is outside the
    proxy, so these ratios describe the cache alone, not whole-process memory.
    """
    out = cfg.cost_out_len
    b = cfg.cost_budget_per_head
    n_kv = cfg.layers * cfg.kv_heads
    n_q = cfg.layers * cfg.query_heads
    rows = []
    for lp in cfg.cost_lengths:
        kept = min(lp, b)
        full_peak = n_kv * (lp + out)
        comp_peak = n_kv * (kept + out)
        # sum over decode steps t of per-head live slots (prompt part + t)
        tail = out * (out - 1) // 2
        full_touch = n_q * (out * lp + tail)
        comp_touch = n_q * (out * kept + tail)
        rows.append(
            CostRow(
                lp,
                out,
                b,
                n_kv,
                full_peak,
                comp_peak,
                comp_peak / full_peak,
                full_touch,
                comp_touch,
                comp_touch / full_touch,
                1.0 - comp_peak / full_peak,
            )
        )
    return rows


def write_rows_csv(path, rows) -> None:
    """Canonical CSV: declared field order, repr floats, newline rows."""
    if not rows:
        raise InvalidInputError("refusing to write an empty result table")
    names = [f.name for f in fields(rows[0])]
    write_csv(path, names, (
        [repr(v) if isinstance(v, float) else v for v in asdict(row).values()] for row in rows
    ))


def write_rows_json(path, rows) -> None:
    """JSON mirror of the CSV rows."""
    write_json(path, [asdict(row) for row in rows])
