"""KV-cache eviction under a budget plan.

Compression happens once, at the end of prefill: the last w prompt queries
(the observation window) attend over every prompt key, their attention rows
are averaged per key position, and each head keeps its window plus the
top-(b - w) positions by that average. Generated tokens are never evicted.
Slots carry no value payloads here; a retained slot is a True entry of a
(layers, kv_heads, Lp) mask over prompt positions.

Under grouped-query attention the query heads sharing one kv head have their
window attentions summed before averaging, so selection happens per kv head.
Eviction itself takes those per-kv-head window scores, shape
(layers, kv_heads, Lp - w), never the window rows they come from.

`replay_plans` reads decode recall for many plans over one synthetic decode
workload. It keeps what `compress_prefill` keeps, by the same tie rule.
`replay_masked` reads it, in the same pass over the decode steps, for the
workload's model and for each masked model the workload derived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .artifacts import write_csv, write_json
from .errors import InvalidInputError, ShapeError
from .tensor import CausalMask, Matrix, matmul_scaled, softmax_row_masked

__all__ = [
    "DecodeRecord",
    "EvictionReport",
    "HeadEviction",
    "TopKSelection",
    "compress_prefill",
    "replay_masked",
    "replay_plans",
    "report_to_csv",
    "report_to_json",
    "select_topk",
    "sum_onto_kv_heads",
    "window_attention",
]


def window_attention(q_local: Matrix, k_all: Matrix) -> Matrix:
    """Attention of the last-w prompt queries over all Lp prompt keys.

    Equals the final w rows of full causal attention over the prompt; only
    those rows are ever computed.
    """
    w, lp = q_local.rows, k_all.rows
    if w > lp:
        raise InvalidInputError(f"window {w} exceeds prompt length {lp}")
    if q_local.cols != k_all.cols:
        raise ShapeError(
            f"head dims differ: q has {q_local.cols}, k has {k_all.cols}"
        )
    scores = matmul_scaled(q_local, k_all, 1.0 / math.sqrt(q_local.cols))
    return softmax_row_masked(scores, CausalMask(), lp - w)


class TopKSelection(NamedTuple):
    positions: np.ndarray
    clamped: bool


def _descending_order(scores: np.ndarray) -> np.ndarray:
    """Positions by descending score along the last axis; ties favor earlier positions.

    This is the program's one tie rule for key ranking.
    """
    if not np.isfinite(scores).all():
        raise InvalidInputError("scores must be finite")
    return np.argsort(-scores, axis=-1, kind="stable")


def select_topk(scores, k: int) -> TopKSelection:
    """Positions of the k largest scores, ascending; ties favor earlier positions.

    k larger than the vector clamps to its length and sets the flag.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError("select_topk expects a 1-D score vector")
    order = _descending_order(arr)
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    clamped = k > arr.size
    k = min(k, arr.size)
    return TopKSelection(np.sort(order[:k]), clamped)


def sum_onto_kv_heads(rows: np.ndarray, kv_heads: int) -> np.ndarray:
    """Sum (layers, query_heads, n) rows onto their kv heads, one query head at a time.

    Query head h belongs to kv head h // (query_heads // kv_heads). The sum
    runs in query-head order for every shape, so reducing window rows one at a
    time as they are drawn gives the same bits as reducing a stored tensor.
    """
    layers, query_heads, n = rows.shape
    grouped = rows.reshape(layers, kv_heads, query_heads // kv_heads, n)
    total = grouped[:, :, 0].copy()
    for k in range(1, grouped.shape[2]):
        total += grouped[:, :, k]
    return total


@dataclass(frozen=True)
class HeadEviction:
    """Retention outcome for one (layer, kv-head)."""

    layer: int
    kv_head: int
    budget: int
    kept: tuple[int, ...]
    clamped: bool


@dataclass(frozen=True)
class EvictionReport:
    """Per-head kept positions from one prefill."""

    prompt_len: int
    window: int
    heads: tuple[HeadEviction, ...]
    scoring_skipped: bool = False

    @property
    def total_kept(self) -> int:
        return sum(len(h.kept) for h in self.heads)


def _check_plan(plan, layers: int, kv_heads: int, w: int) -> None:
    """Reject a plan drawn for another window or (layers, kv_heads) shape, or below the w floor."""
    if plan.window != w:
        raise InvalidInputError(f"plan window {plan.window} != window {w}")
    if plan.budgets.shape != (layers, kv_heads):
        raise ShapeError(
            f"plan budgets {plan.budgets.shape} != (layers, kv_heads) {(layers, kv_heads)}"
        )
    if (plan.budgets < w).any():
        raise InvalidInputError("plan grants some head fewer than w slots")


def compress_prefill(
    window_scores, plan, w: int, prompt_len: int
) -> tuple[np.ndarray, EvictionReport]:
    """Retain, per kv head, the w-window plus the top (b - w) keys by window score.

    `window_scores` is (layers, kv_heads, Lp - w): each kv head's mean window
    attention per key left of the window, its query heads summed by
    `sum_onto_kv_heads`, as `SyntheticModel.decode_workload` draws them.
    Returns the (layers, kv_heads, Lp) bool mask of retained prompt positions
    and the report. Budgets at or above Lp keep the whole prompt. A prompt shorter
    than w keeps everything and skips scoring; its scores are
    (layers, kv_heads, 0). The plan must be drawn for window w and grant every
    head at least w slots, whatever the prompt length.
    """
    scores = np.asarray(window_scores, dtype=np.float64)
    if scores.ndim != 3:
        raise ShapeError("window_scores must be (layers, kv_heads, Lp - w)")
    layers, kv_heads, n = scores.shape
    lp = prompt_len
    _check_plan(plan, layers, kv_heads, w)
    if n != max(lp - w, 0):
        raise ShapeError(f"window_scores cover {n} keys, expected Lp - w = {max(lp - w, 0)}")

    skipped = lp < w
    kept = np.ones((layers, kv_heads, lp), dtype=bool)
    if not skipped:
        rank = np.argsort(_descending_order(scores), axis=-1)  # each key's place in the order
        kept[:, :, :n] = rank < (plan.budgets - w)[:, :, None]
    heads = []
    for l in range(layers):
        for j in range(kv_heads):
            b = int(plan.budgets[l, j])
            positions = tuple(np.flatnonzero(kept[l, j]).tolist())
            heads.append(HeadEviction(l, j, b, positions, not skipped and b > lp))
    return kept, EvictionReport(lp, w, tuple(heads), scoring_skipped=skipped)


@dataclass(frozen=True)
class DecodeRecord:
    """Per-step recall and slot accounting from one decode pass."""

    recall_per_step: np.ndarray
    slots_per_step: np.ndarray
    touches_per_step: np.ndarray
    peak_slots: int
    head_mean_recall: np.ndarray = field(repr=False)  # (layers, query_heads)

    @property
    def mean_recall(self) -> float:
        return float(self.recall_per_step.mean())

    @property
    def total_touches(self) -> int:
        return int(self.touches_per_step.sum())


def replay_plans(geometry, workload, plans) -> list[DecodeRecord]:
    """One DecodeRecord per budget plan over one decode workload, ranking its keys once.

    `workload` is a `simmodel.DecodeWorkload`; its `steps` are read once, in
    order, so a model-built workload has one step's rows in memory at a time.
    A plan keeps, per kv head, the window plus its best b - w ranked keys,
    which is what `compress_prefill` keeps, so every plan cuts the same key
    order. Each decode step builds one table of cumulative captured mass over
    the ranked keys,
    (layers, query_heads, Lp - w + 1); a plan's captured mass is window mass +
    generated mass + table[b - w]. A head with b >= Lp reads the row total, so
    its recall is exactly 1. Slot counts follow from min(b, Lp) alone.
    """
    return _replay(geometry, workload, plans, [None] * len(plans))


def replay_masked(geometry, workload, plans) -> list[DecodeRecord]:
    """One DecodeRecord over the workload's rows and one per masked head set, one pass.

    plans[0] is replayed over the workload's own rows, as `replay_plans`
    replays it, and plans[1 + i] over the rows of the workload's model with
    `workload.masked[i].heads` masked. Those rows are the workload's with
    each masked row set to exactly 1/(Lp + t), and their window scores
    differ only in the masked set's kv groups. So each step is read once:
    the table and the window and generated mass are built for every head,
    then, per masked set, again for its groups' rows alone, and spliced in.
    A record equals `replay_plans` on the masked model's own workload bit for
    bit, since each head's values come from the same rows by the same sums.
    """
    if len(plans) != 1 + len(workload.masked):
        raise InvalidInputError(
            f"{len(plans)} plans for 1 + {len(workload.masked)} masked head sets"
        )
    return _replay(geometry, workload, plans, [None, *workload.masked])


def _step_mass(rows: np.ndarray, order: np.ndarray, lp: int, table: np.ndarray):
    """Fill one step's captured-mass table; return the always-kept and total mass.

    `rows` is (groups, group_size, lp + t), each kv group's query rows, and
    `order` (groups, 1, n) the group's keys left of the window, best first.
    table[..., 1:] receives the prompt mass summed in that order (column 0
    stays 0), so keeping the best k keys captures table[..., k]. The window
    and generated mass is kept by every plan. Both returns are
    (groups, group_size).
    """
    n = order.shape[2]
    ranked = np.take_along_axis(rows[:, :, :lp], order, axis=2)
    np.cumsum(ranked, axis=2, out=table[:, :, 1:])
    always = rows[:, :, n:lp].sum(axis=2) + rows[:, :, lp:].sum(axis=2)
    return always, always + table[:, :, n]


def _replay(geometry, workload, plans, cells) -> list[DecodeRecord]:
    """`replay_plans` and `replay_masked`: plan p over the rows of `cells[p]`.

    A cell of None reads the workload's own rows; a `MaskedWindow` reads them
    with its heads masked, re-ranked and re-summed for its groups only.
    Arrays are held per kv group, (layers * kv_heads, group_size, ...), so a
    group's rows, table and masses are one index of the first axis.
    """
    layers, query_heads, kv_heads = geometry.layers, geometry.query_heads, geometry.kv_heads
    lp, w, out_len = workload.prompt_len, workload.window, workload.out_len
    for plan in plans:
        _check_plan(plan, layers, kv_heads, w)
    if workload.window_scores.shape != (layers, kv_heads, lp - w):
        raise ShapeError("workload window scores do not match the geometry")

    group = geometry.group_size
    n_groups = layers * kv_heads
    n = lp - w
    order = _descending_order(workload.window_scores).reshape(n_groups, 1, n)
    kept = [np.minimum(plan.budgets, lp) for plan in plans]
    # table index per query head: 0 keeps the window only, n keeps the prompt
    index = [np.repeat(k - w, group, axis=1).reshape(n_groups, group, 1) for k in kept]
    # per masked set: its groups' key order and a table for their rows alone
    masked = []
    for cell in cells:
        if cell is None:
            masked.append(None)
            continue
        if cell.scores.shape != (cell.groups.size, n):
            raise ShapeError("masked window scores do not match the workload")
        masked.append((cell, _descending_order(cell.scores)[:, None, :],
                       np.zeros((cell.groups.size, group, n + 1))))
    recalls = np.zeros((len(plans), out_len))
    head_acc = np.zeros((len(plans), layers, query_heads))
    # one table for every step: column 0 stays 0, the rest is rewritten per step
    table = np.zeros((n_groups, group, n + 1))
    t = -1
    for t, rows in enumerate(workload.steps):
        if t >= out_len or rows.shape != (layers, query_heads, lp + t):
            raise ShapeError(f"decode rows of step {t} do not match the geometry")
        grouped = rows.reshape(n_groups, group, lp + t)
        always, total = _step_mass(grouped, order, lp, table)
        for p, idx in enumerate(index):
            captured = np.take_along_axis(table, idx, axis=2)[:, :, 0]
            kept_mass, row_mass = always, total
            if masked[p] is not None:
                cell, cell_order, cell_table = masked[p]
                rows_of = grouped[cell.groups]
                rows_of[cell.rows] = 1.0 / (lp + t)
                kept_mass, row_mass = always.copy(), total.copy()
                kept_mass[cell.groups], row_mass[cell.groups] = _step_mass(
                    rows_of, cell_order, lp, cell_table
                )
                captured[cell.groups] = np.take_along_axis(
                    cell_table, idx[cell.groups], axis=2
                )[:, :, 0]
            recall = ((kept_mass + captured) / row_mass).reshape(layers, query_heads)
            recalls[p, t] = recall.mean()
            head_acc[p] += recall
    if t + 1 != out_len:
        raise ShapeError(f"workload yields {t + 1} decode steps, expected {out_len}")

    steps = np.arange(out_len, dtype=np.int64)
    records = []
    for p, k in enumerate(kept):
        base = int(k.sum())
        slots = base + steps * (layers * kv_heads)
        records.append(
            DecodeRecord(
                recalls[p],
                slots,
                group * slots,
                base + out_len * layers * kv_heads,
                head_acc[p] / out_len,
            )
        )
    return records


def report_to_json(report: EvictionReport, path) -> None:
    write_json(path, {
        "prompt_len": report.prompt_len,
        "window": report.window,
        "scoring_skipped": report.scoring_skipped,
        "total_kept": report.total_kept,
        "heads": [
            {
                "layer": h.layer,
                "kv_head": h.kv_head,
                "budget": h.budget,
                "kept": list(h.kept),
                "clamped": h.clamped,
            }
            for h in report.heads
        ],
    })


def report_to_csv(report: EvictionReport, path) -> None:
    write_csv(
        path,
        ["layer", "kv_head", "budget", "kept_count", "clamped", "kept_positions"],
        ([h.layer, h.kv_head, h.budget, len(h.kept), int(h.clamped), ";".join(map(str, h.kept))]
         for h in report.heads),
    )
