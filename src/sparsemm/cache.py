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
workload's model and for each masked model the workload derived. Every masked
set's kv groups are read together, sorted by kv group (`sort_groups`), so a
range of a step costs the same few numpy calls for six sets as for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .artifacts import write_csv, write_json
from .errors import InvalidInputError, ShapeError

if TYPE_CHECKING:
    from .tensor import Matrix

__all__ = [
    "DecodeRecord",
    "EvictionReport",
    "HeadEviction",
    "TopKSelection",
    "compress_prefill",
    "groups_in_range",
    "replay_masked",
    "replay_plans",
    "report_to_csv",
    "report_to_json",
    "select_topk",
    "sort_groups",
    "sum_onto_kv_heads",
    "window_attention",
]


def window_attention(q_local: Matrix, k_all: Matrix) -> Matrix:
    """Attention of the last-w prompt queries over all Lp prompt keys.

    Equals the final w rows of full causal attention over the prompt; only
    those rows are ever computed. No pipeline path calls it, so `tensor` is
    imported only here.
    """
    from .tensor import CausalMask, matmul_scaled, softmax_row_masked

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


# values in one chunk of ranked keys: `_key_order` ranks, and `_step_mass` gathers and
# sums, this many at a time
RANK_CHUNK_VALUES = 1 << 16


def _key_order(scores: np.ndarray) -> np.ndarray:
    """`_descending_order` of (groups, n) scores, ranked a chunk of groups at a time.

    The order is held in the narrowest unsigned dtype that holds n - 1, so
    uint16 for n up to 65536; only a chunk of about RANK_CHUNK_VALUES values
    is ever held as negated scores and intp positions.
    """
    groups, n = scores.shape
    order = np.empty((groups, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    chunk = max(1, RANK_CHUNK_VALUES // max(n, 1))
    for start in range(0, groups, chunk):
        order[start : start + chunk] = _descending_order(scores[start : start + chunk])
    return order


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


def groups_in_range(groups: np.ndarray, start: int, stop: int, n_groups: int) -> slice:
    """The part of `groups`, ascending kv-group indices of n_groups, that lies in [start, stop)."""
    if stop - start == n_groups:
        return slice(None)
    return slice(*np.searchsorted(groups, (start, stop)))


def sort_groups(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every cell's kv groups in one array sorted by kv group, to read them all at once.

    Each cell holds ascending `groups` and their (k, group_size) `rows`.
    Returns (at, groups, rows): the cells' groups and rows, concatenated in
    cell order and then sorted by kv group, ties in cell order, where sorted
    entry j is concatenated entry at[j].
    """
    groups = np.concatenate([cell.groups for cell in cells])
    at = np.argsort(groups, kind="stable")
    return at, groups[at], np.concatenate([cell.rows for cell in cells])[at]


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
        # the key in place i of a head's order is kept when i < b - w
        order = _key_order(scores.reshape(layers * kv_heads, n)).reshape(layers, kv_heads, n)
        np.put_along_axis(kept[:, :, :n], order, np.arange(n) < (plan.budgets - w)[:, :, None], 2)
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
    order, and a model-built workload's a tile of kv groups at a time, so
    one tile and the groups that hold a planted head are in memory, not a step.
    A plan keeps, per kv head, the window plus its best b - w ranked keys,
    which is what `compress_prefill` keeps, so every plan cuts the same key
    order, ranked a chunk of kv groups at a time into uint16 keys for any
    Lp - w up to 65536 (`_key_order`). Each decode step is ranked a chunk of
    kv groups at a time: the chunk's keys are summed in ranked order into one
    scratch table of cumulative captured mass, (chunk, group_size, Lp - w + 1),
    and every plan reads its captured mass for those groups there, with one
    flat `take`, before the next chunk is summed; a plan's kept mass is
    window mass + generated mass + table[b - w]. No table of the whole step
    is built. A head with b >= Lp reads the row total, so its recall is
    exactly 1. Slot counts follow from min(b, Lp) alone.
    """
    return _replay(geometry, workload, plans, [None] * len(plans))


def replay_masked(geometry, workload, plans) -> list[DecodeRecord]:
    """One DecodeRecord over the workload's rows and one per masked head set, one pass.

    plans[0] is replayed over the workload's own rows, as `replay_plans`
    replays it, and plans[1 + i] over the rows of the workload's model with
    `workload.masked[i].heads` masked. Those rows are the workload's with
    each masked row set to exactly 1/(Lp + t), and their window scores
    differ only in the masked set's kv groups. So each step is read once:
    the captured, window and generated mass are read for every head, then
    again for the rows of every masked set's groups at once, through the same
    chunk scratch, and each set's are spliced in.
    A record equals `replay_plans` on the masked model's own workload bit for
    bit, since each head's values come from the same rows by the same sums.
    """
    if len(plans) != 1 + len(workload.masked):
        raise InvalidInputError(
            f"{len(plans)} plans for 1 + {len(workload.masked)} masked head sets"
        )
    return _replay(geometry, workload, plans, [None, *workload.masked])


def _step_mass(rows, order, lp, index, scratch, always, total, captured, groups=None,
               masked_rows=None) -> None:
    """A range of one step's always-kept, prompt-total and captured mass, a chunk at a time.

    `rows` is (groups, group_size, lp + t), consecutive kv groups' query rows,
    and `order` (k, n) the keys left of the window, best first, in any
    unsigned dtype, for k groups: every group of `rows`, or `rows[groups]`
    with `masked_rows` (k, group_size) set to 1/(lp + t). `index`
    (k, group_size, plans) holds each plan's count of kept ranked keys. Per
    chunk of whole groups, about RANK_CHUNK_VALUES values, each group's keys
    are gathered in ranked order into `scratch` (chunk, group_size, n + 1)
    and summed along each row there, so neither chunks nor ranges move a bit;
    column 0 stays 0, so keeping the best j keys captures scratch[..., j], and
    the prompt total is the last column. Writes the window and generated
    mass, which every plan keeps, into `always`, the row total into `total`,
    and each plan's captured mass into `captured`, gathered from the flat
    scratch with one `take`.
    """
    n = order.shape[1]
    # each query head's row offset in the flat scratch, to read captured mass with one take
    row_at = np.arange(0, scratch.size, n + 1).reshape(*scratch.shape[:2], 1)
    for start in range(0, order.shape[0], scratch.shape[0]):
        part = slice(start, start + scratch.shape[0])
        if groups is None:
            block = rows[part]
        else:
            block = rows[groups[part]]
            block[masked_rows[part]] = 1.0 / rows.shape[2]
        table = scratch[: block.shape[0]]
        ranked = table[:, :, 1:]
        # argsort keys and plan indices are in range, so "clip" clips none; it measured
        # faster than "raise"
        for i, keys in enumerate(order[part]):
            block[i].take(keys, axis=1, out=ranked[i], mode="clip")
        np.cumsum(ranked, axis=2, out=ranked)
        always[part] = block[:, :, n:lp].sum(axis=2) + block[:, :, lp:].sum(axis=2)
        total[part] = always[part] + table[:, :, n]
        table.take(index[part] + row_at[: len(block)], out=captured[part], mode="clip")


def _step_ranges(steps, layers: int, query_heads: int, group: int):
    """Per decode step, its rows as (first kv group, (groups, group_size, Lp + t)) ranges.

    A `simmodel.DecodeSteps` draws each step a tile of kv groups at a time
    and hands on the groups with a planted head last; any other iterable of
    whole (layers, query_heads, Lp + t) steps gives one range per step.
    """
    if hasattr(steps, "ranges"):
        yield from steps.ranges()
        return
    t = 0
    for rows in steps:
        if rows.shape[:2] != (layers, query_heads):
            raise ShapeError(f"decode rows of step {t} do not match the geometry")
        yield ((0, rows.reshape(-1, group, rows.shape[2])),)
        del rows
        t += 1


def _replay(geometry, workload, plans, cells) -> list[DecodeRecord]:
    """`replay_plans` and `replay_masked`: plan p over the rows of `cells[p]`.

    A cell of None reads the workload's own rows; a `MaskedWindow` reads them
    with its heads masked, re-ranked and re-summed for its groups only.
    Arrays are held per kv group, (layers * kv_heads, group_size, ...), so a
    group's rows and masses are one index of the first axis. The masked sets'
    groups are sorted together by kv group (`sort_groups`), a group that
    several sets share once per set, and their scores ranked in one
    `_key_order` call. Each step is read as a stream of kv-group ranges
    (`_step_ranges`), and `_step_mass` reads each range as it comes: once for
    the base rows and once for every masked set's groups in it. Each group's
    masses come from its own rows by its own sums, whichever groups share
    its chunk, so a set's bits do not depend on the other sets. Per plan,
    its set's masses are spliced into the step's base masses through the
    sort's permutation; the recall mean and the per-head sums are taken over
    them whole. One chunk-sized scratch table serves every range and masked
    set, so a model-built workload's step is never held whole: one tile of
    groups and the groups that hold a planted head are.
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
    order = _key_order(workload.window_scores.reshape(n_groups, n))
    kept = [np.minimum(plan.budgets, lp) for plan in plans]
    # scratch index per query head and plan: 0 keeps the window only, n keeps the prompt
    index = np.empty((n_groups, group, len(plans)), dtype=np.intp)
    for p, k in enumerate(kept):
        index[:, :, p] = np.repeat(k - w, group, axis=1).reshape(n_groups, group)
    # one step's masses per head: always kept, row total, captured per plan
    always = np.empty((n_groups, group))
    total = np.empty_like(always)
    captured = np.empty((n_groups, group, len(plans)))
    sets = [p for p, cell in enumerate(cells) if cell is not None]
    for p in sets:
        if cells[p].scores.shape != (cells[p].groups.size, n):
            raise ShapeError("masked window scores do not match the workload")
    if sets:
        # every masked set's groups at once, sorted by kv group: their key order,
        # their plans' scratch index and their masses, each set's taken back by `where`
        at, set_groups, set_rows = sort_groups([cells[p] for p in sets])
        set_order = _key_order(np.concatenate([cells[p].scores for p in sets])[at])
        sizes = [cells[p].groups.size for p in sets]
        set_index = index[set_groups, :, np.repeat(sets, sizes)[at]][:, :, None]
        set_masses = (np.empty((at.size, group)), np.empty((at.size, group)),
                      np.empty((at.size, group, 1)))
        back = np.empty_like(at)
        back[at] = np.arange(at.size)
        where = dict(zip(sets, np.split(back, np.cumsum(sizes)[:-1])))
    recalls = np.zeros((len(plans), out_len))
    head_acc = np.zeros((len(plans), layers, query_heads))
    # one chunk's table for every range and cell, about RANK_CHUNK_VALUES values
    # and at least one group: column 0 stays 0, the rest is rewritten
    chunk = min(max(1, RANK_CHUNK_VALUES // max(group * n, 1)), n_groups)
    scratch = np.zeros((chunk, group, n + 1))
    # steps are counted by hand and dropped at the end of the body, so no
    # reference to step t outlives it while step t + 1 is drawn
    t = 0
    for ranges in _step_ranges(workload.steps, layers, query_heads, group):
        covered = 0
        for start, rows in ranges:
            stop = start + rows.shape[0]
            if t >= out_len or rows.shape[1:] != (group, lp + t) or stop > n_groups:
                raise ShapeError(f"decode rows of step {t} do not match the geometry")
            covered += rows.shape[0]
            part = slice(start, stop)
            _step_mass(rows, order[part], lp, index[part], scratch, always[part], total[part],
                       captured[part])
            if sets:
                cut = groups_in_range(set_groups, start, stop, n_groups)
                _step_mass(rows, set_order[cut], lp, set_index[cut], scratch,
                           *(m[cut] for m in set_masses), set_groups[cut] - start, set_rows[cut])
            del rows
        if covered != n_groups:
            raise ShapeError(f"decode rows of step {t} do not match the geometry")
        for p in range(len(plans)):
            kept_mass, row_mass, got = always, total, captured[:, :, p]
            if cells[p] is not None:
                groups, mine = cells[p].groups, where[p]
                kept_mass, row_mass, got = always.copy(), total.copy(), got.copy()
                kept_mass[groups] = set_masses[0][mine]
                row_mass[groups] = set_masses[1][mine]
                got[groups] = set_masses[2][mine, :, 0]
            recall = ((kept_mass + got) / row_mass).reshape(layers, query_heads)
            recalls[p, t] = recall.mean()
            head_acc[p] += recall
        del ranges
        t += 1
    if t != out_len:
        raise ShapeError(f"workload yields {t} decode steps, expected {out_len}")

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
