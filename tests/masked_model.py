"""A masked model, built by the test suite: the base model's rows, masked after they are drawn.

The generator masks nothing. A model with some heads masked is defined as
the base model with each masked head's row set to exactly 1/visible after
every draw, so its layout, its regions and every other row are the base
model's. Here a trace's or a workload's steps are masked as they are read
(`masked_steps`), and a masked model's window scores come from a window pass
that draws each window row whole, sets its masked rows and sums it onto the
kv heads (`whole_row_window`). That pass relies on none of the streaming
machinery of `simmodel.decode_workload` and reads no `MaskedGroups` table.
`table_scores` reads a set's window scores from such a table, for the tests
that hold the table to this pass.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from sparsemm import simmodel
from sparsemm.cache import sum_onto_kv_heads
from sparsemm.simmodel import AttentionTrace


def oracle_normalize_blocks(draw, roles):
    """Role-wise normalization through a gathered copy and a zero-filled output.

    `roles` pairs position arrays with target masses; roles with no visible
    position forfeit their mass to the rest (renormalized). The in-place
    `simmodel._normalize_blocks` must reproduce it bit for bit.
    """
    out = np.zeros_like(draw)
    live = [(pos, m) for pos, m in roles if pos.size]
    z = sum(m for _, m in live)
    for pos, m in live:
        block = draw[..., pos]
        out[..., pos] = (m / z) * block / block.sum(axis=-1, keepdims=True)
    return out


def oracle_layout(model, prompt_len, out_len, window):
    """The decode workload's prompt layout, drawn as `SyntheticModel.decode_workload` draws it.

    Returns (rng, n_pre, image_off, g, union_positions, token_regions), the
    generator as it stands before the window rows.
    """
    rng = model._rng(simmodel._STREAM_DECODE, prompt_len, out_len, window)
    n_pre = min(4, max(0, prompt_len - window))
    tail = max(1, min(24, window - n_pre, prompt_len - n_pre))
    g_avail = prompt_len - n_pre - tail
    if g_avail >= 4:
        gr = int(math.isqrt(g_avail))
        gc = g_avail // gr
        g = gr * gc
        header = g_avail - g
    else:
        gr = gc = g = 0
        header = max(0, g_avail)
    image_off = n_pre + header

    rects = []
    union_patches = set()
    if g:
        for _ in range(16):
            if len(union_patches) >= 0.6 * g:
                break
            rh = int(rng.integers(max(1, gr // 4), max(2, gr // 3) + 1))
            rw = int(rng.integers(max(1, gc // 4), max(2, gc // 3) + 1))
            r0 = int(rng.integers(0, gr - rh + 1))
            c0 = int(rng.integers(0, gc - rw + 1))
            rects.append((r0, c0, rh, rw))
            union_patches |= {(r0 + i) * gc + (c0 + j) for i in range(rh) for j in range(rw)}
    union_positions = image_off + np.array(sorted(union_patches), dtype=np.int64)

    token_regions = []
    for _ in range(out_len):
        if rects:
            r0, c0, rh, rw = rects[int(rng.integers(len(rects)))]
            sh = int(rng.integers(1, rh + 1))
            sw = int(rng.integers(1, rw + 1))
            o_r = r0 + int(rng.integers(0, rh - sh + 1))
            o_c = c0 + int(rng.integers(0, rw - sw + 1))
            patches = np.array([(o_r + i) * gc + (o_c + j) for i in range(sh) for j in range(sw)])
            token_regions.append(image_off + patches)
        else:
            token_regions.append(np.empty(0, dtype=np.int64))
    return rng, n_pre, image_off, g, union_positions, token_regions


def _pairs(heads) -> list[tuple[int, int]]:
    """`heads` as sorted (layer, query_head) pairs, each once."""
    return sorted({(int(l), int(h)) for l, h in heads})


@dataclass(frozen=True)
class MaskedSteps:
    """`steps` with each `masked` head's row set to exactly 1/visible, copied on every pass.

    It gives its (layers, query_heads) as `heads` and its step count as
    `len`, so an `AttentionTrace` takes it as it takes a drawn sample's steps.
    """

    steps: object
    masked: tuple[tuple[int, int], ...]
    heads: tuple[int, int]

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        for step in self.steps:
            step = step.copy()
            for l, h in self.masked:
                step[l, h] = 1.0 / step.shape[2]
            yield step


def masked_steps(steps, heads) -> MaskedSteps:
    """A trace's or a workload's `steps` with `heads` masked."""
    shape = steps.heads if hasattr(steps, "heads") else steps[0].shape[:2]
    return MaskedSteps(steps, tuple(_pairs(heads)), tuple(shape))


def masked_corpus(samples, heads) -> list:
    """The (sample, trace) pairs of `samples` with `heads` masked in every trace."""
    return [(sample, AttentionTrace(masked_steps(trace.steps, heads), trace.prompt_len))
            for sample, trace in samples]


def whole_row_window(model, prompt_len, out_len, window, heads=()) -> np.ndarray:
    """The window scores of `model` with `heads` masked, by a pass that holds each row whole.

    Every window row is drawn whole with `rng.exponential` into a
    block-sized `rows` buffer, normalized by `oracle_normalize_blocks` and
    edited, as `SyntheticModel.decode_workload` draws it; its masked rows are
    then set to exactly 1/visible, and it is summed onto the kv heads whole:
    the pass as it ran before window rows were streamed in kv-group tiles.
    """
    geo = model.geometry
    lp, n = prompt_len, prompt_len - window
    rng, n_pre, image_off, g, union_positions, _ = oracle_layout(
        model, prompt_len, out_len, window
    )
    bg = simmodel.DECODE_BG
    u_mass = simmodel.WINDOW_REGION_FACTOR * model.planted.strength
    masked = _pairs(heads)
    window_scores = np.zeros((geo.layers, geo.kv_heads, n))
    rows = np.empty(geo.layers * geo.query_heads * lp)
    for i in range(window):
        pos = lp - window + i
        visible = pos + 1
        block = rows[: geo.layers * geo.query_heads * visible].reshape(
            geo.layers, geo.query_heads, visible
        )
        block[...] = oracle_normalize_blocks(
            rng.exponential(size=block.shape),
            [(np.arange(image_off + g, visible), bg[0]), (np.arange(n_pre), bg[1]),
             (np.arange(n_pre, min(image_off + g, visible)), bg[2])],
        )
        union_vis = union_positions[union_positions <= pos]
        for l, h in model.planted.heads:
            if union_vis.size:
                spread = rng.exponential(size=union_vis.size)
                block[l, h] *= 1.0 - u_mass
                block[l, h, union_vis] += u_mass * spread / spread.sum()
        for l, h in masked:
            block[l, h] = 1.0 / visible
        window_scores += sum_onto_kv_heads(block[:, :, :n], geo.kv_heads)
    if window:
        window_scores /= window
    return window_scores


def masked_workload(model, prompt_len, out_len, window, heads):
    """`model`'s decode workload with `heads` masked: its own, but for the window scores,
    `whole_row_window`'s, and the steps, `masked_steps` over its own."""
    workload = model.decode_workload(prompt_len, out_len, window)
    return replace(
        workload,
        window_scores=whole_row_window(model, prompt_len, out_len, window, heads),
        steps=masked_steps(workload.steps, heads),
    )


def table_scores(workload, i) -> np.ndarray:
    """Set i's window scores read from the workload's `MaskedGroups` table: the workload's
    own, with the table's rows of set i in place of their kv groups' rows."""
    table = workload.masked
    scores = workload.window_scores.copy()
    mine = table.sets == i
    scores.reshape(scores.shape[0] * scores.shape[1], -1)[table.groups[mine]] = table.scores[mine]
    return scores
