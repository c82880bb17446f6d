"""Synthetic multimodal attention model with planted visual heads.

Nothing here is learned. Attention rows are *generated* so that head
identities are ground truth: a planted head, on a fraction of output tokens
equal to its strength, concentrates mass on the image patches of the token
being produced (55% on one peak patch, 25% across the patch region), which
pins the row argmax inside the region. All other rows draw a seeded
Dirichlet-style background that puts most mass on text tokens, a little on
the few leading sink tokens, and only a thin spread across the image. That
mirrors how multimodal prompts behave: instructions are short, image tokens
dominate the length, and only visual heads need wide image coverage, which
is exactly the asymmetry budget allocation is supposed to exploit.

Decode workloads follow the same recipe over a single long prompt: planted
heads' observation-window rows concentrate on the union of upcoming ground
truth regions, and their decode rows land inside the per-token region, so a
cache policy that reads the window correctly can keep what those heads will
need. Window rows are reduced to per-kv-head key scores as they are drawn;
only the scores are kept. Masked heads emit exactly uniform rows. Masking is
applied after all random draws, so masking any subset never perturbs the
other heads' rows; one window pass therefore also gives the window scores of
any number of masked models, re-summed for the kv groups their masks touch.

Nothing large is held. A corpus makes sample i when it is read, drawn from its
own generator or read and checked from its files, and a decode workload draws
its steps again on each pass from its generator as it stood after the window
rows, so a caller that streams holds one sample's trace or one step's rows.
"""

from __future__ import annotations

import copy
import hashlib
import math
import operator
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import (
    counts, elements, encode_array, encode_json, list_dir, make_dir, numbers, read_array,
    read_bytes, read_object, write_bytes,
)
from .cache import sum_onto_kv_heads
from .errors import InvalidInputError, ShapeError

__all__ = [
    "TEXT_TOKEN",
    "AttentionTrace",
    "DecodeSteps",
    "DecodeWorkload",
    "MaskedWindow",
    "ModelGeometry",
    "OcrCorpus",
    "OcrSample",
    "PlantedHeadSet",
    "SyntheticModel",
    "build_synthetic_model",
    "corpus_digest",
    "generate_ocr_samples",
    "load_corpus",
    "mask_heads",
    "save_corpus",
]

TEXT_TOKEN = -1

# hit-row composition: peak + region + background must sum to 1, with the
# peak strictly above any other attainable entry so the argmax is certain
PEAK_MASS = 0.55
REGION_MASS = 0.25

# background mixtures (text, sink, image); corpus samples lean harder on text
CORPUS_BG = (0.90, 0.05, 0.05)
DECODE_BG = (0.96, 0.02, 0.02)

# fraction of a planted head's window-row mass steered onto the region union
WINDOW_REGION_FACTOR = 0.85

# ranges (inclusive) drawn per corpus sample; every prompt opens with at least
# PRE_TEXT[0] text tokens
IMAGE_PX = (192, 512)
GRID_ROWS = (6, 12)
GRID_COLS = (6, 12)
PRE_TEXT = (2, 5)
INSTR_TEXT = (10, 28)
OUT_TOKENS = (4, 9)
REGION_ROWS = (1, 3)
REGION_COLS = (1, 4)

_STREAM_CORPUS = 1
_STREAM_DECODE = 2


@dataclass(frozen=True)
class ModelGeometry:
    """Layer/head layout; query_heads must be a multiple of kv_heads."""

    layers: int
    query_heads: int
    kv_heads: int

    def __post_init__(self) -> None:
        if min(self.layers, self.query_heads, self.kv_heads) < 1:
            raise InvalidInputError("geometry counts must be positive")
        if self.query_heads % self.kv_heads != 0:
            raise InvalidInputError(
                f"{self.query_heads} query heads not divisible by {self.kv_heads} kv heads"
            )

    @property
    def group_size(self) -> int:
        return self.query_heads // self.kv_heads

    @classmethod
    def mha(cls, layers: int, heads: int) -> "ModelGeometry":
        return cls(layers, heads, heads)


@dataclass(frozen=True)
class PlantedHeadSet:
    """Ground-truth visual heads: (layer, query_head) pairs sharing one strength in [0, 1]."""

    heads: tuple[tuple[int, int], ...] = ()
    strength: float = 0.0

    def __post_init__(self) -> None:
        heads = tuple(sorted((int(l), int(h)) for l, h in self.heads))
        if len(set(heads)) != len(heads):
            raise InvalidInputError("duplicate planted head")
        if not 0.0 <= self.strength <= 1.0:
            raise InvalidInputError(f"strength {self.strength} outside [0, 1]")
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "strength", float(self.strength))

    @classmethod
    def uniform(cls, pairs, strength: float) -> "PlantedHeadSet":
        return cls(tuple(pairs), strength)

    def __len__(self) -> int:
        return len(self.heads)


@dataclass(frozen=True)
class OcrSample:
    """One generated sample: image geometry, per-token bbox truth, prompt roles.

    prompt_layout holds TEXT_TOKEN for text positions and the patch index
    (row-major) for image positions: every patch of the grid appears once. The
    generator lays the prompt out so, and `load_corpus` checks each record.
    """

    image_shape: tuple[int, int]
    grid: tuple[int, int]
    pairs: tuple[tuple[int, tuple[float, float, float, float]], ...]
    prompt_layout: tuple[int, ...]

    @property
    def prompt_len(self) -> int:
        return len(self.prompt_layout)


@dataclass(frozen=True)
class AttentionTrace:
    """Per output token, the (layers, query_heads, prompt_len + t) attention rows.

    Each row is a probability vector: the generator draws it so, and
    `load_corpus` checks every row it reads, so the trace checks only shapes.
    It holds each step as a read-only view of the array given, not a copy.
    """

    steps: tuple[np.ndarray, ...]
    prompt_len: int

    def __post_init__(self) -> None:
        if not self.steps:
            raise InvalidInputError("trace needs at least one step")
        frozen = []
        shape = self.steps[0].shape[:2]
        for t, step in enumerate(self.steps):
            arr = np.asarray(step, dtype=np.float64)
            if arr.ndim != 3 or arr.shape[:2] != shape:
                raise ShapeError("trace steps must share (layers, heads)")
            if arr.shape[2] != self.prompt_len + t:
                raise ShapeError(
                    f"step {t} rows have length {arr.shape[2]}, expected {self.prompt_len + t}"
                )
            view = arr.view()
            view.setflags(write=False)
            frozen.append(view)
        object.__setattr__(self, "steps", tuple(frozen))

    @property
    def layers(self) -> int:
        return self.steps[0].shape[0]

    @property
    def query_heads(self) -> int:
        return self.steps[0].shape[1]

    @property
    def out_len(self) -> int:
        return len(self.steps)


# values in one row tile of a drawn block: `_draw_block` fills and normalizes a
# block this many values at a time, so its scratch never needs a whole block
TILE_VALUES = 1 << 16


def _row_tiles(rows: int, visible: int) -> Iterator[tuple[int, int]]:
    """The (start, stop) ranges of consecutive rows that `_draw_block` takes at a time.

    A tile holds about TILE_VALUES values, and at least two rows: a tile of
    one row occurs only when the block has one row, and a one-row remainder
    joins the tile before it. That keeps each range total the same float sum
    as the whole block's: numpy sums an (n, 1) copy pairwise, but an (n, T)
    copy with T >= 2 position by position.
    """
    size = max(2, TILE_VALUES // max(visible, 1))
    start = 0
    while start < rows:
        stop = rows if rows - start - size <= 1 else start + size
        yield start, stop
        start = stop


def _tile_scratch(rows: int, visible: int) -> np.ndarray:
    """A `_draw_block` scratch buffer for blocks of `rows` rows of up to `visible` values.

    A tile of v-value rows holds at most min(rows, max(2, TILE_VALUES // v) + 1)
    rows: at most TILE_VALUES + v values, or 3 * v where tiles are two rows.
    """
    return np.empty(min(rows * visible, max(TILE_VALUES + visible, 3 * visible)))


def _normalize_blocks(draw: np.ndarray, roles, scratch: np.ndarray) -> np.ndarray:
    """Compose role-wise Dirichlet blocks into rows that sum to one, in place.

    `roles` holds (start, stop, mass) ranges that partition the last axis of
    `draw`; each range is rescaled to carry its mass. Ranges with no position
    forfeit their mass to the rest (renormalized). A range's total is summed
    from a C-order copy that holds the position axis outermost, which fixes
    the order of its float sum. The copy is written into `scratch`, a flat
    float64 buffer of at least `draw.size` values; `_draw_block` passes one
    row tile at a time, so the buffer is one tile, reused for every tile.
    """
    live = [(start, stop, m) for start, stop, m in roles if stop > start]
    z = sum(m for _, _, m in live)
    for start, stop, m in live:
        block = draw[..., start:stop]
        outer = np.moveaxis(block, -1, 0)
        copy = scratch[: block.size].reshape(outer.shape)
        copy[...] = outer
        total = copy.sum(axis=0)[..., None]
        block *= m / z
        block /= total
    return draw


def _draw_block(rng, draw: np.ndarray, n_pre: int, text_off: int, bg, scratch) -> np.ndarray:
    """Fill `draw`, one step's (layers, query_heads, visible) rows, with background rows.

    Positions run sinks [0, n_pre) | leak [n_pre, text_off) | text
    [text_off, visible); `bg` holds the (text, sink, leak) masses. A window
    row that does not reach text_off sees only part of the leak range.
    The rows are drawn and normalized one `_row_tiles` tile at a time, and
    `scratch` is `_normalize_blocks`' buffer, of `_tile_scratch` size. Filling
    consecutive C-order tiles with `standard_exponential` gives the values one
    fill of `draw` would, which are those of `rng.exponential(size=draw.shape)`.
    Window rows are reduced as soon as they are drawn, so they reuse one
    `draw`; decode steps are handed to the caller, so each gets a fresh one.
    """
    visible = draw.shape[2]
    roles = [(text_off, visible, bg[0]), (0, n_pre, bg[1]), (n_pre, min(text_off, visible), bg[2])]
    flat = draw.reshape(-1, visible)
    for start, stop in _row_tiles(flat.shape[0], visible):
        tile = flat[start:stop]
        rng.standard_exponential(out=tile)
        _normalize_blocks(tile, roles, scratch)
    return draw


def _draw_count(rng, span: tuple[int, int]) -> int:
    """One integer drawn from the inclusive range `span`."""
    return int(rng.integers(span[0], span[1] + 1))


def _rect_patches(r0: int, c0: int, rows: int, cols: int, grid_cols: int) -> np.ndarray:
    """Row-major grid indices of the rows x cols patch rectangle at (r0, c0)."""
    return ((r0 + np.arange(rows))[:, None] * grid_cols + (c0 + np.arange(cols))).ravel()


def _plant_hit_row(rng, row: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Rebuild one row as peak + region + scaled background; argmax is the peak."""
    weights = rng.exponential(size=region.size)
    weights = REGION_MASS * weights / weights.sum()
    peak = int(region[rng.integers(region.size)])
    out = (1.0 - PEAK_MASS - REGION_MASS) * row
    out[region] += weights
    out[peak] += PEAK_MASS
    return out


@dataclass(frozen=True)
class MaskedWindow:
    """The window scores of the workload's model with `heads` masked, where they differ.

    `groups` holds the flat indices layer * kv_heads + kv_head of the kv
    groups that contain one of `heads`, ascending, and `rows[i, k]` is True
    where query head k of group i is one of them. `scores[i]` is group i's
    row of the masked model's `window_scores`; every other group's row is
    the workload's own. The masked model's decode rows are the workload's
    with each row of `heads` set to exactly 1/visible.
    """

    heads: frozenset
    groups: np.ndarray = field(repr=False)  # (k,)
    rows: np.ndarray = field(repr=False)  # (k, group_size) bool
    scores: np.ndarray = field(repr=False)  # (k, Lp - w)


@dataclass(frozen=True)
class DecodeWorkload:
    """Deterministic decode scenario: prefill window scores plus per-step rows.

    `window_scores` is each kv head's mean observation-window attention per
    prompt key left of the window: the query heads of a group are summed, then
    the w window rows are averaged. `steps` yields output token t's
    (layers, query_heads, prompt_len + t) rows, t = 0..out_len-1, on every
    pass over it. A model-built workload holds a `DecodeSteps`, which draws
    each step as it is read; a hand-built one may hold a tuple of arrays.
    `masked` holds one `MaskedWindow` per head set the workload was asked to
    derive, in the order asked.
    """

    prompt_len: int
    out_len: int
    window: int
    union_positions: np.ndarray = field(repr=False)
    token_regions: tuple[np.ndarray, ...] = field(repr=False)
    window_scores: np.ndarray = field(repr=False)  # (L, H_kv, Lp - w)
    steps: Iterable[np.ndarray] = field(repr=False)  # per t: (L, Hq, Lp + t)
    masked: tuple[MaskedWindow, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class SyntheticModel:
    """Deterministic attention generator; behavior is fixed by (geometry, planted, seed)."""

    geometry: ModelGeometry
    planted: PlantedHeadSet
    seed: int
    masked: frozenset = frozenset()

    def __post_init__(self) -> None:
        geo = self.geometry
        for kind, heads in (("planted", self.planted.heads), ("masked", sorted(self.masked))):
            for l, h in heads:
                if not (0 <= l < geo.layers and 0 <= h < geo.query_heads):
                    raise InvalidInputError(f"{kind} head ({l}, {h}) outside geometry")
        if not 0 <= self.seed < 2**32:
            raise InvalidInputError(f"model seed {self.seed} outside [0, 2**32)")

    def _rng(self, stream, *key) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([int(self.seed), stream, *key]))

    def _mask_rows(self, block: np.ndarray, visible: int) -> None:
        """Overwrite every masked head's row of one step block with exactly 1/visible."""
        for l, h in sorted(self.masked):
            block[l, h] = 1.0 / visible

    def _draw_steps(self, rng, lp: int, regions, n_pre: int, text_off: int, bg) -> Iterator:
        """Yield output token t's (layers, query_heads, lp + t) rows, one per region.

        Each step draws its background, then each planted head hits the
        step's region with probability `strength`, then masked rows go uniform.
        A yielded step is not referenced here once the caller asks for the
        next, so a caller that drops it holds one step while the next is drawn.
        """
        geo = self.geometry
        scratch = _tile_scratch(geo.layers * geo.query_heads, lp + len(regions) - 1)
        for t, region in enumerate(regions):
            block = np.empty((geo.layers, geo.query_heads, lp + t))
            _draw_block(rng, block, n_pre, text_off, bg, scratch)
            for l, h in self.planted.heads:
                u = rng.random()
                if region.size and u < self.planted.strength:
                    block[l, h] = _plant_hit_row(rng, block[l, h], region)
            self._mask_rows(block, lp + t)
            yield block
            del block

    def sample_ocr(self, rng) -> tuple[OcrSample, AttentionTrace]:
        """Generate one OCR-style sample and its decode trace."""
        gr = _draw_count(rng, GRID_ROWS)
        gc = _draw_count(rng, GRID_COLS)
        h_px = _draw_count(rng, IMAGE_PX)
        w_px = _draw_count(rng, IMAGE_PX)
        n_pre = _draw_count(rng, PRE_TEXT)
        n_instr = _draw_count(rng, INSTR_TEXT)
        n_out = _draw_count(rng, OUT_TOKENS)
        g = gr * gc
        layout = np.concatenate(
            [np.full(n_pre, TEXT_TOKEN), np.arange(g), np.full(n_instr, TEXT_TOKEN)]
        )
        lp = layout.size
        instr_off = n_pre + g  # sinks | image | instructions, then generated text

        pairs = []
        regions = []
        cell_h, cell_w = h_px / gr, w_px / gc
        for _ in range(n_out):
            rh = min(_draw_count(rng, REGION_ROWS), gr)
            rw = min(_draw_count(rng, REGION_COLS), gc)
            r0 = int(rng.integers(0, gr - rh + 1))
            c0 = int(rng.integers(0, gc - rw + 1))
            # inset the bbox strictly inside its patch rectangle so the
            # pixel->patch mapping recovers exactly these patches
            dx0, dy0, dx1, dy1 = rng.uniform(0.05, 0.30, size=4)
            bbox = (
                (c0 + dx0) * cell_w,
                (r0 + dy0) * cell_h,
                (c0 + rw - dx1) * cell_w,
                (r0 + rh - dy1) * cell_h,
            )
            pairs.append((int(rng.integers(1, 1_000_000)), bbox))
            regions.append(n_pre + _rect_patches(r0, c0, rh, rw, gc))

        steps = tuple(self._draw_steps(rng, lp, regions, n_pre, instr_off, CORPUS_BG))
        sample = OcrSample(
            (h_px, w_px),
            (gr, gc),
            tuple((tok, tuple(float(v) for v in bbox)) for tok, bbox in pairs),
            tuple(int(v) for v in layout),
        )
        return sample, AttentionTrace(steps, lp)

    def decode_workload(
        self, prompt_len: int, out_len: int, window: int, masks: Iterable = ()
    ) -> DecodeWorkload:
        """Build the prefill window scores; the decode rows are drawn when read.

        The prompt is laid out as a few leading sink tokens, a large image
        block, and a short instruction tail that the window mostly covers.
        Planted heads aim their window rows at the union of the regions their
        upcoming output tokens will need. Each window row is folded into the
        per-kv-head scores as soon as it is drawn, so no (layers, query_heads,
        w, Lp) tensor is built. No decode row is drawn here: the workload's
        `steps` start from the generator's state after the window rows.

        Each entry of `masks` is a set of (layer, query_head) pairs; the
        workload's `masked` gives, for each, the window scores that
        `mask_heads(self, heads).decode_workload(...)` would hold. Masking
        draws nothing, so that model draws this window block; the same pass
        copies the groups holding a masked head, sets those rows to
        1/visible and sums them onto their kv head in query-head order, as
        `sum_onto_kv_heads` sums the whole block. Every score is then the
        same float sum, in the same order, as the masked model's.
        """
        if window < 0:
            raise InvalidInputError("window must be non-negative")
        if prompt_len < window:
            raise InvalidInputError(f"prompt_len {prompt_len} shorter than window {window}")
        if out_len < 1:
            raise InvalidInputError("out_len must be positive")
        geo = self.geometry
        masked = tuple(self._masked_window(heads, prompt_len - window) for heads in masks)
        rng = self._rng(_STREAM_DECODE, prompt_len, out_len, window)

        # sinks | header filler | image block | instruction tail; the tail is
        # sized to sit inside the observation window, so non-visual heads'
        # dominant text mass is retained by every policy
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
        lp = prompt_len
        image_off = n_pre + header
        # sinks [0, n_pre) | leak [n_pre, tail_off) | tail [tail_off, lp): header
        # filler and image share the thin leak mass
        tail_off = image_off + g

        # union of ground-truth regions: rectangles until ~60% of the grid,
        # wide enough that no near-uniform budget can cover it
        rects = []
        union_patches: set[int] = set()
        if g:
            for _ in range(16):
                if len(union_patches) >= 0.6 * g:
                    break
                rh = int(rng.integers(max(1, gr // 4), max(2, gr // 3) + 1))
                rw = int(rng.integers(max(1, gc // 4), max(2, gc // 3) + 1))
                r0 = int(rng.integers(0, gr - rh + 1))
                c0 = int(rng.integers(0, gc - rw + 1))
                rects.append((r0, c0, rh, rw))
                union_patches.update(_rect_patches(r0, c0, rh, rw, gc).tolist())
        union_positions = image_off + np.array(sorted(union_patches), dtype=np.int64)

        token_regions = []
        for _ in range(out_len):
            if rects:
                r0, c0, rh, rw = rects[int(rng.integers(len(rects)))]
                sh = int(rng.integers(1, rh + 1))
                sw = int(rng.integers(1, rw + 1))
                o_r = r0 + int(rng.integers(0, rh - sh + 1))
                o_c = c0 + int(rng.integers(0, rw - sw + 1))
                token_regions.append(image_off + _rect_patches(o_r, o_c, sh, sw, gc))
            else:
                token_regions.append(np.empty(0, dtype=np.int64))

        n = lp - window
        window_scores = np.zeros((geo.layers, geo.kv_heads, n))
        rows = np.empty(geo.layers * geo.query_heads * lp)
        scratch = _tile_scratch(geo.layers * geo.query_heads, lp)
        for i in range(window):
            pos = lp - window + i
            visible = pos + 1
            block = rows[: geo.layers * geo.query_heads * visible].reshape(
                geo.layers, geo.query_heads, visible
            )
            _draw_block(rng, block, n_pre, tail_off, DECODE_BG, scratch)
            union_vis = union_positions[union_positions <= pos]
            if union_vis.size:
                u_mass = WINDOW_REGION_FACTOR * self.planted.strength
                for l, h in self.planted.heads:
                    spread = rng.exponential(size=union_vis.size)
                    row = (1.0 - u_mass) * block[l, h]
                    row[union_vis] += u_mass * spread / spread.sum()
                    block[l, h] = row
            self._mask_rows(block, visible)
            window_scores += sum_onto_kv_heads(block[:, :, :n], geo.kv_heads)
            grouped = block.reshape(-1, geo.group_size, visible)
            for cell in masked:
                rows_of = grouped[cell.groups, :, :n]
                rows_of[cell.rows] = 1.0 / visible
                cell.scores[...] += sum_onto_kv_heads(rows_of, 1)[:, 0]
        if window:
            window_scores /= window
            for cell in masked:
                cell.scores[...] /= window

        regions = tuple(token_regions)
        steps = DecodeSteps(self, rng, lp, regions, n_pre, tail_off)
        return DecodeWorkload(
            lp, out_len, window, union_positions, regions, window_scores, steps, masked
        )

    def _masked_window(self, heads, n: int) -> MaskedWindow:
        """A `MaskedWindow` for the heads this model does not mask yet, its n-key scores at 0."""
        geo = self.geometry
        g = geo.group_size
        heads = mask_heads(self, heads).masked - self.masked
        groups = np.array(sorted({l * geo.kv_heads + h // g for l, h in heads}), dtype=np.int64)
        rows = np.zeros((groups.size, g), dtype=bool)
        for l, h in heads:
            rows[np.searchsorted(groups, l * geo.kv_heads + h // g), h % g] = True
        return MaskedWindow(heads, groups, rows, np.zeros((groups.size, n)))


@dataclass(frozen=True)
class DecodeSteps:
    """A model-built workload's decode rows, drawn again on every pass.

    `rng` is the workload generator as it stands after its window rows, and
    it is never advanced. Each pass draws from a deep copy of it and yields
    output token t's (layers, query_heads, prompt_len + t) rows through
    `_draw_steps`, so every pass reads the same bits and only the step being
    read is in memory. `n_pre` and `text_off` are the role offsets of
    `_draw_block`.
    """

    model: SyntheticModel
    rng: np.random.Generator = field(repr=False)
    prompt_len: int
    regions: tuple[np.ndarray, ...] = field(repr=False)
    n_pre: int
    text_off: int

    def __iter__(self) -> Iterator[np.ndarray]:
        rng = copy.deepcopy(self.rng)
        return self.model._draw_steps(
            rng, self.prompt_len, self.regions, self.n_pre, self.text_off, DECODE_BG
        )


def build_synthetic_model(
    geometry: ModelGeometry, planted: PlantedHeadSet, seed: int
) -> SyntheticModel:
    return SyntheticModel(geometry, planted, int(seed))


def mask_heads(model: SyntheticModel, heads) -> SyntheticModel:
    """Return a model whose given heads emit exactly uniform attention."""
    heads = frozenset((int(l), int(h)) for l, h in heads)
    return replace(model, masked=model.masked | heads)


@dataclass(frozen=True)
class OcrCorpus:
    """`size` (OcrSample, AttentionTrace) pairs; `read(i)` makes sample i when it is read.

    `read` must give the same bits for i in any order of access and on every
    pass. Nothing is cached: a caller that iterates holds one sample's trace
    at a time, and a caller that reads a sample twice makes it twice.
    """

    size: int
    read: Callable[[int], tuple[OcrSample, AttentionTrace]] = field(repr=False)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> tuple[OcrSample, AttentionTrace]:
        i = operator.index(i)
        if not -self.size <= i < self.size:
            raise IndexError(f"sample {i} outside a corpus of {self.size}")
        return self.read(i % self.size)

    def __iter__(self) -> Iterator[tuple[OcrSample, AttentionTrace]]:
        return (self[i] for i in range(self.size))


def generate_ocr_samples(model: SyntheticModel, n: int, seed: int) -> OcrCorpus:
    """n (OcrSample, AttentionTrace) pairs; sample i is drawn on access from its own generator."""
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    if seed < 0:
        raise InvalidInputError(f"corpus seed {seed} must be non-negative")
    return OcrCorpus(int(n), lambda i: model.sample_ocr(model._rng(_STREAM_CORPUS, int(seed), i)))


CORPUS_KEYS = (
    "image_shape", "grid", "pairs", "prompt_layout", "layers", "query_heads", "steps", "sha256"
)


def _corpus_names(directory) -> list[str]:
    names = list_dir(directory, "corpus")
    return sorted(n for n in names if n.startswith("sample_") and n.endswith((".json", ".npy")))


def _save_sample(directory, stem: str, sample: OcrSample, trace: AttentionTrace, digest) -> None:
    """Write one sample's payload, then its record; feed both to `digest` in name order.

    Their bytes are freed on return, so a corpus holds one sample's at a time.
    """
    payload = encode_array(np.concatenate([step.ravel() for step in trace.steps]))
    record = encode_json({
        "image_shape": list(sample.image_shape),
        "grid": list(sample.grid),
        "pairs": [[tok, list(bbox)] for tok, bbox in sample.pairs],
        "prompt_layout": list(sample.prompt_layout),
        "layers": trace.layers,
        "query_heads": trace.query_heads,
        "steps": trace.out_len,
        "sha256": write_bytes(os.path.join(directory, stem + ".npy"), payload),
    })
    write_bytes(os.path.join(directory, stem + ".json"), record)
    for name, data in ((stem + ".json", record), (stem + ".npy", payload)):
        digest.update(name.encode())
        digest.update(data)


def save_corpus(directory, samples) -> str:
    """Write each sample as `sample_NNNNN.json` beside `sample_NNNNN.npy`.

    A directory that already holds sample files is refused before anything
    is written, so a corpus never mixes in another corpus's samples.

    `samples` is read once, in order, and each sample is written before the
    next is read, so a lazy corpus is written one trace at a time.

    The `.npy` payload is one 1-D float64 array: the trace's steps, each
    raveled, concatenated in step order. The JSON record is canonical and
    holds the sample, the trace's geometry and step count, and the payload's
    sha256.

    Returns `corpus_digest` of the directory, computed from the bytes as they
    are written, so nothing is read back.
    """
    make_dir(directory)
    if _corpus_names(directory):
        raise InvalidInputError(f"{directory} already holds a corpus; give an empty directory")
    digest = hashlib.sha256()
    for i, (sample, trace) in enumerate(samples):
        _save_sample(directory, f"sample_{i:05d}", sample, trace, digest)
    return digest.hexdigest()


def _load_record(path) -> tuple[OcrSample, dict]:
    """The sample and the checked geometry of one corpus record."""
    record = read_object(path, "corpus record", CORPUS_KEYS, old_format=(("rows",), "corpus"))
    where = f"corpus record {path}"
    counts({key: record[key] for key in ("layers", "query_heads", "steps")}, where, 1)
    pairs = []
    for i, pair in enumerate(elements(record["pairs"], "pairs", where).values()):
        tok, bbox = elements(pair, f"pairs[{i}]", where, 2).values()
        (tok,) = counts({f"pairs[{i}][0]": tok}, where)
        bbox = numbers(elements(bbox, f"pairs[{i}][1]", where, 4), where)
        pairs.append((tok, tuple(float(v) for v in bbox)))
    image_shape = tuple(counts(elements(record["image_shape"], "image_shape", where, 2), where, 1))
    grid = tuple(counts(elements(record["grid"], "grid", where, 2), where, 1))
    layout = counts(elements(record["prompt_layout"], "prompt_layout", where), where, TEXT_TOKEN)
    labels = sorted(role for role in layout if role != TEXT_TOKEN)
    n_patches = grid[0] * grid[1]
    # each patch index once; the count goes first, so a huge grid never builds a range
    if len(labels) != n_patches or labels != list(range(n_patches)):
        raise InvalidInputError(
            f"{where}: layout's {len(labels)} image tokens are not the grid's patch indices "
            f"0..{n_patches - 1}, each once"
        )
    return OcrSample(image_shape, grid, tuple(pairs), tuple(layout)), record


def _load_payload(path, record: dict, prompt_len: int) -> AttentionTrace:
    """The trace stored in a `.npy` payload, checked against its record.

    `read_array` checks the values; each row must also sum to 1 within 1e-9.
    """
    layers, heads, n_steps = record["layers"], record["query_heads"], record["steps"]
    expected = layers * heads * (n_steps * prompt_len + n_steps * (n_steps - 1) // 2)
    flat = read_array(path, record["sha256"], (expected,), "corpus payload")
    steps = np.split(flat, np.cumsum(layers * heads * (prompt_len + np.arange(n_steps)))[:-1])
    steps = tuple(step.reshape(layers, heads, -1) for step in steps)
    for t, step in enumerate(steps):
        if np.abs(step.sum(axis=2) - 1.0).max() > 1e-9:
            raise InvalidInputError(f"corpus payload {path}: step {t} rows do not sum to 1")
    return AttentionTrace(steps, prompt_len)


def load_corpus(directory) -> OcrCorpus:
    """The (OcrSample, AttentionTrace) pairs of a `save_corpus` directory, in name order.

    A missing or record-less directory, or a payload without its record (left by a
    `save_corpus` cut short), fails at once, and so does a malformed first record,
    which is read now for the corpus's (layers, query_heads). Sample i's files are
    read and checked each time it is read; an unreadable, malformed or mismatched
    file raises InvalidInputError, and a record of other (layers, query_heads) than the
    first raises ShapeError.
    """
    names = _corpus_names(directory)
    stems = [n[: -len(".json")] for n in names if n.endswith(".json")]
    orphans = sorted({n[: -len(".npy")] for n in names if n.endswith(".npy")} - set(stems))
    if orphans:
        raise InvalidInputError(
            f"corpus payload {os.path.join(directory, orphans[0] + '.npy')} has no record"
        )
    if not stems:
        raise InvalidInputError(f"no sample records in {directory}")
    first = os.path.join(directory, stems[0] + ".json")
    _, record = _load_record(first)
    heads = (record["layers"], record["query_heads"])

    def read(i: int) -> tuple[OcrSample, AttentionTrace]:
        stem = os.path.join(directory, stems[i])
        sample, record = _load_record(stem + ".json")
        got = (record["layers"], record["query_heads"])
        if got != heads:
            raise ShapeError(
                f"corpus record {stem}.json scores {got} (layers, query_heads), "
                f"the first record {first} {heads}"
            )
        return sample, _load_payload(stem + ".npy", record, sample.prompt_len)

    return OcrCorpus(len(stems), read)


def corpus_digest(directory) -> str:
    """sha256 over the names and bytes of every record and payload, in name order."""
    digest = hashlib.sha256()
    for name in _corpus_names(directory):
        digest.update(name.encode())
        digest.update(read_bytes(os.path.join(directory, name), "corpus file"))
    return digest.hexdigest()
