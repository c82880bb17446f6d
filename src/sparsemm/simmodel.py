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
any number of masked models, re-summed for the kv groups their masks touch
and held as one table of those groups sorted by kv group (`MaskedGroups`).

Nothing large is held. A corpus makes sample i when it is read, drawn from its
own generator or read and checked from its files (`corpusfile` holds the
file format; this module touches no file), and a drawn sample's trace
and a decode workload's steps are drawn again on each pass, one step at a
time, from their generator as it stood after the sample layout or the window
rows.

Every step, corpus step, window row or decode step, is drawn by one planner
and one loop. `_plan` cuts a stream of steps into draws: a batch of whole
small steps, or one tile of kv groups of a step larger than a tile.
`SyntheticModel._draw` fills each draw, draws each step's edit randoms right
after that step's own rows, and normalizes the draw at once, which costs
numpy one call per draw where it would cost one per step. Two readers hand
the steps on: `DecodeSteps.__iter__` gives each step whole, drawing a tiled
step straight into it, and `SyntheticModel._ranges` gives each step as
kv-group ranges, a tile as soon as it is drawn and the groups that hold a
planted head last. No step of a decode workload, window row or decode row, is
held whole, so a caller that streams holds one tile or one batch of small
steps, the planted groups, and one corpus step.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, groupby

import numpy as np

from .cache import sum_onto_kv_heads
from .errors import InvalidInputError, ShapeError

__all__ = [
    "TEXT_TOKEN",
    "AttentionTrace",
    "DecodeSteps",
    "DecodeWorkload",
    "MaskedGroups",
    "ModelGeometry",
    "OcrCorpus",
    "OcrSample",
    "PlantedHeadSet",
    "SyntheticModel",
    "build_synthetic_model",
    "generate_ocr_samples",
    "mask_heads",
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
    generator lays the prompt out so, and `corpusfile.load_corpus` checks each
    record.
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
    `corpusfile.load_corpus` checks every row it reads, so the trace checks
    only shapes.
    A drawn sample's `steps` is a `DecodeSteps`, which draws one step, or one
    batch of whole steps, when it is read, the same bits on every pass. Any
    other iterable of steps that gives its (layers, query_heads) as `heads`
    and its step count as `len` is taken as such. Otherwise `steps` is a
    sequence of arrays, held as a tuple of read-only views of the arrays
    given, not copies.
    """

    steps: Iterable[np.ndarray]
    prompt_len: int

    def __post_init__(self) -> None:
        if hasattr(self.steps, "heads"):
            return
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
    def heads(self) -> tuple[int, int]:
        """(layers, query_heads)."""
        steps = self.steps
        return steps.heads if hasattr(steps, "heads") else steps[0].shape[:2]

    @property
    def layers(self) -> int:
        return self.heads[0]

    @property
    def query_heads(self) -> int:
        return self.heads[1]

    @property
    def out_len(self) -> int:
        return len(self.steps)


# values in one draw: the drawing loop (`SyntheticModel._draw`) fills and
# normalizes a batch of small whole steps, or one row tile of a larger step,
# about this many values at a time, so its scratch never needs a whole step
TILE_VALUES = 1 << 16


def _row_tiles(rows: int, visible: int, group: int = 1) -> Iterator[tuple[int, int]]:
    """The (start, stop) ranges of consecutive rows that a step drawn alone is cut into.

    A tile holds whole kv groups of `group` rows, about TILE_VALUES values and
    at least one group, and at least two rows: a tile of one row occurs only
    when the block has one row, and a one-row remainder joins the tile before
    it. That keeps each range total the same float sum as the whole block's:
    numpy sums an (n, 1) copy pairwise, but an (n, T) copy with T >= 2
    position by position. `rows` is a multiple of `group`.
    """
    size = group * max(-(-2 // group), TILE_VALUES // max(group * visible, 1))
    start = 0
    while start < rows:
        stop = rows if rows - start - size <= 1 else start + size
        yield start, stop
        start = stop


def _step_batches(rows: int, lp: int, n: int, text_off: int) -> list[tuple[int, int]]:
    """The (first, stop) ranges of the n steps that `_plan` draws at a time.

    Step t is `rows` rows of lp + t positions. Consecutive steps that see text
    (lp + t > text_off) join one batch while its `_normalize_blocks` table,
    its last step's positions by all its steps' rows, holds at most
    TILE_VALUES values. Any other step is a batch of its own, drawn in row
    tiles: one larger than that, one that sees no text, and every step of a
    one-row model. A one-row step's (positions, 1) copy is summed pairwise,
    where side by side with others it would be summed position by position.
    """
    batches = []
    first = 0
    while first < n:
        stop = first + 1
        if rows > 1 and lp + first > text_off:
            while stop < n and (stop + 1 - first) * (lp + stop) * rows <= TILE_VALUES:
                stop += 1
        batches.append((first, stop))
        first = stop
    return batches


def _plan(geo: ModelGeometry, lp: int, n: int, text_off: int) -> list[list[tuple]]:
    """The draws that n steps are cut into, each a list of (step, start row, stop row) pieces.

    Step t is the geometry's layers * query_heads rows, in kv groups, of
    lp + t positions. A `_step_batches` batch of several steps is one draw of
    their whole rows. A step of its own is one draw per `_row_tiles` tile: of
    its whole rows where it fits one tile. A draw's pieces are normalized
    together.
    """
    rows = geo.layers * geo.query_heads
    draws = []
    for first, stop in _step_batches(rows, lp, n, text_off):
        tiles = _row_tiles(rows, lp + first, geo.group_size) if stop == first + 1 else [(0, rows)]
        draws += ([(t, a, b) for t in range(first, stop)] for a, b in tiles)
    return draws


def _fill(rng, rows: np.ndarray, t: int, draw_edit=None):
    """Fill `rows`, rows of step t, with `standard_exponential` draws; return step t's edit.

    `draw_edit` is given where `rows` are the step's last: the step's edit
    randoms are drawn right after its fill, and `draw_edit(rng, t)` is
    returned. Otherwise the step has rows still to draw, and None is returned.
    Consecutive fills give the values one fill of all the rows would, which
    are those of `rng.exponential`, wherever the rows are cut.
    """
    rng.standard_exponential(out=rows)
    return None if draw_edit is None else draw_edit(rng, t)


def _normalize_blocks(blocks, roles, scratch: np.ndarray) -> None:
    """Compose role-wise Dirichlet rows into rows that sum to one, in place.

    `blocks` are (rows, visible) arrays, the widest last, and `roles` holds
    (start, stop, mass) ranges that partition the widest one's positions;
    each range is rescaled to carry its mass. Ranges with no position forfeit
    their mass to the rest (renormalized), so a narrower block must have a
    position in every range that has one. Every block is copied, transposed,
    into one key-major table in `scratch`, (positions, rows of every block),
    zero past its own length, and a range's totals are summed down a C-order
    slice of it. That fixes the order of each float sum: position by
    position, or pairwise where the table is one column. Adding the
    padding's +0.0 leaves a positive sum as it is. Each range is scaled in
    the table and every block is copied back. `scratch` is a flat float64
    buffer of at least (widest visible) * (all rows) values: one draw of
    `SyntheticModel._draw`, a row tile or a batch of whole steps.
    """
    width = sum(block.shape[0] for block in blocks)
    top = blocks[-1].shape[1]
    table = scratch[: top * width].reshape(top, width)
    at = 0
    for block in blocks:
        rows, visible = block.shape
        columns = table[:, at : at + rows]
        columns[:visible] = block.T
        columns[visible:] = 0.0
        at += rows
    live = [(start, stop, m) for start, stop, m in roles if stop > start]
    z = sum(m for _, _, m in live)
    for start, stop, m in live:
        part = table[start:stop]
        total = part.sum(axis=0)
        part *= m / z
        part /= total
    at = 0
    for block in blocks:
        rows, visible = block.shape
        block[...] = table[:visible, at : at + rows].T
        at += rows


def _fork(rng: np.random.Generator) -> np.random.Generator:
    """A new generator at `rng`'s state; drawing from either leaves the other unmoved.

    It copies the bit generator's state alone, which costs a third of a
    `copy.deepcopy`, paid once per drawn sample and per pass.
    """
    fork = np.random.Generator(type(rng.bit_generator)(0))
    fork.bit_generator.state = rng.bit_generator.state
    return fork


def _draw_count(rng, span: tuple[int, int]) -> int:
    """One integer drawn from the inclusive range `span`."""
    return int(rng.integers(span[0], span[1] + 1))


def _rect_patches(r0: int, c0: int, rows: int, cols: int, grid_cols: int) -> np.ndarray:
    """Row-major grid indices of the rows x cols patch rectangle at (r0, c0)."""
    return ((r0 + np.arange(rows))[:, None] * grid_cols + (c0 + np.arange(cols))).ravel()


def _plant_hits(rows, region: np.ndarray, hits) -> None:
    """Rebuild rows[i], for each hit (i, weights, peak), as peak + region + scaled background.

    The region's `weights` are scaled to REGION_MASS, and PEAK_MASS lands on
    position `peak`, so the row's argmax is the peak.
    """
    for i, weights, peak in hits:
        row = rows[i]
        row *= 1.0 - PEAK_MASS - REGION_MASS
        row[region] += REGION_MASS * weights / weights.sum()
        row[peak] += PEAK_MASS


@dataclass(frozen=True)
class MaskedGroups:
    """The window scores of the workload's model with each head set masked, where they differ.

    `heads[i]` is set i's (layer, query_head) pairs, less any the model
    masks already. The table has one row per (set, kv group holding one of
    its heads), sorted by kv group, ties in set order: row j is set
    `sets[j]`'s kv group `groups[j]`, flat layer * kv_heads + kv_head,
    `rows[j, k]` is True where that group's query head k is masked, and
    `scores[j]` is the group's row of that set's masked model's
    `window_scores`. Every other group's row is the workload's own. A masked
    model's decode rows are the workload's with each masked row set to
    exactly 1/visible. The default table holds no set.
    """

    heads: tuple[frozenset, ...] = ()
    # (k,) sets and groups, (k, group_size) bool rows and (k, Lp - w) scores
    sets: np.ndarray = field(default_factory=partial(np.empty, 0, np.intp), repr=False)
    groups: np.ndarray = field(default_factory=partial(np.empty, 0, np.intp), repr=False)
    rows: np.ndarray = field(default_factory=partial(np.empty, (0, 0), bool), repr=False)
    scores: np.ndarray = field(default_factory=partial(np.empty, (0, 0)), repr=False)


@dataclass(frozen=True)
class DecodeWorkload:
    """Deterministic decode scenario: prefill window scores plus per-step rows.

    `window_scores` is each kv head's mean observation-window attention per
    prompt key left of the window: the query heads of a group are summed, then
    the w window rows are averaged. `steps` yields output token t's
    (layers, query_heads, prompt_len + t) rows, t = 0..out_len-1, on every
    pass over it. A model-built workload holds a `DecodeSteps`, which draws
    each step as it is read; a hand-built one may hold a tuple of arrays.
    `masked` holds the window scores of each head set the workload was asked
    to derive, in the order asked, as one `MaskedGroups` table; a hand-built
    workload's holds no set.
    """

    prompt_len: int
    out_len: int
    window: int
    union_positions: np.ndarray = field(repr=False)
    token_regions: tuple[np.ndarray, ...] = field(repr=False)
    window_scores: np.ndarray = field(repr=False)  # (L, H_kv, Lp - w)
    steps: Iterable[np.ndarray] = field(repr=False)  # per t: (L, Hq, Lp + t)
    masked: MaskedGroups = field(default_factory=MaskedGroups, repr=False)


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

    def _finish(self, block: np.ndarray, edit) -> None:
        """Edit a whole step's (layers, query_heads, visible) rows, then set its masked rows.

        `edit` takes the planted heads' rows, in planted order. Each masked
        head's row is then set to exactly 1/visible.
        """
        edit([block[l, h] for l, h in self.planted.heads])
        for l, h in sorted(self.masked):
            block[l, h] = 1.0 / block.shape[2]

    def _decode_hits(self, rng, region: np.ndarray) -> list:
        """Draw which planted heads' decode rows hit `region`, each with probability `strength`.

        Returns (planted index, region weights, peak position) per hit, in
        planted order, for `_plant_hits`.
        """
        hits = []
        for i in range(len(self.planted)):
            u = rng.random()
            if region.size and u < self.planted.strength:
                weights = rng.exponential(size=region.size)
                hits.append((i, weights, int(region[rng.integers(region.size)])))
        return hits

    def _window_spreads(self, rng, union_vis: np.ndarray) -> list:
        """Draw each planted head's spread over the visible union, in planted order, for
        `_plant_window`; none where no union position is visible."""
        size = union_vis.size
        return [rng.exponential(size=size) for _ in self.planted.heads] if size else []

    def _plant_window(self, rows, union_vis: np.ndarray, spreads: list) -> None:
        """Steer part of each planted head's window row, in `rows`, onto the visible union."""
        u_mass = WINDOW_REGION_FACTOR * self.planted.strength
        for row, spread in zip(rows, spreads):
            row *= 1.0 - u_mass
            row[union_vis] += u_mass * spread / spread.sum()

    def _draw(self, rng, plan, lp: int, n_pre: int, text_off: int, bg, draw_edit, place):
        """The one drawing loop: draw the steps of `plan`, step t of lp + t positions.

        Positions run sinks [0, n_pre) | leak [n_pre, text_off) | text
        [text_off, visible); `bg` holds the (text, sink, leak) masses. A step
        that does not reach text_off sees only part of the leak range.
        `plan` is the steps' `_plan`. Each piece of a draw, rows [a, b) of
        step t, is drawn into `place(t, a, b)`, a (b - a, lp + t) array, by
        `_fill`, in stream order; after a step's last piece, the step's edit
        randoms are drawn, and `draw_edit(rng, t)` gives its edit, which takes
        the planted heads' rows. So the generator is read in the same order
        however the steps are cut. Then `_normalize_blocks` normalizes the
        draw's pieces together, and each is yielded as ((t, a, b), edit),
        `edit` None on every piece but a step's last. The rows are the
        placer's: nothing here holds a piece once the next is asked for.
        """
        rows = self.geometry.layers * self.geometry.query_heads
        scratch = np.empty(max((sum(b - a for _, a, b in draw) * (lp + draw[-1][0])
                                for draw in plan), default=0))
        for draw in plan:
            blocks = [place(t, a, b) for t, a, b in draw]
            edits = [_fill(rng, block, t, draw_edit if b == rows else None)
                     for (t, _, b), block in zip(draw, blocks)]
            visible = lp + draw[-1][0]
            _normalize_blocks(blocks, [(text_off, visible, bg[0]), (0, n_pre, bg[1]),
                                       (n_pre, min(text_off, visible), bg[2])], scratch)
            del blocks
            yield from zip(draw, edits)

    def _ranges(self, rng, plan, lp: int, n_pre: int, text_off: int, bg, draw_edit) -> Iterator:
        """Per step of `_draw`, an iterator of its (first kv group, (groups, group_size, visible))
        row ranges.

        Each draw is placed in one buffer, `room`, which the next draw reuses,
        so a range is valid until the next range is asked for. A step drawn
        whole is edited, masked and handed on as one range. A step drawn in tiles hands on each tile's groups as soon as
        it is drawn, in runs of consecutive groups. The groups that hold a
        planted head are copied aside (`kept`) instead, since the step's edit
        comes after its last tile; it is applied to the planted heads' rows
        there, and those groups go out last. A masked head's row is set to
        exactly 1/visible before its group goes out. A step's ranges are all
        drawn before the next step is, even if its reader stops early, so
        every step starts from the same generator state.
        """
        geo = self.geometry
        g, rows = geo.group_size, geo.layers * geo.query_heads
        # flat rows layer * query_heads + head; a kept row's slot is its row in `kept`
        planted = [l * geo.query_heads + h for l, h in self.planted.heads]
        masked = [l * geo.query_heads + h for l, h in sorted(self.masked)]
        groups = sorted({r // g for r in planted})
        slots = {q * g + k: i * g + k for i, q in enumerate(groups) for k in range(g)}
        masked_rows = [r for r in masked if r not in slots]
        # the kept groups' runs of consecutive kv groups, as lists of kept indices
        kept_runs = [list(run) for _, run in groupby(range(len(groups)), lambda i: groups[i] - i)]
        n = sum(b == rows for draw in plan for _, _, b in draw)  # one last piece a step
        kept = np.empty(len(groups) * g * (lp + n - 1))
        room = np.empty(max((sum((b - a) * (lp + t) for t, a, b in draw) for draw in plan),
                            default=0))
        placed = deque()

        def place(t, a, b):
            at = sum(block.size for block in placed)
            placed.append(room[at : at + (b - a) * (lp + t)].reshape(b - a, lp + t))
            return placed[-1]

        def step_ranges(pieces):
            (t, start, stop), edit = next(pieces)
            visible = lp + t
            if stop - start == rows:
                block = placed.popleft()
                self._finish(block.reshape(geo.layers, geo.query_heads, visible), edit)
                yield 0, block.reshape(-1, g, visible)
                return
            held = kept[: len(groups) * g * visible].reshape(-1, visible)
            m = 0
            for (_, start, stop), edit in chain([((t, start, stop), edit)], pieces):
                block = placed.popleft()
                while m < len(masked_rows) and masked_rows[m] < stop:
                    block[masked_rows[m] - start] = 1.0 / visible
                    m += 1
                run = start
                for r in range(start, stop, g):
                    if r in slots:
                        held[slots[r] : slots[r] + g] = block[r - start : r - start + g]
                        if r > run:
                            yield run // g, block[run - start : r - start].reshape(-1, g, visible)
                        run = r + g
                if stop > run:
                    yield run // g, block[run - start :].reshape(-1, g, visible)
                if edit is not None:
                    break
            edit([held[slots[r]] for r in planted])
            held[[slots[r] for r in masked if r in slots]] = 1.0 / visible
            for run in kept_runs:
                yield groups[run[0]], held[run[0] * g : (run[-1] + 1) * g].reshape(-1, g, visible)

        pieces = self._draw(rng, plan, lp, n_pre, text_off, bg, draw_edit, place)
        for _ in range(n):
            ranges = step_ranges(pieces)
            yield ranges
            deque(ranges, maxlen=0)

    def sample_ocr(self, rng) -> tuple[OcrSample, AttentionTrace]:
        """Generate one OCR-style sample and its decode trace, whose steps are drawn when read.

        The trace draws from a copy of `rng` as it stands after the layout.
        """
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

        steps = DecodeSteps(
            self, _fork(rng), lp, tuple(regions), n_pre, instr_off, CORPUS_BG
        )
        sample = OcrSample(
            (h_px, w_px),
            (gr, gc),
            tuple((tok, tuple(float(v) for v in bbox)) for tok, bbox in pairs),
            tuple(layout.tolist()),
        )
        return sample, AttentionTrace(steps, lp)

    def decode_workload(
        self, prompt_len: int, out_len: int, window: int, masks: Iterable = ()
    ) -> DecodeWorkload:
        """Build the prefill window scores; the decode rows are drawn when read.

        The prompt is laid out as a few leading sink tokens, a large image
        block, and a short instruction tail that the window mostly covers.
        Planted heads aim their window rows at the union of the regions their
        upcoming output tokens will need. The window rows are one stream of
        steps, row i seeing Lp - w + 1 + i positions, read by `_ranges`: a
        batch of small rows, or a tile of kv groups of a large one, at a time.
        Each range is folded into its groups' scores as it arrives, in
        query-head order: no large window row, let alone a
        (layers, query_heads, w, Lp) tensor, is held whole.
        No decode row is drawn here: the workload's `steps` start from the
        generator's state after the window rows.

        Each entry of `masks` is a set of (layer, query_head) pairs; the
        workload's `masked` table gives, for each, the window scores that
        `mask_heads(self, heads).decode_workload(...)` would hold. Masking
        draws nothing, so that model draws these window rows; the same pass
        copies, from each range, the groups holding a masked head, sets those
        rows to 1/visible and sums them onto their kv head in query-head
        order, as `sum_onto_kv_heads` sums any block. The table's rows are
        sorted by kv group, so a range's rows are one slice of it, found by
        one search, and every set's groups in the range are gathered and
        summed with one call each. Every score is then the same float sum, in
        the same order, as the masked model's.
        """
        if window < 0:
            raise InvalidInputError("window must be non-negative")
        if prompt_len < window:
            raise InvalidInputError(f"prompt_len {prompt_len} shorter than window {window}")
        if out_len < 1:
            raise InvalidInputError("out_len must be positive")
        geo = self.geometry
        group, n = geo.group_size, prompt_len - window
        heads = tuple(mask_heads(self, mask).masked - self.masked for mask in masks)
        # one row per (set, kv group it touches), sorted by kv group, ties in set order
        touched = sorted({(l * geo.kv_heads + h // group, i) for i, hs in enumerate(heads)
                          for l, h in hs})
        row_of = {cell: j for j, cell in enumerate(touched)}
        marks = np.zeros((len(touched), group), dtype=bool)
        for i, hs in enumerate(heads):
            for l, h in hs:
                marks[row_of[l * geo.kv_heads + h // group, i], h % group] = True
        groups, sets = np.array(touched, dtype=np.intp).reshape(-1, 2).T.copy()
        scores = np.zeros((len(touched), n))
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

        window_scores = np.zeros((geo.layers, geo.kv_heads, n))
        folded = window_scores.reshape(geo.layers * geo.kv_heads, n)  # one row per kv group
        first = lp - window + 1  # window row i sees first + i positions

        def edit(rng, i):
            union_vis = union_positions[union_positions < first + i]
            return partial(self._plant_window, union_vis=union_vis,
                           spreads=self._window_spreads(rng, union_vis))

        plan = _plan(geo, first, window, tail_off)
        window_rows = self._ranges(rng, plan, first, n_pre, tail_off, DECODE_BG, edit)
        for i, ranges in enumerate(window_rows):
            visible = first + i
            for start, rows in ranges:
                stop = start + rows.shape[0]
                folded[start:stop] += sum_onto_kv_heads(rows[:, :, :n], 1)[:, 0]
                if heads:
                    a, b = np.searchsorted(groups, (start, stop))
                    rows_of = rows[groups[a:b] - start, :, :n]
                    rows_of[marks[a:b]] = 1.0 / visible
                    scores[a:b] += sum_onto_kv_heads(rows_of, 1)[:, 0]
        if window:
            window_scores /= window
            scores /= window

        regions = tuple(token_regions)
        steps = DecodeSteps(self, rng, lp, regions, n_pre, tail_off, DECODE_BG)
        masked = MaskedGroups(heads, sets, groups, marks, scores)
        return DecodeWorkload(
            lp, out_len, window, union_positions, regions, window_scores, steps, masked
        )


@dataclass(frozen=True)
class DecodeSteps:
    """A model's generated rows, drawn again on every pass: a workload's decode steps or
    a drawn sample's trace.

    `rng` is the generator as it stands after the window rows or the sample
    layout, and it is never advanced. Each pass draws from a copy of it (`_fork`),
    so every pass reads the same bits. Both readers take their steps from
    `SyntheticModel._draw`, the one drawing loop. Iterating yields output
    token t's whole (layers, query_heads, prompt_len + t) rows, one step, or
    one batch of whole steps, in memory at a time; a step drawn in tiles is
    drawn straight into the array handed on. `ranges` yields each step as
    kv-group ranges (`SyntheticModel._ranges`), one draw (a tile, or a batch
    of whole small steps) and the planted groups in memory. `n_pre`, `text_off` and `bg` are the loop's role
    offsets and masses.
    """

    model: SyntheticModel
    rng: np.random.Generator = field(repr=False)
    prompt_len: int
    regions: tuple[np.ndarray, ...] = field(repr=False)
    n_pre: int
    text_off: int
    bg: tuple[float, float, float]

    @property
    def heads(self) -> tuple[int, int]:
        """(layers, query_heads)."""
        return self.model.geometry.layers, self.model.geometry.query_heads

    def __len__(self) -> int:
        return len(self.regions)

    def __iter__(self) -> Iterator[np.ndarray]:
        model, (layers, heads) = self.model, self.heads
        held = deque()

        def place(t, a, b):
            if a == 0:
                held.append(np.empty((layers, heads, self.prompt_len + t)))
            return held[-1].reshape(layers * heads, -1)[a:b]

        for _, edit in model._draw(_fork(self.rng), *self._stream(), place):
            if edit is not None:
                step = held.popleft()
                model._finish(step, edit)
                yield step
                del step

    def ranges(self) -> Iterator[Iterator[tuple[int, np.ndarray]]]:
        """Per step, its (first kv group, (groups, group_size, prompt_len + t)) row ranges."""
        return self.model._ranges(_fork(self.rng), *self._stream())

    def _stream(self) -> tuple:
        """The steps' arguments of `SyntheticModel._draw` and `_ranges`, but the generator."""
        plan = _plan(self.model.geometry, self.prompt_len, len(self), self.text_off)
        return plan, self.prompt_len, self.n_pre, self.text_off, self.bg, self._edit

    def _edit(self, rng, t: int):
        """Draw step t's planted hits; return the edit that plants them in the planted rows."""
        region = self.regions[t]
        return partial(_plant_hits, region=region, hits=self.model._decode_hits(rng, region))


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
    pass. Nothing is cached: a caller that iterates holds one sample at a
    time, and a caller that reads a sample twice makes it twice. A drawn
    sample's trace holds no step until it is read, and draws its steps again
    on each pass.
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
