"""Visual-head chasing: turn OCR-grounded decode traces into per-head scores.

For every generated token the scorer looks up the token's ground-truth
bounding box, maps the box onto the image-patch grid, and checks whether each
head's full-row attention argmax lands on one of the covered patch tokens. A
hit adds 1/|patch set| so that precise localization outscores diffuse
coverage. Per-sample increments are summed over a corpus, divided by the
token count, and min-max normalized into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .artifacts import counts, elements, numbers, read_object, write_json
from .errors import DegenerateBoxError, InvalidInputError, ShapeError

if TYPE_CHECKING:
    from .simmodel import AttentionTrace, OcrSample

__all__ = [
    "HeadScoreMatrix",
    "SampleScore",
    "aggregate_gqa_scores",
    "chase_corpus",
    "load_scores",
    "match_bbox_to_patches",
    "normalize_corpus",
    "save_scores",
    "score_sample",
    "token_positions",
]


@dataclass(frozen=True)
class HeadScoreMatrix:
    """Non-negative per-(layer, head) scores.

    `corpus_tokens` is the number of output tokens that contributed.
    """

    scores: np.ndarray = field(repr=False)
    corpus_tokens: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.scores, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError("scores must be a 2-D (layers, heads) array")
        if arr.size and (not np.isfinite(arr).all() or (arr < 0).any()):
            raise InvalidInputError("scores must be finite and non-negative")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    @property
    def layers(self) -> int:
        return self.scores.shape[0]

    @property
    def heads(self) -> int:
        return self.scores.shape[1]

    @classmethod
    def zeros(cls, layers: int, heads: int) -> "HeadScoreMatrix":
        return cls(np.zeros((layers, heads)))


@dataclass(frozen=True)
class SampleScore:
    """Unnormalized per-sample increment plus matching diagnostics.

    `increment.corpus_tokens` counts the scored tokens. `positions` is the
    sample's `token_positions`, one entry per output token.
    """

    increment: HeadScoreMatrix
    tokens_skipped: int
    positions: tuple[np.ndarray | None, ...] = field(repr=False, compare=False)


def match_bbox_to_patches(bbox, image_shape, grid) -> tuple[int, ...]:
    """Map a pixel rectangle onto the patch grid.

    The image is tiled uniformly into grid[0] x grid[1] cells; a patch counts
    as covered when its cell intersects the box with positive area, so a
    boundary touch does not count. Returns the covered cells' row-major
    indices, ascending.
    """
    height, width = image_shape
    rows, cols = grid
    if rows <= 0 or cols <= 0:
        raise InvalidInputError(f"grid must be positive, got {grid}")
    if height <= 0 or width <= 0:
        raise InvalidInputError(f"image shape must be positive, got {image_shape}")
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not (x1 > x0 and y1 > y0):
        raise DegenerateBoxError(f"bbox {bbox} has no positive area")
    if x0 < 0 or y0 < 0 or x1 > width or y1 > height:
        raise DegenerateBoxError(f"bbox {bbox} lies outside a {height}x{width} image")

    cell_h = height / rows
    cell_w = width / cols
    # open-interval overlap: cell [c*cw, (c+1)*cw) intersects (x0, x1) with area
    r_first = max(0, int(np.floor(y0 / cell_h)))
    r_last = min(rows - 1, int(np.ceil(y1 / cell_h)) - 1)
    c_first = max(0, int(np.floor(x0 / cell_w)))
    c_last = min(cols - 1, int(np.ceil(x1 / cell_w)) - 1)
    covered = []
    for r in range(r_first, r_last + 1):
        for c in range(c_first, c_last + 1):
            if min(x1, (c + 1) * cell_w) > max(x0, c * cell_w) and min(y1, (r + 1) * cell_h) > max(y0, r * cell_h):
                covered.append(r * cols + c)
    return tuple(covered)


def token_positions(sample: OcrSample, out_len: int) -> list[np.ndarray | None]:
    """Per output token, the ascending prompt positions of its bbox's patches.

    A token is skipped, and reads None, when its (text, bbox) pair is
    missing, its box is degenerate, or its patches hold no prompt position.
    """
    layout = np.asarray(sample.prompt_layout)
    out: list[np.ndarray | None] = []
    for t in range(out_len):
        if t >= len(sample.pairs):
            out.append(None)
            continue
        try:
            patches = match_bbox_to_patches(sample.pairs[t][1], sample.image_shape, sample.grid)
        except DegenerateBoxError:
            out.append(None)
            continue
        positions = np.flatnonzero(np.isin(layout, patches))
        out.append(positions if positions.size else None)
    return out


def score_sample(sample: OcrSample, trace: AttentionTrace) -> SampleScore:
    """Score one sample: accumulate 1/|I| for each head whose argmax hits I.

    Tokens that `token_positions` skips (a missing or malformed (text, bbox)
    pair, or an empty patch set) are counted in `tokens_skipped` instead of
    being treated as misses.
    """
    inc = np.zeros((trace.layers, trace.query_heads))
    scored = 0
    skipped = 0
    token_sets = tuple(token_positions(sample, trace.out_len))
    for rows, positions in zip(trace.steps, token_sets):
        if positions is None:
            skipped += 1
            continue
        top = np.argmax(rows, axis=2)
        inc += (1.0 / positions.size) * np.isin(top, positions)
        scored += 1
    return SampleScore(HeadScoreMatrix(inc, scored), skipped, token_sets)


def normalize_corpus(total: HeadScoreMatrix) -> HeadScoreMatrix:
    """Divide a corpus's summed increment by its token count, then min-max normalize.

    An all-zero total stays all-zero; an all-equal positive total maps to all
    ones (every head attains the maximum).
    """
    if total.corpus_tokens <= 0:
        raise InvalidInputError("zero scored tokens in corpus")
    mean = total.scores / total.corpus_tokens
    lo, hi = mean.min(), mean.max()
    if hi > lo:
        normalized = (mean - lo) / (hi - lo)
    elif hi > 0.0:
        normalized = np.ones_like(mean)
    else:
        normalized = np.zeros_like(mean)
    return HeadScoreMatrix(normalized, total.corpus_tokens)


def chase_corpus(samples) -> tuple[HeadScoreMatrix, int]:
    """Score (sample, trace) pairs in order, summing as it goes, and normalize the sum.

    Returns the normalized score matrix and the number of skipped tokens.
    Every sample must share the first one's (layers, query_heads).
    """
    total, tokens, skipped = None, 0, 0
    for sample, trace in samples:
        result = score_sample(sample, trace)
        inc = result.increment.scores
        if total is None:
            total = np.zeros_like(inc)
        if inc.shape != total.shape:
            raise ShapeError(f"a sample scores {inc.shape} heads, the first one {total.shape}")
        total += inc
        tokens += result.increment.corpus_tokens
        skipped += result.tokens_skipped
    if total is None:
        raise InvalidInputError("chase_corpus requires at least one sample")
    return normalize_corpus(HeadScoreMatrix(total, tokens)), skipped


def aggregate_gqa_scores(scores: HeadScoreMatrix, group: int) -> HeadScoreMatrix:
    """Collapse query-head scores onto kv heads by summing consecutive groups.

    Query head q belongs to kv head q // group. group=1 is the MHA identity.
    """
    if group <= 0:
        raise InvalidInputError("group must be positive")
    if scores.heads % group != 0:
        raise ShapeError(f"{scores.heads} query heads not divisible by group {group}")
    kv = scores.scores.reshape(scores.layers, scores.heads // group, group).sum(axis=2)
    return HeadScoreMatrix(kv, scores.corpus_tokens)


def save_scores(path, matrix: HeadScoreMatrix) -> str:
    """Write the score-file JSON: layers, heads, row-major scores, corpus tokens.

    Returns the hex sha256 of the file's bytes, which `sparsemm chase` prints.
    """
    return write_json(path, {
        "layers": matrix.layers,
        "heads": matrix.heads,
        "scores": [float(v) for v in matrix.scores.ravel()],
        "corpus_tokens": matrix.corpus_tokens,
    })


def load_scores(path) -> HeadScoreMatrix:
    """The score matrix of a `save_scores` file; a malformed file raises InvalidInputError.

    Scores must be finite, non-negative JSON numbers. Keys outside the matrix's
    fields, such as the `normalization` that older score files hold, are ignored.
    """
    where = f"score file {path}"
    payload = read_object(path, "score file", ("layers", "heads", "scores"))
    layers, heads = counts({"layers": payload["layers"], "heads": payload["heads"]}, where, 1)
    named = elements(payload["scores"], "scores", where)
    flat = np.array(numbers(named, where, 0), dtype=np.float64)
    if flat.size != layers * heads:
        raise ShapeError(f"{where}: scores length does not match layers*heads")
    (corpus_tokens,) = counts({"corpus_tokens": payload.get("corpus_tokens", 0)}, where)
    return HeadScoreMatrix(flat.reshape(layers, heads), corpus_tokens)
