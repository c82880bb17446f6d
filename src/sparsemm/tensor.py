"""Minimal dense-matrix kernel used by the attention simulator and cache engine.

Everything is float64 and pure: operations never mutate their inputs, and
`Matrix` freezes its backing array at construction time. The two kernels
(scaled matmul, causally masked row softmax) are the only numeric primitives
the rest of the package builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ShapeError

__all__ = [
    "CausalMask",
    "Matrix",
    "matmul_scaled",
    "softmax_row_masked",
]


@dataclass(frozen=True)
class Matrix:
    """Immutable 2-D float64 matrix.

    All entries must be finite. The backing array is copied and marked
    read-only, so a Matrix can be shared freely.
    """

    array: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.array, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"Matrix requires a 2-D array, got ndim={arr.ndim}")
        if arr.size and not np.isfinite(arr).all():
            raise InvalidInputError("Matrix entries must be finite")
        arr = np.ascontiguousarray(arr).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        return cls(np.asarray(rows, dtype=np.float64))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 0 or cols < 0:
            raise ShapeError("Matrix dimensions must be non-negative")
        return cls(np.zeros((rows, cols), dtype=np.float64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def row(self, i: int) -> np.ndarray:
        return self.array[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.array.shape == other.array.shape and bool(
            np.array_equal(self.array, other.array)
        )

    def __repr__(self) -> str:
        return f"Matrix(rows={self.rows}, cols={self.cols})"


@dataclass(frozen=True)
class CausalMask:
    """Admissibility rule for causal attention at absolute positions.

    A query at absolute position p may attend to key position j iff j <= p.
    The mask itself is stateless; absolute positions come from the caller's
    row offset.
    """

    def allows(self, query_pos: int, key_pos: int) -> bool:
        return key_pos <= query_pos

    def admissible(self, rows: int, cols: int, row_offset: int) -> np.ndarray:
        """Boolean (rows, cols) array; entry [i, j] is True iff j <= row_offset + i."""
        if rows < 0 or cols < 0:
            raise ShapeError("mask dimensions must be non-negative")
        positions = row_offset + np.arange(rows)[:, None]
        return np.arange(cols)[None, :] <= positions


def matmul_scaled(q: Matrix, k: Matrix, scale: float) -> Matrix:
    """Return scale * q @ k.T.

    `q` is (n, d) and `k` is (m, d); the result is (n, m). Callers computing
    attention logits pass scale = 1/sqrt(d).
    """
    if not isinstance(q, Matrix) or not isinstance(k, Matrix):
        raise InvalidInputError("matmul_scaled expects Matrix operands")
    if q.cols != k.cols:
        raise ShapeError(
            f"inner dimensions differ: q has {q.cols} columns, k has {k.cols}"
        )
    if not np.isfinite(scale):
        raise InvalidInputError("scale must be finite")
    return Matrix(scale * (q.array @ k.array.T))


def softmax_row_masked(scores: Matrix, mask: CausalMask, row_offset: int) -> Matrix:
    """Row-wise softmax with masked entries pinned to exactly zero.

    Row i of `scores` holds the logits of the query at absolute position
    row_offset + i; key position j is admissible iff mask.allows(row_offset + i, j).
    Each output row sums to 1 over its admissible entries. A row with no
    admissible entry is rejected.
    """
    if not isinstance(scores, Matrix):
        raise InvalidInputError("softmax_row_masked expects a Matrix")
    n, m = scores.rows, scores.cols
    allowed = mask.admissible(n, m, row_offset)
    if n and not allowed.any(axis=1).all():
        bad = int(np.flatnonzero(~allowed.any(axis=1))[0])
        raise InvalidInputError(
            f"row {bad} (absolute position {row_offset + bad}) has no admissible entry"
        )
    logits = np.where(allowed, scores.array, -np.inf)
    if n == 0 or m == 0:
        return Matrix(np.zeros((n, m)))
    stabilized = logits - logits.max(axis=1, keepdims=True)
    weights = np.exp(stabilized, where=allowed, out=np.zeros((n, m)))
    return Matrix(weights / weights.sum(axis=1, keepdims=True))
