"""Window-key ranking over a stored window tensor: the reference for the scores
`SyntheticModel.decode_workload` folds up row by row as it draws them.

Query heads are summed onto their kv head, then the w rows are averaged per
key, summed in row order. A budget b keeps the window plus
`order[..., :b - w]`, whatever the plan.
"""

from typing import NamedTuple

import numpy as np

from sparsemm.cache import _descending_order, sum_onto_kv_heads
from sparsemm.errors import InvalidInputError, ShapeError


class KeyRanking(NamedTuple):
    scores: np.ndarray  # (L, H_kv, Lp - w) window-mean score per key left of the window
    order: np.ndarray  # (L, H_kv, Lp - w) key positions, best first


def rank_window_keys(window_attn, kv_heads: int, w: int) -> KeyRanking:
    """Score and rank every kv head's prompt keys left of the window.

    `window_attn` is (layers, query_heads, w, Lp). No (layers, kv_heads, w, Lp)
    temporary is built.
    """
    attn = np.asarray(window_attn, dtype=np.float64)
    if attn.ndim != 4:
        raise ShapeError("window_attn must be (layers, query_heads, w, Lp)")
    layers, query_heads, rows, lp = attn.shape
    if query_heads % kv_heads != 0:
        raise ShapeError(f"{query_heads} query heads not divisible by {kv_heads} kv heads")
    if rows != w:
        raise ShapeError(f"window_attn has {rows} rows, expected w={w}")
    if lp < w:
        raise InvalidInputError(f"window {w} exceeds prompt length {lp}")
    scores = np.zeros((layers, kv_heads, lp - w))  # an empty window scores every key 0
    for i in range(w):
        scores += sum_onto_kv_heads(attn[:, :, i, : lp - w], kv_heads)
    if w:
        scores /= w
    return KeyRanking(scores, _descending_order(scores))
