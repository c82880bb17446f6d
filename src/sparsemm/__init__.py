"""Visual-head scoring, per-head KV-cache budgets, and window-based eviction.

The pipeline has three stages: `chaser` scores attention heads by how often
their argmax lands on the image patches of the token being generated,
`allocator` converts those scores into integer per-head cache budgets, and
`cache` evicts prompt keys down to each budget using an observation-window
score. `simmodel` supplies a deterministic synthetic transformer with planted
visual heads for validation, and `bench` packages the comparison experiments.
"""

from .errors import (
    DegenerateBoxError,
    InfeasibleBudgetError,
    InvalidInputError,
    ShapeError,
    SparseMMError,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateBoxError",
    "InfeasibleBudgetError",
    "InvalidInputError",
    "ShapeError",
    "SparseMMError",
]
