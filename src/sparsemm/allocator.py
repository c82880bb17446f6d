"""Per-head KV-cache budget allocation.

The flagship policy splits a global slot budget B over N = layers x kv_heads
heads in three parts: a local window floor of w slots per head, a uniform
share r = rho * (B - N*w) / N per head, and the rest proportional to each
head's visual score. The four comparison policies apply that same split,
`_split`, over other groups and weights: uniform (zero weights),
pyramid (layer totals weighted L, L-1, ..., 1 over floors of heads*w, then an
even split of each layer), random (i.i.d. scores through the flagship split),
and adaptive-layer (even layer totals, then each layer by its scores).

Every split rounds its real-valued targets to integers by the
largest-remainder method with ties broken in index order, so every plan
conserves B exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .artifacts import Count, Field, ListOf, Number, String, read_object, write_json
from .chaser import HeadScoreMatrix
from .errors import InfeasibleBudgetError, InvalidInputError, ShapeError, SparseMMError

__all__ = [
    "AllocationConfig",
    "BudgetPlan",
    "POLICY_NAMES",
    "allocate",
    "allocate_adaptive_layer",
    "allocate_pyramid",
    "allocate_random",
    "allocate_sparsemm",
    "allocate_uniform",
    "load_plan",
    "save_plan",
]

DEFAULT_WINDOW = 32
DEFAULT_RHO = 0.1

POLICY_NAMES = ("sparsemm", "uniform", "pyramid", "random", "ada")


@dataclass(frozen=True)
class AllocationConfig:
    """Global budget B plus the window floor w and uniform ratio rho."""

    total_budget: int
    window: int = DEFAULT_WINDOW
    uniform_ratio: float = DEFAULT_RHO

    def __post_init__(self) -> None:
        if self.total_budget <= 0:
            raise InvalidInputError("total_budget must be positive")
        if self.window < 0:
            raise InvalidInputError("window must be non-negative")
        if not 0.0 <= self.uniform_ratio <= 1.0:
            raise InvalidInputError("uniform_ratio must lie in [0, 1]")


@dataclass(frozen=True)
class BudgetPlan:
    """Integer budgets per (layer, kv-head), summing exactly to the budget."""

    budgets: np.ndarray = field(repr=False)
    total_budget: int = 0
    window: int = DEFAULT_WINDOW
    uniform_ratio: float = DEFAULT_RHO
    allocator: str = "sparsemm"

    def __post_init__(self) -> None:
        arr = np.asarray(self.budgets)
        if arr.ndim != 2:
            raise ShapeError("budgets must be a 2-D (layers, kv_heads) array")
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInputError("budgets must be integers")
        if (arr < 0).any():
            raise InvalidInputError("budgets must be non-negative")
        if int(arr.sum()) != self.total_budget:
            raise InvalidInputError(
                f"plan sums to {int(arr.sum())}, expected {self.total_budget}"
            )
        arr = arr.astype(np.int64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "budgets", arr)

    @property
    def layers(self) -> int:
        return self.budgets.shape[0]

    @property
    def kv_heads(self) -> int:
        return self.budgets.shape[1]


def _largest_remainder(targets: np.ndarray, total: int) -> np.ndarray:
    """Round non-negative real targets to integers summing to `total`.

    Floors everything, then hands out the missing slots one each to the
    entries with the largest fractional parts; ties go to the earliest
    (layer, head) index via the stable sort.
    """
    flat = np.asarray(targets, dtype=np.float64).ravel()
    base = np.floor(flat).astype(np.int64)
    deficit = int(total) - int(base.sum())
    if deficit < 0 or deficit > flat.size:
        raise InvalidInputError(
            f"rounding deficit {deficit} outside [0, {flat.size}]; targets do not sum to {total}"
        )
    if deficit:
        order = np.argsort(-(flat - base), kind="stable")
        base[order[:deficit]] += 1
    return base.reshape(np.asarray(targets).shape)


def _split(total: int, weights, floor: int, rho: float = 0.0) -> np.ndarray:
    """`total` split over the entries of `weights` and rounded by largest remainder.

    Each entry gets the `floor`, then a rho share of the rest evenly, then
    its weight's share of what is left (an even share when every weight is 0).
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    if total < n * floor:
        raise InfeasibleBudgetError(f"budget {total} cannot give {n} shares a {floor}-slot floor")
    rest = total - n * floor
    left = rest - rho * rest
    mass = float(weights.sum())
    share = left * weights / mass if mass > 0.0 else np.full(weights.shape, left / n)
    return _largest_remainder(floor + rho * rest / n + share, total)


def _check_heads(layers: int, heads: int) -> None:
    if layers < 1 or heads < 1:
        raise InvalidInputError(f"layers and heads must be at least 1, got {layers}x{heads}")


def allocate_sparsemm(scores: HeadScoreMatrix, config: AllocationConfig) -> BudgetPlan:
    """Three-part split: window floor + uniform share + score-proportional rest."""
    _check_heads(scores.layers, scores.heads)
    budget, w, rho = config.total_budget, config.window, config.uniform_ratio
    budgets = _split(budget, scores.scores, w, rho)
    if not scores.scores.any():
        warnings.warn("all-zero scores: falling back to a uniform split", stacklevel=2)
    return BudgetPlan(budgets, budget, w, rho, "sparsemm")


def allocate_uniform(config: AllocationConfig, layers: int, heads: int) -> BudgetPlan:
    """Equal split of B over the N heads, each at least the w floor (one slot for w = 0)."""
    _check_heads(layers, heads)
    n = layers * heads
    budget, w = config.total_budget, config.window
    if w == 0 and budget < n:
        raise InfeasibleBudgetError(f"budget {budget} below one slot per head ({n})")
    budgets = _split(budget, np.zeros((layers, heads)), w)
    return BudgetPlan(budgets, budget, config.window, config.uniform_ratio, "uniform")


def allocate_pyramid(config: AllocationConfig, layers: int, heads: int) -> BudgetPlan:
    """Linearly decaying per-layer totals on top of the window floor.

    Layer l carries weight (layers - l) of the post-floor budget, so totals
    decrease from layer 0 to the last layer; heads within a layer split its
    total equally.
    """
    _check_heads(layers, heads)
    budget, w = config.total_budget, config.window
    layer_totals = _split(budget, np.arange(layers, 0, -1), heads * w)
    rows = [_split(int(t), np.zeros(heads), w) for t in layer_totals]
    return BudgetPlan(np.stack(rows), budget, w, config.uniform_ratio, "pyramid")


def allocate_random(
    config: AllocationConfig, layers: int, heads: int, seed: int
) -> BudgetPlan:
    """Control policy: i.i.d. uniform scores through the flagship split."""
    _check_heads(layers, heads)
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, int(seed)]))
    scores = HeadScoreMatrix(rng.random((layers, heads)))
    return replace(allocate_sparsemm(scores, config), allocator="random")


def allocate_adaptive_layer(
    scores: HeadScoreMatrix, config: AllocationConfig
) -> BudgetPlan:
    """Equal per-layer totals of B/L; score-proportional within each layer.

    Every head keeps the w floor; a layer with no score mass falls back to an
    equal split of its post-floor total.
    """
    _check_heads(scores.layers, scores.heads)
    budget, w = config.total_budget, config.window
    layer_totals = _split(budget, np.zeros(scores.layers), 0)
    rows = [_split(int(t), scores.scores[l], w) for l, t in enumerate(layer_totals)]
    return BudgetPlan(np.stack(rows), budget, w, config.uniform_ratio, "ada")


def allocate(
    policy: str,
    config: AllocationConfig,
    layers: int,
    heads: int,
    scores: HeadScoreMatrix | None = None,
    seed: int = 0,
) -> BudgetPlan:
    """Dispatch by policy name; score-driven policies require `scores`."""
    if policy not in POLICY_NAMES:
        raise InvalidInputError(f"unknown policy {policy!r}; expected one of {POLICY_NAMES}")
    if policy in ("sparsemm", "ada"):
        if scores is None:
            raise InvalidInputError(f"policy {policy!r} requires a score matrix")
        if (scores.layers, scores.heads) != (layers, heads):
            raise ShapeError(
                f"score shape {(scores.layers, scores.heads)} != plan shape {(layers, heads)}"
            )
        fn = allocate_sparsemm if policy == "sparsemm" else allocate_adaptive_layer
        return fn(scores, config)
    if policy == "uniform":
        return allocate_uniform(config, layers, heads)
    if policy == "pyramid":
        return allocate_pyramid(config, layers, heads)
    return allocate_random(config, layers, heads, seed)


def save_plan(path, plan: BudgetPlan) -> None:
    write_json(path, {
        "budget_B": plan.total_budget,
        "w": plan.window,
        "rho": plan.uniform_ratio,
        "plan": [[int(b) for b in row] for row in plan.budgets],
        "allocator": plan.allocator,
    })


# the plan file's fields, as `save_plan` writes them: every plan comes from a
# policy with an AllocationConfig, whose ratio lies in [0, 1]
PLAN_FIELDS = (
    Field("budget_B", Count()),
    Field("w", Count()),
    Field("plan", ListOf(ListOf(Count()))),
    Field("rho", Number(0, 1)),
    Field("allocator", String(POLICY_NAMES)),
)


def load_plan(path) -> BudgetPlan:
    """The plan of a `save_plan` file; a malformed file raises a SparseMMError naming it.

    Its fields are checked against PLAN_FIELDS, and the plan's rows must form
    a grid of 64-bit budgets that BudgetPlan accepts. Keys outside the table,
    such as the `score_file_hash` that older plan files hold, are ignored.
    """
    payload = read_object(path, "plan", PLAN_FIELDS)
    try:
        return BudgetPlan(np.array(payload["plan"], dtype=np.int64), payload["budget_B"],
                          payload["w"], float(payload["rho"]), payload["allocator"])
    except SparseMMError as exc:  # raised by BudgetPlan: the budgets do not fit the plan
        raise type(exc)(f"plan {path}: {exc}") from exc
    except (OverflowError, ValueError) as exc:  # a budget past int64, or ragged rows
        raise InvalidInputError(f"plan {path}: plan is not a grid of 64-bit budgets") from exc
