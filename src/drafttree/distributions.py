"""Per-position token marginals and the factorized draft distribution.

A one-pass block drafter emits one probability row per future position in a
block of length L. Those rows are independent marginals, so the distribution
over whole continuations is their product. Everything downstream (tree
construction, the oracle, the engine) consumes the validated ``MarginalBlock``
produced here, and checks its counts (budgets, lengths, seeds) with
``require_count``, the one rule for a count: an integer at or above a floor
and, for a node count, at most ``NODE_GUARD``. ``require_real`` is the one
rule for a real parameter (a temperature, a noise weight, a cost term): a
finite real number within its bounds.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Rows are clamped into [EPS_Q, 1 - EPS_Q] before renormalization so every
# entry is strictly inside (0, 1) and ancestor masses strictly dominate
# descendant masses. Both constants are fixed, not configurable.
EPS_Q = 1e-12
ROW_SUM_ATOL = 1e-9

Prefix = tuple[int, ...]


# The most nodes a draft tree may hold: its flattened entries, the root one of
# them, are indexed by an int16 child table (``verify.flatten``).
NODE_GUARD = 32766


def require_count(
    name: str, value: object, low: int | None = None, high: int | None = None
) -> None:
    """Reject a value that is not an integer (numpy integers pass) or lies outside [low, high].

    A bool is refused although Python counts it an integer: numpy reads it as a mask.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def require_real(
    name: str,
    value: object,
    low: float | None = None,
    high: float | None = None,
    *,
    strict: bool = False,
) -> None:
    """Reject a value that is not a finite real (numpy scalars pass) or lies outside [low, high].

    ``strict`` excludes ``low`` itself, for a parameter that must be positive.
    A bool is refused, as ``require_count`` refuses it.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if low is not None and (value <= low if strict else value < low):
        raise ValueError(f"{name} must be {'>' if strict else '>='} {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


class NonRectangular(ValueError):
    """Raw probability table is not a rectangular L x V array."""


class RowSumZero(ValueError):
    """A raw row has zero total mass and cannot be renormalized."""


class NegativeEntry(ValueError):
    """A raw row contains a negative entry."""


class NonFiniteEntry(ValueError):
    """A raw row contains a NaN or infinite entry."""


class PrefixTooLong(ValueError):
    """Prefix length exceeds the block length."""


@dataclass(frozen=True, eq=False)
class MarginalBlock:
    """Validated per-position token distributions for one drafted block.

    ``probs`` is an L x V table; ``probs[i]`` is the marginal for future
    position ``i + 1``, and ``block_len`` and ``vocab_size`` are read off its
    shape. Rows sum to 1 within ``ROW_SUM_ATOL`` and every entry lies strictly
    in (0, 1). Build instances with ``validate_block``. They are immutable
    (the array is flagged read-only) and safe to share across threads.
    Equality is identity, so a block is hashable.
    """

    probs: np.ndarray

    @property
    def block_len(self) -> int:
        return self.probs.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.probs.shape[1]


def validate_block(raw) -> MarginalBlock:
    """Build a MarginalBlock from a raw L x V table of nonnegative weights.

    Rows are clamped into [EPS_Q, 1 - EPS_Q] and renormalized. Raises
    NonRectangular for ragged or mis-shaped input, NonFiniteEntry for NaN or
    infinite entries, NegativeEntry for negative ones, and RowSumZero for rows
    with no mass.
    """
    try:
        table = np.asarray(raw, dtype=np.float64)
    except ValueError as exc:
        raise NonRectangular(str(exc)) from exc
    if table.ndim != 2:
        raise NonRectangular(f"expected a 2-d table, got ndim={table.ndim}")
    block_len, vocab_size = table.shape
    if block_len < 1 or vocab_size < 2:
        raise NonRectangular(
            f"need at least 1 row and 2 columns, got {table.shape}"
        )
    # Array methods and np.minimum/np.maximum skip the dispatch of np.all,
    # np.any and np.clip; on finite input the clamp's bytes are np.clip's.
    # A valid table passes one test: a NaN fails the comparisons, and an
    # infinite entry leaves an infinite row sum. Any other table meets the
    # checks in their order; a finite row whose sum overflows passes them.
    sums = table.sum(axis=1)
    if not (table.min() >= 0.0 and 0.0 < sums.min() and sums.max() < math.inf):
        if not np.isfinite(table).all():
            raise NonFiniteEntry("table contains non-finite entries")
        if (table < 0.0).any():
            raise NegativeEntry("table contains negative entries")
        if (sums <= 0.0).any():
            raise RowSumZero("a row has zero total mass")

    clamped = np.minimum(np.maximum(table, EPS_Q), 1.0 - EPS_Q)
    probs = clamped / clamped.sum(axis=1, keepdims=True)
    probs.flags.writeable = False
    return MarginalBlock(probs=probs)


def _check_prefix(block: MarginalBlock, prefix: Prefix) -> None:
    if len(prefix) > block.block_len:
        raise PrefixTooLong(
            f"prefix length {len(prefix)} exceeds block length {block.block_len}"
        )
    for tok in prefix:
        require_count("token id", tok, 0, block.vocab_size - 1)


def prefix_mass(block: MarginalBlock, prefix: Prefix) -> float:
    """Probability that a sampled continuation begins with ``prefix``.

    The product of the per-position marginals along the prefix; strictly
    decreasing under extension because every entry is strictly below 1.
    """
    _check_prefix(block, prefix)
    return math.prod(float(block.probs[i, tok]) for i, tok in enumerate(prefix))


def log_prefix_mass(block: MarginalBlock, prefix: Prefix) -> float:
    """Natural log of prefix_mass, summed exactly over per-position logs."""
    _check_prefix(block, prefix)
    return math.fsum(math.log(float(block.probs[i, tok])) for i, tok in enumerate(prefix))


def sample_continuations(
    block: MarginalBlock, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` continuations as a (count, block_len) int array.

    Each position is drawn independently from its row, by inverse CDF, for
    Monte Carlo use. Consumes ``count`` uniforms per position, so results are
    deterministic given the generator state.
    """
    require_count("count", count, 0)
    cdf = np.cumsum(block.probs, axis=1)
    out = np.empty((count, block.block_len), dtype=np.int64)
    for i in range(block.block_len):
        draws = np.searchsorted(cdf[i], rng.random(count), side="right")
        out[:, i] = np.minimum(draws, block.vocab_size - 1)
    return out
