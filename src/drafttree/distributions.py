"""Per-position token marginals and the factorized draft distribution.

A one-pass block drafter emits one probability row per future position in a
block of length L. Those rows are independent marginals, so the distribution
over whole continuations is their product. Everything downstream (tree
construction, the oracle, the engine) consumes the validated ``MarginalBlock``
produced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Rows are clamped into [EPS_Q, 1 - EPS_Q] before renormalization so every
# entry is strictly inside (0, 1) and ancestor masses strictly dominate
# descendant masses. Both constants are fixed, not configurable.
EPS_Q = 1e-12
ROW_SUM_ATOL = 1e-9

Prefix = tuple[int, ...]


class NonRectangular(ValueError):
    """Raw probability table is not a rectangular L x V array."""


class RowSumZero(ValueError):
    """A raw row has zero total mass and cannot be renormalized."""


class NegativeEntry(ValueError):
    """A raw row contains a negative (or non-finite) entry."""


class PrefixTooLong(ValueError):
    """Prefix length exceeds the block length."""


@dataclass(frozen=True)
class MarginalBlock:
    """Validated per-position token distributions for one drafted block.

    ``probs[i]`` is the marginal for future position ``i + 1``. Rows sum to 1
    within ``ROW_SUM_ATOL`` and every entry lies strictly in (0, 1). Instances
    are immutable (the array is flagged read-only) and safe to share across
    threads.
    """

    block_len: int
    vocab_size: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.probs.shape != (self.block_len, self.vocab_size):
            raise NonRectangular(
                f"probs shape {self.probs.shape} does not match "
                f"({self.block_len}, {self.vocab_size})"
            )


def validate_block(raw) -> MarginalBlock:
    """Build a MarginalBlock from a raw L x V table of nonnegative weights.

    Rows are clamped into [EPS_Q, 1 - EPS_Q] and renormalized. Raises
    NonRectangular for ragged or mis-shaped input, NegativeEntry for negative
    or non-finite entries, and RowSumZero for rows with no mass.
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
    if not np.all(np.isfinite(table)):
        raise NegativeEntry("table contains non-finite entries")
    if np.any(table < 0.0):
        raise NegativeEntry("table contains negative entries")
    row_sums = table.sum(axis=1)
    if np.any(row_sums <= 0.0):
        raise RowSumZero("a row has zero total mass")

    clamped = np.clip(table, EPS_Q, 1.0 - EPS_Q)
    probs = clamped / clamped.sum(axis=1, keepdims=True)
    probs.flags.writeable = False
    return MarginalBlock(block_len=block_len, vocab_size=vocab_size, probs=probs)


def _check_prefix(block: MarginalBlock, prefix: Prefix) -> None:
    if len(prefix) > block.block_len:
        raise PrefixTooLong(
            f"prefix length {len(prefix)} exceeds block length {block.block_len}"
        )
    for tok in prefix:
        if not 0 <= tok < block.vocab_size:
            raise ValueError(f"token id {tok} outside vocabulary of size {block.vocab_size}")


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
    cdf = np.cumsum(block.probs, axis=1)
    out = np.empty((count, block.block_len), dtype=np.int64)
    for i in range(block.block_len):
        draws = np.searchsorted(cdf[i], rng.random(count), side="right")
        out[:, i] = np.minimum(draws, block.vocab_size - 1)
    return out
