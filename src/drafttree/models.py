"""Synthetic autoregressive targets and the derived noisy drafter.

An n-gram table model stands in for the target: every conditional is an exact
lookup, so per-position marginals, losslessness, and cache-replay checks can
be verified to machine precision instead of statistically. The drafter is the
target's exact marginals mixed with uniform noise, giving a single fidelity
knob.

Token id 0 is reserved as the context pad: rows assign it the clamp-minimum
mass, so it is (effectively) never generated but short contexts can be padded
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import EPS_Q, MarginalBlock, validate_block

PAD_TOKEN = 0
TABLE_GUARD = 10**6


class TableTooLarge(ValueError):
    """Context table |V|^order exceeds the desk-scale guard."""


@dataclass(frozen=True)
class NgramModel:
    """Order-m table model: one probability row per length-m context.

    ``table[ctx]`` indexes contexts big-endian in base ``vocab_size`` (oldest
    token highest). Immutable after construction. ``seed``/``concentration``
    are kept so randomly generated models can be rebuilt from parameters
    instead of shipping the table.
    """

    order: int
    vocab_size: int
    table: np.ndarray  # (vocab_size**order, vocab_size), rows sum to 1
    seed: int | None = None
    concentration: float | None = None


@dataclass(frozen=True)
class DrafterConfig:
    """Drafter fidelity knob: rows are (1-noise) * exact + noise * uniform."""

    noise: float
    block_len: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")


def _check_table_size(vocab_size: int, order: int) -> int:
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    states = vocab_size**order
    if states > TABLE_GUARD:
        raise TableTooLarge(f"{states} contexts exceed the guard of {TABLE_GUARD}")
    return states


def random_model(
    seed: int, vocab_size: int, order: int, concentration: float = 1.0
) -> NgramModel:
    """Seeded random model with Dirichlet-style rows.

    Rows are normalized i.i.d. gamma draws with the given concentration
    (higher concentration -> flatter rows). The pad token gets the clamp
    minimum so it never competes with real tokens. Raises ValueError when a
    row's non-pad draws have no finite positive sum, as when a tiny
    concentration underflows every draw of a row to 0.
    """
    states = _check_table_size(vocab_size, order)
    if not (math.isfinite(concentration) and concentration > 0.0):
        raise ValueError("concentration must be finite and > 0")
    rng = np.random.default_rng(seed)
    table = rng.gamma(concentration, 1.0, size=(states, vocab_size))
    table[:, PAD_TOKEN] = 0.0
    sums = table.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(sums) & (sums > 0.0)):
        raise ValueError(f"concentration {concentration} leaves a row without positive finite mass")
    table /= sums
    table *= 1.0 - EPS_Q
    table[:, PAD_TOKEN] = EPS_Q
    table.flags.writeable = False
    return NgramModel(
        order=order,
        vocab_size=vocab_size,
        table=table,
        seed=seed,
        concentration=concentration,
    )


def deterministic_model(seed: int, vocab_size: int, order: int) -> NgramModel:
    """One-hot model: every context maps to a single seeded next token.

    Greedy decoding of this target is a fixed trajectory, which pins down the
    perfect-drafter limit (full-block acceptance every round).
    """
    states = _check_table_size(vocab_size, order)
    rng = np.random.default_rng(seed)
    table = np.zeros((states, vocab_size), dtype=np.float64)
    table[np.arange(states), rng.integers(1, vocab_size, size=states)] = 1.0
    table.flags.writeable = False
    return NgramModel(order=order, vocab_size=vocab_size, table=table, seed=seed)


def _context_index(model: NgramModel, context: Sequence[int]) -> int:
    window = ([PAD_TOKEN] * model.order + list(context))[-model.order :]
    index = 0
    for token in window:
        if not 0 <= token < model.vocab_size:
            raise ValueError(f"token id {token} outside vocabulary")
        index = index * model.vocab_size + token
    return index


def target_next(model: NgramModel, context: Sequence[int]) -> np.ndarray:
    """Next-token distribution given a context (padded/truncated to order)."""
    return model.table[_context_index(model, context)]


def _exact_marginal_rows(
    model: NgramModel, context: Sequence[int], bonus: int, block_len: int
) -> np.ndarray:
    """Exact per-position marginals of the target's ancestral process.

    Dynamic program over the length-m context window: propagate the window
    distribution one position at a time and read off each position's token
    marginal. Exact because the state space is the full context table.
    """
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    v = model.vocab_size
    states = v**model.order
    window_dist = np.zeros(states, dtype=np.float64)
    window_dist[_context_index(model, list(context) + [bonus])] = 1.0

    rows = np.empty((block_len, v), dtype=np.float64)
    for i in range(block_len):
        joint = window_dist[:, None] * model.table  # (states, v)
        rows[i] = joint.sum(axis=0)
        # Window shift drops the oldest token: new state = (old mod v^(m-1)) * v + next.
        window_dist = joint.reshape(v, states // v, v).sum(axis=0).reshape(states)
    return rows


def exact_marginals(
    model: NgramModel, context: Sequence[int], bonus: int, block_len: int
) -> MarginalBlock:
    """Validated exact marginals for the next ``block_len`` positions."""
    return validate_block(_exact_marginal_rows(model, context, bonus, block_len))


def drafter_marginals(
    model: NgramModel, context: Sequence[int], bonus: int, cfg: DrafterConfig
) -> MarginalBlock:
    """Noisy drafter rows: convex mix of exact marginals and uniform."""
    rows = _exact_marginal_rows(model, context, bonus, cfg.block_len)
    uniform = 1.0 / model.vocab_size
    return validate_block((1.0 - cfg.noise) * rows + cfg.noise * uniform)
