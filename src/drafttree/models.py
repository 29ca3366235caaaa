"""Synthetic autoregressive targets and the derived noisy drafter.

An n-gram table model stands in for the target: every conditional is an exact
lookup, so per-position marginals, losslessness, and cache-replay checks can
be verified to machine precision instead of statistically. The drafter is the
target's exact marginals mixed with uniform noise, giving a single fidelity
knob. Its rows come from one dynamic program that runs a step per position
drawn: ``drafter_chunks`` yields them in chunks of 4, 4, 8, 16, ... rows so
that a tree builder drafts only as deep as its tree grows, and
``drafter_marginals`` joins the same chunks into the whole block.

Token id 0 is reserved as the context pad: rows assign it the clamp-minimum
mass, and the target's decoding rule never generates it, but short contexts
can be padded with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .distributions import EPS_Q, MarginalBlock, validate_block

PAD_TOKEN = 0
# Table entries: 80 MB of float64. Each drafter call also holds a joint array
# of the table's size.
TABLE_GUARD = 10**7
# The drafter's first chunk of rows; each later chunk doubles the rows so far.
FIRST_CHUNK_ROWS = 4


class TableTooLarge(ValueError):
    """The |V|^order x |V| table exceeds the desk-scale guard on its entries."""


@dataclass(frozen=True)
class NgramModel:
    """Order-m table model: one probability row per length-m context.

    ``table[ctx]`` indexes contexts big-endian in base ``vocab_size`` (oldest
    token highest). Immutable after construction. The table is the whole
    model; the parameters that generated it are not kept.
    """

    order: int
    vocab_size: int
    table: np.ndarray  # (vocab_size**order, vocab_size), rows sum to 1


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


def _check_seed(seed: int) -> None:
    """Reject what numpy's generators refuse later with a message naming no field."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_table_size(vocab_size: int, order: int) -> int:
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    states = vocab_size**order
    if states * vocab_size > TABLE_GUARD:
        raise TableTooLarge(
            f"{states * vocab_size} table entries exceed the guard of {TABLE_GUARD}"
        )
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
    _check_seed(seed)
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
    return NgramModel(order=order, vocab_size=vocab_size, table=table)


def deterministic_model(seed: int, vocab_size: int, order: int) -> NgramModel:
    """One-hot model: every context maps to a single seeded next token.

    Greedy decoding of this target is a fixed trajectory, which pins down the
    perfect-drafter limit (full-block acceptance every round).
    """
    _check_seed(seed)
    states = _check_table_size(vocab_size, order)
    rng = np.random.default_rng(seed)
    table = np.zeros((states, vocab_size), dtype=np.float64)
    table[np.arange(states), rng.integers(1, vocab_size, size=states)] = 1.0
    table.flags.writeable = False
    return NgramModel(order=order, vocab_size=vocab_size, table=table)


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


def _marginal_steps(
    model: NgramModel, context: Sequence[int], bonus: int
) -> Iterator[np.ndarray]:
    """Exact per-position marginals of the target's ancestral process, one per step.

    Dynamic program over the length-m context window: each step reads off the
    next position's token marginal and propagates the window distribution one
    position on. Exact because the state space is the full context table. The
    generator never ends; a step runs only when its row is drawn.
    """
    v = model.vocab_size
    states = v**model.order
    window_dist = np.zeros(states, dtype=np.float64)
    window_dist[_context_index(model, list(context) + [bonus])] = 1.0
    joint = np.empty((states, v), dtype=np.float64)
    while True:
        np.multiply(window_dist[:, None], model.table, out=joint)
        yield joint.sum(axis=0)
        # Window shift drops the oldest token: new state = (old mod v^(m-1)) * v + next.
        window_dist = joint.reshape(v, states // v, v).sum(axis=0).reshape(states)


def drafter_chunks(
    model: NgramModel, context: Sequence[int], bonus: int, cfg: DrafterConfig
) -> Iterator[MarginalBlock]:
    """Noisy drafter rows, a convex mix of exact marginals and uniform, in chunks.

    The chunks hold rows 0-3, 4-7, 8-15, 16-31, ...: after the first
    ``FIRST_CHUNK_ROWS`` rows each chunk doubles the rows drafted so far, and
    the last one ends at ``cfg.block_len``. A chunk's DP steps run when it is
    drawn, so a reader that stops early drafts only the chunks it read. Mixing,
    clamping and normalisation act row by row, so each chunk equals the same
    rows of ``drafter_marginals``' block bit for bit.
    """
    steps = _marginal_steps(model, context, bonus)
    uniform = 1.0 / model.vocab_size
    drafted = 0
    while drafted < cfg.block_len:
        size = min(max(drafted, FIRST_CHUNK_ROWS), cfg.block_len - drafted)
        rows = np.array(list(islice(steps, size)))
        yield validate_block((1.0 - cfg.noise) * rows + cfg.noise * uniform)
        drafted += size


def drafter_marginals(
    model: NgramModel, context: Sequence[int], bonus: int, cfg: DrafterConfig
) -> MarginalBlock:
    """All ``cfg.block_len`` drafter rows: the ``drafter_chunks`` joined into one block."""
    probs = np.concatenate([chunk.probs for chunk in drafter_chunks(model, context, bonus, cfg)])
    probs.flags.writeable = False
    return MarginalBlock(probs=probs)


def exact_marginals(
    model: NgramModel, context: Sequence[int], bonus: int, block_len: int
) -> MarginalBlock:
    """Validated exact marginals for the next ``block_len`` positions: the drafter at noise 0."""
    return drafter_marginals(model, context, bonus, DrafterConfig(noise=0.0, block_len=block_len))
