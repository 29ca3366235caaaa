"""Synthetic autoregressive targets and the derived noisy drafter.

An n-gram table model stands in for the target: every conditional is an exact
lookup, so per-position marginals, losslessness, and cache-replay checks can
be verified to machine precision instead of statistically. The drafter is the
target's exact marginals mixed with uniform noise, giving a single fidelity
knob. Its rows come from one dynamic program that runs a step per position
drawn, each step over only the context windows the draft can reach by then:
``drafter_chunks`` yields them in chunks whose first holds a given number of
rows and each later one doubles the rows so far (4, 4, 8, 16, ... for a tree;
a chain starts at ``order`` rows, 2, 2, 4, 8, ... at order 2), so that a tree
builder drafts only as deep as its tree grows, and a chain only as deep as
its walks read; ``drafter_marginals`` joins the same chunks into the whole
block.

Token id 0 is reserved as the context pad: rows assign it the clamp-minimum
mass, and the target's decoding rule never generates it, but short contexts
can be padded with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .distributions import (
    EPS_Q,
    NODE_GUARD,
    ROW_SUM_ATOL,
    MarginalBlock,
    require_count,
    require_real,
    validate_block,
)

PAD_TOKEN = 0
# Table entries: 80 MB of float64. A drafter step allocates only its row and
# the next window distribution, 1/|V| of the table's entries at most.
TABLE_GUARD = 10**7
# The first chunk of rows a tree draws (``drafter_chunks``' default); each
# later chunk doubles the rows so far.
FIRST_CHUNK_ROWS = 4


class TableTooLarge(ValueError):
    """The |V|^order x |V| table exceeds the desk-scale guard on its entries."""


@dataclass(frozen=True, eq=False)
class NgramModel:
    """Order-m table model: one probability row per length-m context.

    ``table[ctx]`` indexes contexts big-endian in base ``vocab_size`` (oldest
    token highest). Immutable after construction: the model keeps its own
    read-only float64 copy of the table it is given, so later changes to the
    caller's array reach no episode. The table is the whole model; the
    parameters that generated it are not kept. Its entries must be finite and
    non-negative, each row must sum to 1 within ``ROW_SUM_ATOL`` and put mass
    on some token other than the pad; the constructor raises ValueError
    otherwise. Equality is identity, so a model is hashable.
    """

    order: int
    vocab_size: int
    table: np.ndarray  # (vocab_size**order, vocab_size), rows sum to 1

    def __post_init__(self) -> None:
        expected = (_check_table_size(self.vocab_size, self.order), self.vocab_size)
        if np.shape(self.table) != expected:
            raise ValueError(
                f"table shape {np.shape(self.table)} is not {expected}, the "
                f"(vocab_size**order, vocab_size) of vocab_size {self.vocab_size} "
                f"and order {self.order}"
            )
        table = np.array(self.table, dtype=np.float64)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        if not np.isfinite(table).all():
            raise ValueError("table has non-finite entries")
        if (table < 0.0).any():
            raise ValueError("table has negative entries")
        # A row is a next-token distribution; ROW_SUM_ATOL is the tolerance a
        # drafted block's rows meet too.
        sums = table.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_ATOL)
        if off.size:
            row = off[0]
            raise ValueError(
                f"table row {row} sums to {float(sums[row])!r}, not 1 within {ROW_SUM_ATOL}"
            )
        # Every decoding rule reads tokens 1..|V|-1 only, never the pad 0.
        padded = np.flatnonzero(~table[:, 1:].any(axis=1))
        if padded.size:
            raise ValueError(
                f"table row {padded[0]} has no mass on tokens 1..{self.vocab_size - 1}"
            )


@dataclass(frozen=True)
class DrafterConfig:
    """Drafter fidelity knob: rows are (1-noise) * exact + noise * uniform."""

    noise: float
    block_len: int

    def __post_init__(self) -> None:
        require_real("noise", self.noise, 0.0, 1.0)
        require_count("block_len", self.block_len, 1, NODE_GUARD)


def _check_table_size(vocab_size: int, order: int) -> int:
    require_count("vocab_size", vocab_size, 2)
    require_count("order", order, 1)
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
    require_count("seed", seed, 0)  # numpy's own error names no argument
    states = _check_table_size(vocab_size, order)
    require_real("concentration", concentration, 0.0, strict=True)
    rng = np.random.default_rng(seed)
    table = rng.gamma(concentration, 1.0, size=(states, vocab_size))
    table[:, PAD_TOKEN] = 0.0
    sums = table.sum(axis=1, keepdims=True)
    if not np.all(np.isfinite(sums) & (sums > 0.0)):
        raise ValueError(f"concentration {concentration} leaves a row without positive finite mass")
    table /= sums
    table *= 1.0 - EPS_Q
    table[:, PAD_TOKEN] = EPS_Q
    return NgramModel(order=order, vocab_size=vocab_size, table=table)


def deterministic_model(seed: int, vocab_size: int, order: int) -> NgramModel:
    """One-hot model: every context maps to a single seeded next token.

    Greedy decoding of this target is a fixed trajectory, which pins down the
    perfect-drafter limit (full-block acceptance every round).
    """
    require_count("seed", seed, 0)
    states = _check_table_size(vocab_size, order)
    rng = np.random.default_rng(seed)
    table = np.zeros((states, vocab_size), dtype=np.float64)
    table[np.arange(states), rng.integers(1, vocab_size, size=states)] = 1.0
    return NgramModel(order=order, vocab_size=vocab_size, table=table)


def _context_index(model: NgramModel, context: Sequence[int]) -> int:
    """The table row of the context's last ``order`` tokens, padded on the left with the pad.

    Every token of the context must be an id, the older ones it drops too.
    """
    for token in context:
        require_count("token id", token, 0, model.vocab_size - 1)
    index = 0
    for token in context[-model.order :]:  # a leading pad adds nothing to the index
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
    position on. Step j reads only the |V|^min(j, m) windows it can reach:
    those whose oldest m - j tokens are the start window's newest, a
    contiguous slice of the big-endian table. Exact because every other window
    has probability 0. The generator never ends; a step runs only when its
    row is drawn.

    Both sums are ``np.einsum`` calls without ``optimize``, so numpy's own C
    loop adds the products in window order with no BLAS call, as a
    full-table multiply-then-sum along axis 0 does; adding the exact zeros of
    unreachable windows changes no bit. The numpy baseline for x86-64 (X86_V2)
    has no fused multiply-add, so each product is rounded before it is added.
    Tests compare these bytes with the loop DP in ``oracle`` on any build.
    """
    v = model.vocab_size
    states = v**model.order
    start = _context_index(model, list(context) + [bonus])
    window_dist = np.ones(1)
    width = 1
    while True:
        lo = start % (states // width) * width
        reach = model.table[lo : lo + width]
        yield np.einsum("i,ij->j", window_dist, reach)
        # Window shift drops the oldest token: new state = (old mod v^(m-1)) * v + next.
        # While the start window's tokens remain, the oldest is fixed; after, any of v.
        oldest = 1 if width < states else v
        window_dist = np.einsum(
            "ab,abx->bx", window_dist.reshape(oldest, -1), reach.reshape(oldest, -1, v)
        ).reshape(-1)
        width = window_dist.size


def drafter_chunks(
    model: NgramModel,
    context: Sequence[int],
    bonus: int,
    cfg: DrafterConfig,
    first_rows: int = FIRST_CHUNK_ROWS,
) -> Iterator[MarginalBlock]:
    """Noisy drafter rows, a convex mix of exact marginals and uniform, in chunks.

    The first chunk holds ``first_rows`` rows (a count >= 1, checked when the
    first chunk is drawn); each later chunk doubles the rows drafted so far,
    and the last one ends at ``cfg.block_len``. At the default of
    ``FIRST_CHUNK_ROWS`` the chunks hold rows 0-3, 4-7, 8-15, 16-31, ...;
    at ``model.order`` the first chunk is the rows whose DP steps read fewer
    than all windows. A chunk's DP steps run when it is drawn, so a reader
    that stops early drafts only the chunks it read. Mixing, clamping and
    normalisation act row by row, so each chunk equals the same rows of
    ``drafter_marginals``' block bit for bit.
    """
    require_count("first_rows", first_rows, 1)
    steps = _marginal_steps(model, context, bonus)
    uniform = 1.0 / model.vocab_size
    drafted = 0
    while drafted < cfg.block_len:
        size = min(max(drafted, first_rows), cfg.block_len - drafted)
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
