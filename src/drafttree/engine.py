"""Round-by-round speculative decoding episodes over synthetic targets.

Each round verifies a draft off the current bonus token along the target's
rollout, commits the accepted path plus the next bonus, and repeats, in one of
two forms. A tree round walks its budgeted tree (``verifier_walk``), which
``build_tree`` drafts from row chunks (``models.drafter_chunks``) only as deep
as it grows. A chain or baseline round verifies a token path, accepting while
it equals the rollout: the baseline's is empty and never drafted, the chain's
is each row's argmax. A chain round draws rows only when its walk reads past
the rows drawn: a walk that accepts every token of the stored path (or finds
none) opens a drafter and draws its chunks from row 0, ``order`` rows and
then doubling, until the path is longer than the tokens accepted, so at
temperature 0, where a window's walk is fixed, no window is drawn twice.
A tree build draws 4 rows and then doubles, and writes the argmax path of
the rows it drew (``DraftTree.row_argmax``) into the window's chain entry
when that path is longer than the stored one, so a chain in the same scope
draws only past the rows a tree drew. A chain's outcome reads only the
argmax of the rows it walks, whoever drew them, so every output is the same.
The chain verifies, and is charged for, L nodes a round.

Token sequence: speculative decoding commits exactly the target's own tokens,
so an episode is a prefix of one sequence: the seeded prompt, then the
target's decisions, each decided once per sweep from the last ``order`` tokens
before it and a uniform derived only from (episode seed, output position). An
episode is a cursor ``n`` into it; a round commits the longest run of decisions
from ``n`` on that is a path of its draft, plus the next bonus. Modes thus
commit equal tokens by construction, so losslessness is checked against
``oracle.reference_episode`` (no store, every round played), not across modes.
The sequence is decided ahead of the rounds that read it: a round reads the
decisions ``seq[n:n + block_len + 1]``, the tokens its draft may accept and
the next bonus, and when they are not all decided the store decides up to
``DECISION_SPAN`` positions past them, never past ``end + block_len``, which
no round reads. A tree walk reads that slice by index; a path round compares
its path with it.

``max_new_tokens`` budgets the tokens committed by verification rounds; the
initial prefill token (round 1's bonus) is produced before any round and does
not count against it.

Sweep scope: a window's drafted rows are a pure function of its n-gram window
(the last ``model.order`` tokens, ending with the bonus) and the drafter spec
``EpisodeConfig.drafter``, whichever mode verifies them. ``sweep_scope(model)``
opens one store for a whole sweep. Per drafter spec it keeps, by window, a
flattened tree with the budget it was built at, and a chain's path over the
deepest rows any tree or chain
drew; never a live drafter, and nothing for the baseline. The heap pops
prefixes in nonincreasing mass, so a round at budget B walks the first B + 1
entries of a tree built at B or more, and otherwise builds at B and replaces
the entry; ``budget_sweep`` runs its rows largest budget first, so each
window's tree is built once. The store also keeps each ``episode_seed`` it
derived, one token sequence per (episode seed, prompt_len, temperature), so
each prompt is made and each position decided once per sweep, and per
temperature and context the row that decides a position (the greedy token, or
the tempered CDF, read once from the table): at most one float per table
entry. At T > 0 a span's position uniforms come from one ``position_uniforms``
call and are not kept. At T=0 a round's rollout, and so its whole walk, is a
function of its window: per drafter spec, mode and budget the store keeps each
greedy round played, its outcome and nodes verified, by window, and a later
round that meets the window plays nothing. A hit returns exactly what a
rebuild would. An episode finds its spec's dicts once, so a round hashes only
its window. ``run_episode`` and ``run_episodes`` open a scope only when none
is open; it serves one model, holds at most |V|^order windows per dict, and
runs every episode in the calling process.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .distributions import NODE_GUARD, MarginalBlock, require_count, require_real
# No round calls ``drafter_marginals`` or ``chain_tree``; ``perfbench/run.py``
# still rebinds both by these names.
from .models import DrafterConfig, NgramModel, drafter_chunks, drafter_marginals, target_next
from .treebuild import build_tree, chain_tree  # noqa: F401
from .verify import FlattenedTree, RoundOutcome, flatten, round_trace_record, verifier_walk

MODES = ("tree", "chain", "baseline")

_POSITION_STREAM = 0
_PROMPT_STREAM = 1
# Positions a sweep store decides past a round's reach at once, in one loop
# and, at T > 0, one ``position_uniforms`` call, whose fixed cost outweighs
# its cost per position up to a few hundred positions.
DECISION_SPAN = 256


class NonPositiveCost(ValueError):
    """Cost model parameters outside their valid range."""


@dataclass(frozen=True)
class CostModel:
    """Parameterized round-cost model for speedup estimates.

    An invented stand-in for wall-clock measurement: one target forward costs
    ``t_target``; a speculative round costs one drafter pass plus a verify
    pass whose cost grows linearly in the number of tree nodes.
    """

    t_target: float = 1.0
    t_draft: float = 0.1
    t_verify_base: float = 1.0
    kappa: float = 0.002

    def __post_init__(self) -> None:
        try:
            require_real("t_target", self.t_target, 0.0, strict=True)
            require_real("t_draft", self.t_draft, 0.0)
            require_real("t_verify_base", self.t_verify_base, 0.0, strict=True)
            require_real("kappa", self.kappa, 0.0)
        except ValueError as exc:
            raise NonPositiveCost(str(exc)) from None


DEFAULT_COST = CostModel()


def estimate_speedup(mean_tau: float, budget: int, cost: CostModel = DEFAULT_COST) -> float:
    """Estimated speedup over plain autoregressive decoding.

    mean_tau tokens per round, each worth one target pass, against the cost
    of one round: a draft pass plus verification of ``budget`` tree nodes.
    Non-monotone in the budget once mean_tau saturates.
    """
    require_real("mean_tau", mean_tau, 0.0)
    require_count("budget", budget, 0)
    return mean_tau * cost.t_target / (
        cost.t_draft + cost.t_verify_base * (1.0 + cost.kappa * budget)
    )


@dataclass(frozen=True)
class EpisodeConfig:
    """One seeded episode of ``mode`` (one of ``MODES``); ``require_count`` checks each count.

    ``seed`` fixes the ``prompt_len``-token prompt and every sampling uniform;
    ``temperature`` 0 decodes greedily. ``budget`` is the tree's node count
    per round; the chain verifies ``block_len`` nodes and the baseline 0. The
    drafter drafts ``block_len`` rows mixed with uniform at ``drafter_noise``.
    Rounds commit at most ``max_new_tokens`` tokens and stop early after
    committing ``eos_token`` or after ``max_rounds`` rounds (None: no such
    stop). ``collect_trace`` keeps each round's record in the result's trace.
    """

    seed: int
    max_new_tokens: int
    prompt_len: int = 8
    temperature: float = 0.0
    budget: int = 64
    block_len: int = 16
    mode: str = "tree"
    drafter_noise: float = 0.3
    eos_token: int | None = None
    max_rounds: int | None = None
    collect_trace: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        require_count("seed", self.seed, 0)
        require_count("max_new_tokens", self.max_new_tokens, 1)
        require_count("prompt_len", self.prompt_len, 1)
        require_count("budget", self.budget, 0 if self.mode == "baseline" else 1, NODE_GUARD)
        require_count("block_len", self.block_len, 1, NODE_GUARD)
        if self.max_rounds is not None:
            require_count("max_rounds", self.max_rounds, 0)
        if self.eos_token is not None:
            require_count("eos_token", self.eos_token, 1)  # token 0 is the context pad
        require_real("temperature", self.temperature, 0.0)
        require_real("drafter_noise", self.drafter_noise, 0.0, 1.0)

    @property
    def drafter(self) -> DrafterConfig:
        """The drafter spec: every field a window's drafted rows depend on, whatever the mode."""
        return DrafterConfig(self.drafter_noise, self.block_len)


@dataclass(frozen=True)
class EpisodeStats:
    """Acceptance statistics of one episode, or of several of one config pooled.

    ``budget`` is the number of nodes verified per round: B for the tree,
    block_len for the chain, 0 for the baseline. ``tau_histogram[k-1]`` counts
    rounds that committed exactly k tokens (accepted drafted tokens plus the
    bonus), k in 1..block_len+1; the round and token counts derive from it.
    """

    mode: str
    budget: int
    episodes: int
    tau_histogram: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        require_count("budget", self.budget, 0)
        require_count("episodes", self.episodes, 1)
        for count in self.tau_histogram:
            require_count("tau_histogram count", count, 0)

    @property
    def rounds(self) -> int:
        return sum(self.tau_histogram)

    @property
    def committed_tokens(self) -> int:
        return sum(k * count for k, count in enumerate(self.tau_histogram, start=1))

    @property
    def mean_tau(self) -> float:
        return self.committed_tokens / self.rounds if self.rounds else 0.0

    def speedup(self, cost: CostModel = DEFAULT_COST) -> float:
        """Estimated speedup of this config under ``cost``."""
        if self.mode == "baseline":
            return 1.0  # baseline is the autoregressive reference itself
        return estimate_speedup(self.mean_tau, self.budget, cost)

    @property
    def est_speedup(self) -> float:
        return self.speedup()


@dataclass(frozen=True)
class EpisodeResult:
    stats: EpisodeStats
    tokens: tuple[int, ...]  # prefill token followed by all round commits
    trace: tuple[dict, ...]


def _position_uniform(seed: int, position: int) -> float:
    """The uniform that decides output position ``position`` for this seed."""
    return float(np.random.default_rng([seed, _POSITION_STREAM, position]).random())


_WORD = 0xFFFFFFFF
# numpy's SeedSequence hash constants, and PCG64's 128-bit multiplier in 64-bit halves.
_MIX_INIT, _MIX_MULT, _STATE_INIT, _STATE_MULT = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_PCG_HIGH, _PCG_LOW = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _hashmix(values: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of each row of ``values`` in turn, and the advanced constant."""
    consts = [const]
    for _ in values:
        consts.append(consts[-1] * mult & _WORD)
    column = np.array(consts, dtype=np.uint32)[:, None]
    values = (values ^ column[:-1]) * column[1:]
    return values ^ values >> 16, consts[-1]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two words."""
    mixed = x * _MIX_LEFT - y * _MIX_RIGHT
    return mixed ^ mixed >> 16


def _pcg_step(high: np.ndarray, low: np.ndarray, inc: tuple[np.ndarray, np.ndarray]):
    """PCG64's state step, ``state * multiplier + inc`` modulo 2**128, on 64-bit halves."""
    low0, low1 = low & _WORD, low >> 32
    p00, p01, p10 = (low0 * (_PCG_LOW & _WORD), low0 * (_PCG_LOW >> 32),
                     low1 * (_PCG_LOW & _WORD))
    mid = (p00 >> 32) + (p01 & _WORD) + (p10 & _WORD)
    product = (p00 & _WORD) | mid << 32
    high = (low1 * (_PCG_LOW >> 32) + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
            + low * _PCG_HIGH + high * _PCG_LOW)
    low = product + inc[1]
    return high + inc[0] + (low < product), low


def position_uniforms(seed: int, start: int, count: int) -> list[float]:
    """``_position_uniform(seed, p)`` for the ``count`` positions from ``start``, bit for bit.

    Replays, on arrays over the positions, what ``default_rng`` does before its
    first ``random()``: numpy's SeedSequence hash (a pool of 4 words mixing the
    entropy words: ``seed``'s uint32 words, low first, then ``_POSITION_STREAM``,
    then the position), the 4 state words it draws, PCG64's seeding and one
    step. Positions must be below 2**32, one entropy word each. Every operand
    is an array: a numpy scalar's wrapping product warns.
    """
    require_count("seed", seed, 0)
    require_count("start", start, 0, 2**32 - 1)
    require_count("count", count, 0, 2**32 - start)
    seed = operator.index(seed)
    words = [seed >> shift & _WORD for shift in range(0, max(seed.bit_length(), 1), 32)]
    words.append(_POSITION_STREAM)
    entropy = np.zeros((max(len(words) + 1, 4), count), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, start + count)
    pool, const = _hashmix(entropy[:4], _MIX_INIT, _MIX_MULT)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed, const = _hashmix(pool[[src] * 3], const, _MIX_MULT)
        pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[4:]:
        hashed, const = _hashmix(np.tile(word, (4, 1)), const, _MIX_MULT)
        pool = _mix(pool, hashed)
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_INIT, _STATE_MULT)[0].astype(np.uint64)
    # PCG64's seeding: inc = 2 * initseq + 1, and the state starts at initstate + inc.
    init_high, init_low, seq_high, seq_low = state[0::2] | state[1::2] << 32
    inc = (seq_high << 1 | seq_low >> 63, seq_low << 1 | 1)
    low = init_low + inc[1]
    high = init_high + inc[0] + (low < init_low)
    for _ in range(2):  # the seeding's last step, then the draw's
        high, low = _pcg_step(high, low, inc)
    # The draw: the halves' xor rotated right by the state's top 6 bits, then its top 53 bits.
    rotate, out = high >> 58, high ^ low
    out = out >> rotate | out << (-rotate & 63)
    return ((out >> 11) * 2.0**-53).tolist()


def make_prompt(model: NgramModel, seed: int, prompt_len: int) -> tuple[int, ...]:
    """Seeded prompt over non-pad tokens."""
    require_count("seed", seed, 0)
    require_count("prompt_len", prompt_len, 1)
    rng = np.random.default_rng([seed, _PROMPT_STREAM])
    return tuple(int(t) for t in rng.integers(1, model.vocab_size, size=prompt_len))


def decode_next(
    model: NgramModel, context: Sequence[int], temperature: float, u: float | None
) -> int:
    """The target's decoding rule: greedy argmax or temperature sampling.

    Sampling consumes exactly one uniform ``u`` via the inverse CDF of the
    temperature-scaled row; temperature 1.0 uses the row as-is. The row is
    scaled to a maximum of 1 before tempering, so its largest weight stays 1
    and small temperatures approach the argmax instead of underflowing. Both
    rules read tokens 1..|V|-1 only, so the context pad is never generated:
    tempering lifts its clamp-minimum mass, and a hand-built row may peak at it.
    The sweep store applies the same ``_decide`` to the ``_decision_row`` it keeps.
    """
    return _decide(_decision_row(model, context, temperature), u)


def _decision_row(
    model: NgramModel, context: Sequence[int], temperature: float
) -> int | array:
    """What decides every position after ``context``: the greedy token at T=0, else the CDF.

    The CDF is the cumulative tempered weights of tokens 1..|V|-1, ``np.cumsum``'s
    bytes held in an ``array("d")``, which ``bisect_right`` searches without numpy.
    """
    row = target_next(model, context)[1:]
    if temperature == 0.0:
        return 1 + int(np.argmax(row))
    weights = row if temperature == 1.0 else (row / row.max()) ** (1.0 / temperature)
    return array("d", np.cumsum(weights).tobytes())


def _decide(row: int | array, u: float | None) -> int:
    """The token a decision row gives for the uniform ``u``, which a greedy row ignores.

    ``bisect_right`` finds what ``searchsorted(side="right")`` finds: the first
    step of the CDF above ``u`` times its total.
    """
    if type(row) is int:
        return row
    if u is None:
        raise ValueError("sampling requires a uniform draw")
    return 1 + min(bisect_right(row, u * row[-1]), len(row) - 1)


def argmax_path(block: MarginalBlock) -> tuple[int, ...]:
    """Each row's argmax, the lowest id on ties: the tokens of the block's ``chain_tree``."""
    return tuple(int(t) for t in block.probs.argmax(axis=1))


class _Drafts(NamedTuple):
    """One drafter spec's drafts, and its greedy rounds per (mode, budget), by window."""

    # (built at, flat) per window; a round at budget B walks its first B + 1 entries.
    trees: dict[tuple[int, ...], tuple[int, FlattenedTree]]
    # The argmax path over the deepest rows a tree or a chain drew.
    paths: dict[tuple[int, ...], tuple[int, ...]]
    # A greedy round's (outcome, nodes verified) per window, one dict per (mode, budget).
    rounds: dict[tuple[str, int], dict[tuple[int, ...], tuple[RoundOutcome, int]]]


class _SweepStore:
    """What the rows of one sweep share: drafts, token sequences and what decides them.

    ``drafts[spec]`` holds the ``_Drafts`` of one drafter spec, so drafts of
    other specs never meet. ``sequences[(seed, prompt_len, temperature)]`` is
    that episode's prompt followed by the target's decisions, which
    ``decide`` extends a span at a time. A decision reads ``rows[(temperature,
    context)]``, the context's ``_decision_row``, and at T > 0 the uniform of
    its position, drawn with the span's. ``seeds[(base seed, index)]`` is an
    ``episode_seed``.
    """

    def __init__(self, model: NgramModel) -> None:
        self.model = model
        self.drafts: defaultdict[DrafterConfig, _Drafts] = defaultdict(
            lambda: _Drafts({}, {}, defaultdict(dict)))
        self.sequences: dict[tuple[int, int, float], list[int]] = {}
        self.rows: dict[tuple[float, tuple[int, ...]], int | array] = {}
        self.seeds: dict[tuple[int, int], int] = {}

    def decide(self, seq: list[int], cfg: EpisodeConfig, stop: int) -> None:
        """Extend ``seq``, ``cfg``'s episode sequence, with ``decode_next``'s tokens to ``stop``.

        One loop over the positions, whose uniforms at T > 0 come from one
        ``position_uniforms`` call; each context's decision row is read once.
        """
        rows, model, temperature = self.rows, self.model, cfg.temperature
        order, start = model.order, len(seq)
        if temperature == 0.0:
            uniforms = [None] * (stop - start)
        else:
            uniforms = position_uniforms(cfg.seed, start - cfg.prompt_len, stop - start)
        for u in uniforms:
            context = tuple(seq[-order:])
            row = rows.get((temperature, context))
            if row is None:
                row = rows[temperature, context] = _decision_row(model, context, temperature)
            seq.append(_decide(row, u))

    def episode_seed(self, base_seed: int, index: int) -> int:
        """``episode_seed(base_seed, index)``, derived once per scope."""
        seed = self.seeds.get((base_seed, index))
        if seed is None:
            seed = self.seeds[base_seed, index] = episode_seed(base_seed, index)
        return seed


_scope: ContextVar[_SweepStore | None] = ContextVar("sweep_scope", default=None)


@contextmanager
def sweep_scope(model: NgramModel) -> Iterator[_SweepStore]:
    """Share one store of drafts, token sequences and decisions across rows.

    Opens a store for ``model`` unless one is open already, in which case the
    open one serves; no key of the store has a model field, so a scope open
    for another model raises ValueError. The store is dropped when the scope
    that opened it exits. Drafts do not depend on temperature or episode
    count, and sequences and decision rows are keyed by all they depend on
    besides the model, so any rows of one model may share a scope.
    """
    store = _scope.get()
    if store is not None:
        if store.model is not model:
            raise ValueError("a sweep scope serves one model")
        yield store
        return
    store = _SweepStore(model)
    token = _scope.set(store)
    try:
        yield store
    finally:
        _scope.reset(token)


def run_episode(model: NgramModel, cfg: EpisodeConfig) -> EpisodeResult:
    """Run one full decoding episode, a cursor into its stored sequence, and collect its stats."""
    if cfg.eos_token is not None and cfg.eos_token >= model.vocab_size:
        raise ValueError(f"eos_token {cfg.eos_token} is not below vocab_size {model.vocab_size}")
    spec = cfg.drafter
    budget = {"tree": cfg.budget, "chain": cfg.block_len}.get(cfg.mode, 0)  # nodes per round
    order = model.order
    with sweep_scope(model) as store:
        seq_key = (cfg.seed, cfg.prompt_len, cfg.temperature)
        seq = store.sequences.get(seq_key)
        if seq is None:
            seq = store.sequences[seq_key] = list(make_prompt(model, cfg.seed, cfg.prompt_len))
        trees, paths, greedy_rounds = store.drafts[spec]
        n = cfg.prompt_len + 1  # the prompt and the prefill bonus
        end = n + cfg.max_new_tokens
        # A round reads the decisions seq[n:n + reach]: the tokens its draft
        # may accept and the next bonus, so no round reads past end + block_len.
        reach, last = cfg.block_len + 1, end + cfg.block_len
        if len(seq) < n + reach:
            store.decide(seq, cfg, min(n + reach + DECISION_SPAN, last))
        hist = [0] * (cfg.block_len + 1)
        rounds = 0
        trace: list[dict] = []

        def tree_round(window) -> tuple[RoundOutcome, int]:
            entry = trees.get(window)
            if entry is None or entry[0] < budget:  # drafts only the row chunks the tree reaches
                tree = build_tree(drafter_chunks(model, window[:-1], window[-1], spec), budget)
                entry = trees[window] = (budget, flatten(tree, window[-1]))
                # The rows the build drew hold the chain's path too: keep the longer one.
                if len(tree.row_argmax) > len(paths.get(window, ())):
                    paths[window] = tuple(tree.row_argmax.tolist())
            flat = entry[1].prefix(budget + 1)  # the first B pops of the stored tree
            return verifier_walk(flat, seq[n:n + reach].__getitem__), len(flat) - 1

        def chain_round(window) -> tuple[RoundOutcome, int]:
            decided = seq[n:n + reach]
            path, chunks, a = paths.get(window, ()), None, 0
            while True:
                while a < len(path) and path[a] == decided[a]:
                    a += 1
                if a < len(path) or a == budget:  # a miss, or the whole block accepted
                    return RoundOutcome(tuple(range(a + 1)), decided[a]), budget
                if chunks is None:  # the store holds no drafter: draw anew from row 0
                    chunks = drafter_chunks(model, window[:-1], window[-1], spec, order)
                    path = ()
                while len(path) <= a:  # only the chunks the walk reads into
                    path += argmax_path(next(chunks))
                paths[window] = path

        def baseline_round(window) -> tuple[RoundOutcome, int]:
            return RoundOutcome((0,), seq[n]), 0  # no path: the bonus alone

        play = {"tree": tree_round, "chain": chain_round}.get(cfg.mode, baseline_round)
        greedy = greedy_rounds[cfg.mode, budget] if cfg.temperature == 0.0 else None
        # A commit ends right after its EOS, so an episode stops at one; a
        # count never equals None.
        while n < end and seq[n - 1] != cfg.eos_token and rounds != cfg.max_rounds:
            if len(seq) < n + reach:
                store.decide(seq, cfg, min(n + reach + DECISION_SPAN, last))
            window = tuple(seq[max(0, n - order):n])  # ends with the bonus
            if greedy is None:
                outcome, verified = play(window)
            elif (played := greedy.get(window)) is None:
                outcome, verified = greedy[window] = play(window)
            else:  # a greedy walk is a function of its window
                outcome, verified = played
            # The round's tokens are seq[n:n + k]: the accepted path, then the bonus.
            k = min(outcome.acceptance_length + 1, end - n)
            if cfg.eos_token in seq[n:n + k]:
                k = seq.index(cfg.eos_token, n) - n + 1

            n += k
            rounds += 1
            hist[k - 1] += 1
            if cfg.collect_trace:
                # A tail round cut short by the token budget records what it verified.
                trace.append(round_trace_record(rounds - 1, budget, verified, outcome))

    stats = EpisodeStats(mode=cfg.mode, budget=budget, episodes=1, tau_histogram=tuple(hist))
    return EpisodeResult(stats=stats, tokens=tuple(seq[cfg.prompt_len:n]), trace=tuple(trace))


def episode_seed(base_seed: int, episode_index: int) -> int:
    """Derived per-episode seed, identical across budgets and modes."""
    return int(np.random.SeedSequence([base_seed, episode_index]).generate_state(1)[0])


def run_episodes(
    model: NgramModel, cfg: EpisodeConfig, episodes: int, workers: int = 1
) -> EpisodeStats:
    """Run ``episodes`` seeded episodes of one config and pool their stats.

    The pooled histogram is the episodes' histograms summed bin by bin, built and checked once.

    Episode seeds derive from (cfg.seed, episode index). The episodes run in
    episode order in this process, under the open sweep scope, or under one
    opened here and dropped on return; a scope serving another model raises
    ValueError. ``workers`` is kept only because ``perfbench/`` passes it: it
    must be a count >= 1 and is otherwise unused.
    """
    require_count("episodes", episodes, 1)
    require_count("workers", workers, 1)
    with sweep_scope(model) as store:
        stats = [
            run_episode(model, replace(cfg, seed=store.episode_seed(cfg.seed, i))).stats
            for i in range(episodes)
        ]
    pooled = tuple(map(sum, zip(*(s.tau_histogram for s in stats))))
    return replace(stats[0], episodes=episodes, tau_histogram=pooled)


@dataclass(frozen=True)
class SweepRow:
    stats: EpisodeStats

    @property
    def budget(self) -> int:
        return self.stats.budget


def budget_sweep(
    model: NgramModel,
    base_cfg: EpisodeConfig,
    budgets: Iterable[int],
    episodes: int = 1,
    workers: int = 1,
) -> list[SweepRow]:
    """Tree-mode episodes per budget with identical episode seeds throughout.

    The rows share one sweep scope and run largest budget first, so each
    window's tree is built once, at the largest budget of the rows that meet
    it; they are returned in ascending budget order. ``workers`` is kept only
    because ``perfbench/`` passes it; ``run_episodes`` checks it and
    otherwise ignores it.
    """
    budgets = list(budgets)  # read a one-shot iterable once
    for budget in budgets:
        require_count("budget", budget, 1, NODE_GUARD)  # before any row runs
    budgets = [operator.index(b) for b in budgets]
    if not budgets:
        raise ValueError("budgets must be nonempty")
    if budgets != sorted(budgets):
        raise ValueError("budgets must be sorted ascending")
    rows = []
    with sweep_scope(model):
        for budget in reversed(budgets):
            cfg = replace(base_cfg, mode="tree", budget=budget)
            rows.append(SweepRow(run_episodes(model, cfg, episodes, workers)))
    return rows[::-1]
