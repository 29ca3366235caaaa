"""Round-by-round speculative decoding episodes over synthetic targets.

Each round verifies a draft off the current bonus token along the target's
rollout, commits the accepted path plus the next bonus, and repeats, in one of
two forms. A tree round walks its budgeted tree (``verifier_walk``), which
``build_tree`` drafts from row chunks (``models.drafter_chunks``) only as deep
as it grows. A chain or baseline round verifies a token path, accepting while
it equals the rollout: the baseline's is empty and never drafted, the chain's
is each row's argmax. A chain round draws rows only when its walk reads past
the rows drawn: a walk that accepts every token of the stored path (or finds
none) opens a drafter and draws its chunks from row 0 until the path is
longer than the tokens accepted, so at temperature 0, where a window's walk
is fixed, no window is drawn twice. The chain verifies, and is charged for,
L nodes a round.

Token sequence: speculative decoding commits exactly the target's own tokens,
so an episode is a prefix of one sequence: the seeded prompt, then the
target's decisions, each decided once per sweep from the last ``order`` tokens
before it and a uniform derived only from (episode seed, output position). An
episode is a cursor ``n`` into it; a round commits the longest run of decisions
from ``n`` on that is a path of its draft, plus the next bonus. Modes thus
commit equal tokens by construction, so losslessness is checked against
``oracle.reference_episode`` (full history, no store), not across modes.

``max_new_tokens`` budgets the tokens committed by verification rounds; the
initial prefill token (round 1's bonus) is produced before any round and does
not count against it.

Sweep scope: a round's draft is a pure function of its n-gram window (the last
``model.order`` tokens, ending with the bonus), the mode, block_len and
drafter_noise, and for a tree the budget. ``sweep_scope(model)`` opens one
store for a whole sweep. Per window and mode it keeps a chain's path over the
rows drawn so far, or a flattened tree and the budget it was built at, never a
live drafter; the baseline keeps nothing. The heap pops prefixes in
nonincreasing mass, so a round at budget B walks the first B + 1 entries of a
tree built at B or more, and otherwise builds at B and replaces the entry;
``budget_sweep`` runs its rows largest budget first, so each window's tree is
built once. The store also keeps one token sequence per (episode seed,
prompt_len, temperature), so each prompt is made and each position decided
once per sweep. A hit returns exactly what a rebuild would. ``run_episode``
and ``run_episodes`` open a scope only when none is open; it serves one model,
holds at most |V|^order windows per mode and config, and runs every episode in
the calling process.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Iterator, Sequence

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
        require_count("budget", self.budget, None if self.mode == "baseline" else 1, NODE_GUARD)
        require_count("block_len", self.block_len, 1, NODE_GUARD)
        if self.max_rounds is not None:
            require_count("max_rounds", self.max_rounds, 0)
        if self.eos_token is not None:
            require_count("eos_token", self.eos_token, 1)  # token 0 is the context pad
        require_real("temperature", self.temperature, 0.0)
        require_real("drafter_noise", self.drafter_noise, 0.0, 1.0)


@dataclass(frozen=True)
class EpisodeStats:
    """Acceptance statistics of one episode, or of several pooled by ``merge``.

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

    def merge(self, other: EpisodeStats) -> EpisodeStats:
        """Pool the episodes of two runs of one config."""
        config = (other.mode, other.budget, len(other.tau_histogram))
        if (self.mode, self.budget, len(self.tau_histogram)) != config:
            raise ValueError("only stats of one config can be pooled")
        return replace(
            self,
            episodes=self.episodes + other.episodes,
            tau_histogram=tuple(map(add, self.tau_histogram, other.tau_histogram)),
        )


@dataclass(frozen=True)
class EpisodeResult:
    stats: EpisodeStats
    tokens: tuple[int, ...]  # prefill token followed by all round commits
    trace: tuple[dict, ...]


def _position_uniform(seed: int, position: int) -> float:
    """The uniform that decides output position ``position`` for this seed."""
    return float(np.random.default_rng([seed, _POSITION_STREAM, position]).random())


def make_prompt(model: NgramModel, seed: int, prompt_len: int) -> tuple[int, ...]:
    """Seeded prompt over non-pad tokens."""
    require_count("seed", seed, 0)
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
    """
    row = target_next(model, context)[1:]
    if temperature == 0.0:
        return 1 + int(np.argmax(row))
    if u is None:
        raise ValueError("sampling requires a uniform draw")
    weights = row if temperature == 1.0 else (row / row.max()) ** (1.0 / temperature)
    cdf = np.cumsum(weights)
    return 1 + min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)


def argmax_path(block: MarginalBlock) -> tuple[int, ...]:
    """Each row's argmax, the lowest id on ties: the tokens of the block's ``chain_tree``."""
    return tuple(int(t) for t in block.probs.argmax(axis=1))


# A round's draft is a pure function of its n-gram window and these config fields.
_DraftKey = tuple[tuple[int, ...], str, int, float]


class _SweepStore:
    """What the rows of one sweep share: drafts and token sequences.

    ``sequences[(seed, prompt_len, temperature)]`` is that episode's prompt
    followed by the target's decisions, extended on demand.
    """

    def __init__(self, model: NgramModel) -> None:
        self.model = model
        # A tree's (built at, flat); a chain's argmax path over the rows drawn so far.
        self.drafts: dict[_DraftKey, tuple[int, FlattenedTree] | tuple[int, ...]] = {}
        self.sequences: dict[tuple[int, int, float], list[int]] = {}


_scope: ContextVar[_SweepStore | None] = ContextVar("sweep_scope", default=None)


@contextmanager
def sweep_scope(model: NgramModel) -> Iterator[_SweepStore]:
    """Share one store of drafts and token sequences across rows.

    Opens a store for ``model`` unless one is open already, in which case the
    open one serves; no draft key has a model field, so a scope open for
    another model raises ValueError. The store is dropped when the scope that
    opened it exits. Drafts do not depend on temperature or episode count,
    and sequences are keyed by all they depend on besides the model, so any
    rows of one model may share a scope.
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
    drafter_cfg = DrafterConfig(noise=cfg.drafter_noise, block_len=cfg.block_len)
    budget = {"tree": cfg.budget, "chain": cfg.block_len}.get(cfg.mode, 0)  # nodes per round
    order = model.order
    with sweep_scope(model) as store:
        seq_key = (cfg.seed, cfg.prompt_len, cfg.temperature)
        seq = store.sequences.get(seq_key)
        if seq is None:
            seq = store.sequences[seq_key] = list(make_prompt(model, cfg.seed, cfg.prompt_len))

        def target(index: int) -> int:
            while len(seq) <= index:
                position = len(seq) - cfg.prompt_len
                u = None if cfg.temperature == 0.0 else _position_uniform(cfg.seed, position)
                seq.append(decode_next(model, seq[-order:], cfg.temperature, u))
            return seq[index]

        def rollout(depth: int) -> int:  # the target's token at ``depth``; 0 follows the bonus
            return target(n + depth)

        n = cfg.prompt_len + 1  # the prompt and the prefill bonus
        end = n + cfg.max_new_tokens
        done = target(n - 1) == cfg.eos_token
        hist = [0] * (cfg.block_len + 1)
        rounds = 0
        trace: list[dict] = []

        def tree_round(key, context, bonus) -> tuple[RoundOutcome, int]:
            entry = store.drafts.get(key)
            if entry is None or entry[0] < budget:  # drafts only the row chunks the tree reaches
                tree = build_tree(drafter_chunks(model, context, bonus, drafter_cfg), budget)
                entry = store.drafts[key] = (budget, flatten(tree, bonus))
            flat = entry[1].prefix(budget + 1)  # the first B pops of the stored tree
            return verifier_walk(flat, rollout), len(flat) - 1

        def path_round(key, context, bonus) -> tuple[RoundOutcome, int]:
            path, chunks, a = store.drafts.get(key, ()), None, 0
            while True:
                while a < len(path) and path[a] == rollout(a):
                    a += 1
                if a < len(path) or a == budget:  # the baseline's path stays empty
                    return RoundOutcome(tuple(range(a + 1)), rollout(a)), budget
                if chunks is None:  # the store holds no drafter: draw anew from row 0
                    chunks, path = drafter_chunks(model, context, bonus, drafter_cfg), ()
                while len(path) <= a:  # only the chunks the walk reads into
                    path += argmax_path(next(chunks))
                store.drafts[key] = path

        play = tree_round if cfg.mode == "tree" else path_round
        while n < end and not done:
            if cfg.max_rounds is not None and rounds >= cfg.max_rounds:
                break
            window = tuple(seq[max(0, n - order):n])  # ends with the bonus
            key = (window, cfg.mode, cfg.block_len, cfg.drafter_noise)
            outcome, verified = play(key, window[:-1], window[-1])
            # The round's tokens are seq[n:n + k]: the accepted path, then the bonus.
            k = min(outcome.acceptance_length + 1, end - n)
            if cfg.eos_token in seq[n:n + k]:
                k = seq.index(cfg.eos_token, n) - n + 1
                done = True

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

    Episode seeds derive from (cfg.seed, episode index). The episodes run in
    episode order in this process, under the open sweep scope, or under one
    opened here and dropped on return; a scope serving another model raises
    ValueError. ``workers`` is kept only because ``perfbench/`` passes it: it
    must be a count >= 1 and is otherwise unused.
    """
    require_count("episodes", episodes, 1)
    require_count("workers", workers, 1)
    with sweep_scope(model):
        stats = [
            run_episode(model, replace(cfg, seed=episode_seed(cfg.seed, i))).stats
            for i in range(episodes)
        ]
    return reduce(EpisodeStats.merge, stats)


@dataclass(frozen=True)
class SweepRow:
    stats: EpisodeStats

    @property
    def budget(self) -> int:
        return self.stats.budget


def budget_sweep(
    model: NgramModel,
    base_cfg: EpisodeConfig,
    budgets: Sequence[int],
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
    if not budgets:
        raise ValueError("budgets must be nonempty")
    try:
        budgets = [operator.index(b) for b in budgets]
    except TypeError:
        raise ValueError("budgets must be integers") from None
    if budgets != sorted(budgets):
        raise ValueError("budgets must be sorted ascending")
    rows = []
    with sweep_scope(model):
        for budget in reversed(budgets):
            cfg = replace(base_cfg, mode="tree", budget=budget)
            rows.append(SweepRow(run_episodes(model, cfg, episodes, workers)))
    return rows[::-1]
