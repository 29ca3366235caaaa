"""Round-by-round speculative decoding episodes over synthetic targets.

Each round: take the current bonus token, draft a tree (the chain is a
one-branch tree; the baseline's has no nodes and queries no drafter), walk it
under the target's decoding rule, commit the accepted path plus the next bonus,
and repeat. A tree round hands ``build_tree`` the drafter's row chunks
(``models.drafter_chunks``), so it drafts only the rows its tree reaches; the
chain reaches depth L and drafts the whole block.

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

Sweep scope: the target reads only the last ``model.order`` tokens, so a
round's draft is a pure function of its n-gram window (the last ``order``
tokens of prompt plus committed tokens; the bonus is the last of them), the
mode, block_len and drafter_noise, and for a tree the budget. The best-first
heap pops prefixes in nonincreasing mass, so the tree at budget B is the first
B pops of the tree at any larger budget. ``sweep_scope(model)`` opens one store
for a whole sweep: per window and mode it keeps one flattened draft and the
node budget it was built at. A round at budget B reuses the entry when it was
built at B or more and walks its first B + 1 entries; otherwise it builds at B
and replaces the entry. ``budget_sweep`` runs its rows largest budget first,
so each window's tree is built once, at the largest budget of the rows that
meet the window. The store also keeps one token sequence per (episode seed,
prompt_len, temperature), so each prompt is made and each output position
decided once per sweep. A hit returns exactly what a rebuild would, so every
output is unchanged.
``run_episode`` and ``run_episodes`` open a scope only when none is open. A
scope serves one model and holds at most |V|^order windows per mode and
config; the caller runs each row's slice 0 under it, and helper process k
always runs slice k under a store of its own.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Iterator, Sequence

import numpy as np

from .models import DrafterConfig, NgramModel, drafter_chunks, drafter_marginals, target_next
from .treebuild import DraftTree, build_tree, chain_tree
from .verify import FlattenedTree, flatten, round_trace_record, verifier_walk

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
        costs = (self.t_target, self.t_draft, self.t_verify_base, self.kappa)
        if not all(map(math.isfinite, costs)):
            raise NonPositiveCost("cost parameters must be finite")
        if self.t_target <= 0.0 or self.t_verify_base <= 0.0:
            raise NonPositiveCost("t_target and t_verify_base must be > 0")
        if self.t_draft < 0.0 or self.kappa < 0.0:
            raise NonPositiveCost("t_draft and kappa must be >= 0")


DEFAULT_COST = CostModel()


def estimate_speedup(mean_tau: float, budget: int, cost: CostModel = DEFAULT_COST) -> float:
    """Estimated speedup over plain autoregressive decoding.

    mean_tau tokens per round, each worth one target pass, against the cost
    of one round: a draft pass plus verification of ``budget`` tree nodes.
    Non-monotone in the budget once mean_tau saturates.
    """
    return mean_tau * cost.t_target / (
        cost.t_draft + cost.t_verify_base * (1.0 + cost.kappa * budget)
    )


def _require_count(name: str, value: object, low: int | None = None) -> None:
    """Reject a value that is not an integer (numpy integers pass) or is below ``low``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")


@dataclass(frozen=True)
class EpisodeConfig:
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
        _require_count("seed", self.seed, 0)
        _require_count("max_new_tokens", self.max_new_tokens, 1)
        _require_count("prompt_len", self.prompt_len, 1)
        _require_count("budget", self.budget, None if self.mode == "baseline" else 1)
        _require_count("block_len", self.block_len, 1)
        if self.max_rounds is not None:
            _require_count("max_rounds", self.max_rounds, 0)
        if self.eos_token is not None:
            _require_count("eos_token", self.eos_token, 1)  # token 0 is the context pad
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be finite and >= 0")
        if not 0.0 <= self.drafter_noise <= 1.0:
            raise ValueError("drafter_noise must lie in [0, 1]")


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
    _require_count("seed", seed, 0)
    rng = np.random.default_rng([seed, _PROMPT_STREAM])
    return tuple(int(t) for t in rng.integers(1, model.vocab_size, size=prompt_len))


def decode_next(
    model: NgramModel, context: Sequence[int], temperature: float, u: float | None
) -> int:
    """The target's decoding rule: greedy argmax or temperature sampling.

    Sampling consumes exactly one uniform ``u`` via the inverse CDF of the
    temperature-scaled row; temperature 1.0 uses the row as-is. The row is
    scaled to a maximum of 1 before tempering, so its largest weight stays 1
    and small temperatures approach the argmax instead of underflowing. The
    inverse CDF runs over tokens 1..|V|-1 only: tempering lifts the context
    pad's clamp-minimum mass, and the pad is never generated.
    """
    row = target_next(model, context)
    if temperature == 0.0:
        return int(np.argmax(row))
    if u is None:
        raise ValueError("sampling requires a uniform draw")
    weights = row if temperature == 1.0 else (row / row.max()) ** (1.0 / temperature)
    cdf = np.cumsum(weights[1:])
    return 1 + min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)


# A round's draft is a pure function of its n-gram window and these config
# fields; a tree is stored with the budget it was built at and read as a prefix.
_DraftKey = tuple[tuple[int, ...], str, int, float]


class _SweepStore:
    """What the rows of one sweep share: drafts, token sequences and the helper processes.

    ``sequences[(seed, prompt_len, temperature)]`` is that episode's prompt
    followed by the target's decisions, extended on demand.
    """

    def __init__(self, model: NgramModel) -> None:
        self.model = model
        self.drafts: dict[_DraftKey, tuple[int, FlattenedTree]] = {}  # (built at, draft)
        self.sequences: dict[tuple[int, int, float], list[int]] = {}
        self.helpers: list[ProcessPoolExecutor] = []  # helpers[k - 1] runs slice k


_scope: ContextVar[_SweepStore | None] = ContextVar("sweep_scope", default=None)


@contextmanager
def sweep_scope(model: NgramModel) -> Iterator[_SweepStore]:
    """Share one store of drafts and token sequences, and the helper processes, across rows.

    Opens a store for ``model`` unless one is open already, in which case the
    open one serves; no draft key has a model field, so a scope open for
    another model raises ValueError. The caller runs each row's slice 0 under
    the store and helper k always runs slice k under one of its own; both are
    dropped when the scope that opened them exits. A stored draft remembers
    the budget it was built at and serves every round at that budget or less;
    a round at a larger budget rebuilds it. ``budget_sweep`` runs largest
    budget first, so each window's tree is built once, at the largest budget
    of the rows that meet the window. Drafts do not depend on temperature or
    episode count, and sequences are keyed by all they depend on besides the
    model, so any rows of one model may share a scope.
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
        for helper in store.helpers:
            helper.shutdown()


def _init_worker(model: NgramModel) -> None:
    """Give a helper process the model and a store of its own for its life."""
    _scope.set(_SweepStore(model))


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

        n = cfg.prompt_len + 1  # the prompt and the prefill bonus
        end = n + cfg.max_new_tokens
        done = target(n - 1) == cfg.eos_token
        hist = [0] * (cfg.block_len + 1)
        rounds = 0
        trace: list[dict] = []

        while n < end and not done:
            if cfg.max_rounds is not None and rounds >= cfg.max_rounds:
                break
            window = tuple(seq[max(0, n - order):n])  # ends with the bonus
            key = (window, cfg.mode, cfg.block_len, cfg.drafter_noise)
            entry = store.drafts.get(key)
            if entry is None or entry[0] < budget:
                tree = DraftTree(nodes=())  # baseline: the bonus alone
                context, bonus = window[:-1], window[-1]
                if cfg.mode == "tree":  # drafts only the row chunks the tree reaches
                    tree = build_tree(drafter_chunks(model, context, bonus, drafter_cfg), budget)
                elif cfg.mode == "chain":
                    tree = chain_tree(drafter_marginals(model, context, bonus, drafter_cfg))
                entry = store.drafts[key] = (budget, flatten(tree, bonus))
            flat = entry[1].prefix(budget + 1)  # a tree's first B pops; chain and baseline whole

            outcome = verifier_walk(flat, lambda path: target(n + len(path)))
            # The round's tokens are seq[n:n + k]: the accepted path, then the bonus.
            k = min(outcome.acceptance_length + 1, end - n)
            if cfg.eos_token in seq[n:n + k]:
                k = seq.index(cfg.eos_token, n) - n + 1
                done = True

            n += k
            rounds += 1
            hist[k - 1] += 1
            if cfg.collect_trace:
                # Walk-level values: a tail round truncated by the token budget
                # still records what verification produced.
                trace.append(round_trace_record(rounds - 1, budget, flat, outcome))

    stats = EpisodeStats(mode=cfg.mode, budget=budget, episodes=1, tau_histogram=tuple(hist))
    return EpisodeResult(stats=stats, tokens=tuple(seq[cfg.prompt_len:n]), trace=tuple(trace))


def episode_seed(base_seed: int, episode_index: int) -> int:
    """Derived per-episode seed, identical across budgets and modes."""
    return int(np.random.SeedSequence([base_seed, episode_index]).generate_state(1)[0])


def _episode_stats_task(configs: list[EpisodeConfig]) -> list[EpisodeStats]:
    """Run a slice of episodes under the open store.

    In a helper process that is the helper's own store; inline, the caller's.
    """
    store = _scope.get()
    return [run_episode(store.model, c).stats for c in configs]


def run_episodes(
    model: NgramModel, cfg: EpisodeConfig, episodes: int, workers: int = 1
) -> EpisodeStats:
    """Run ``episodes`` seeded episodes of one config and pool their stats.

    Episode seeds derive from (cfg.seed, episode index). The episodes run
    under the open sweep scope, or under one opened here and dropped on
    return; a scope serving another model raises ValueError. The caller runs
    slice 0 of min(workers, episodes) contiguous slices under the scope's
    store, and helper process k, started by the first row that needs it, runs
    slice k under its own. Results are reduced in episode order, so output is
    identical for every worker count.
    """
    _require_count("episodes", episodes, 1)
    _require_count("workers", workers, 1)
    configs = [replace(cfg, seed=episode_seed(cfg.seed, i)) for i in range(episodes)]
    workers = min(workers, episodes)
    size, extra = divmod(episodes, workers)
    bounds = [w * size + min(w, extra) for w in range(workers + 1)]
    slices = [configs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    with sweep_scope(model) as store:
        while len(store.helpers) < workers - 1:
            store.helpers.append(
                ProcessPoolExecutor(max_workers=1, initializer=_init_worker, initargs=(model,))
            )
        futures = [h.submit(_episode_stats_task, part) for h, part in zip(store.helpers, slices[1:])]
        stats = _episode_stats_task(slices[0]) + [s for f in futures for s in f.result()]
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
    it; they are returned in ascending budget order.
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


def default_workers() -> int:
    """Available parallelism, used as the worker-count default."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)
