"""Round-by-round speculative decoding episodes over synthetic targets.

Each round: take the current bonus token, draft a tree (the chain is a
one-branch tree; the baseline's has no nodes and queries no drafter), walk it
under the target's decoding rule, commit the accepted path plus the next bonus,
and repeat.

RNG discipline: every target decision is keyed by its absolute output
position. The token at output position t is decided from a uniform derived
only from (episode seed, t), whether that decision happens inside a tree walk
or in a plain autoregressive loop. Committed streams are therefore
token-identical across modes at any temperature, which makes losslessness an
exact equality test rather than a distributional claim.

``max_new_tokens`` budgets the tokens committed by verification rounds; the
initial prefill token (round 1's bonus) is produced before any round and does
not count against it.

Draft cache: the target reads only the last ``model.order`` tokens, so a
round's draft (the flattened tree) is a pure function of its n-gram window,
the last ``order`` tokens of prompt plus committed tokens (the bonus is the
last of them), and of the config's mode, budget, block_len and drafter_noise.
``run_episode`` looks each round's draft up under that key and builds it only
on a miss; a hit returns exactly what a rebuild would, so every output is
unchanged. The cache lives for one ``run_episodes`` call (or one pool worker's
slice of it); a bare ``run_episode`` call caches within its own episode only.
It holds at most |V|^order windows per config. Target decisions likewise see
only the window plus the drafted path, never the whole history.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Iterator, Sequence

import numpy as np

from .models import DrafterConfig, NgramModel, drafter_marginals, target_next
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
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.prompt_len < 1:
            raise ValueError("prompt_len must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be finite and >= 0")
        if self.mode != "baseline" and self.budget < 1:
            raise ValueError("budget must be >= 1 for speculative modes")
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if not 0.0 <= self.drafter_noise <= 1.0:
            raise ValueError("drafter_noise must lie in [0, 1]")


@dataclass(frozen=True)
class EpisodeStats:
    """Acceptance statistics of one episode, or of several pooled by ``merge``.

    ``budget`` is the number of nodes verified per round: B for the tree,
    block_len for the chain, 0 for the baseline. ``tau_histogram[k-1]`` counts
    rounds that committed exactly k tokens (accepted drafted tokens plus the
    bonus), k in 1..block_len+1.
    """

    mode: str
    budget: int
    episodes: int
    rounds: int
    committed_tokens: int
    tau_histogram: tuple[int, ...]

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
            rounds=self.rounds + other.rounds,
            committed_tokens=self.committed_tokens + other.committed_tokens,
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
    rng = np.random.default_rng([seed, _PROMPT_STREAM])
    return tuple(int(t) for t in rng.integers(1, model.vocab_size, size=prompt_len))


def decode_next(
    model: NgramModel, context: Sequence[int], temperature: float, u: float | None
) -> int:
    """The target's decoding rule: greedy argmax or temperature sampling.

    Sampling consumes exactly one uniform ``u`` via the inverse CDF of the
    temperature-scaled row; temperature 1.0 uses the row as-is. The row is
    scaled to a maximum of 1 before tempering, so its largest weight stays 1
    and small temperatures approach the argmax instead of underflowing.
    """
    row = target_next(model, context)
    if temperature == 0.0:
        return int(np.argmax(row))
    if u is None:
        raise ValueError("sampling requires a uniform draw")
    weights = row if temperature == 1.0 else (row / row.max()) ** (1.0 / temperature)
    cdf = np.cumsum(weights)
    return min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), model.vocab_size - 1)


# A round's draft is a pure function of its n-gram window and the config
# fields below, so a scope shares one dict of drafts across its episodes.
_DraftKey = tuple[tuple[int, ...], str, int, int, float]
_draft_cache: ContextVar[dict[_DraftKey, FlattenedTree] | None] = ContextVar(
    "draft_cache", default=None
)


@contextmanager
def _draft_cache_scope() -> Iterator[None]:
    """Share one fresh draft cache among the run_episode calls inside."""
    token = _draft_cache.set({})
    try:
        yield
    finally:
        _draft_cache.reset(token)


def run_episode(model: NgramModel, cfg: EpisodeConfig) -> EpisodeResult:
    """Run one full decoding episode and collect acceptance statistics."""
    prompt = make_prompt(model, cfg.seed, cfg.prompt_len)
    drafter_cfg = DrafterConfig(noise=cfg.drafter_noise, block_len=cfg.block_len)
    budget = {"tree": cfg.budget, "chain": cfg.block_len}.get(cfg.mode, 0)  # nodes per round
    order = model.order
    drafts = _draft_cache.get()
    if drafts is None:
        drafts = {}

    def decide(context: Sequence[int], position: int) -> int:
        u = None if cfg.temperature == 0.0 else _position_uniform(cfg.seed, position)
        return decode_next(model, context[-order:], cfg.temperature, u)

    history = list(prompt)  # the prompt, then every committed token
    history.append(decide(prompt, 0))  # prefill bonus, output position 0
    hist = [0] * (cfg.block_len + 1)
    rounds = 0
    committed = 0
    trace: list[dict] = []
    done = cfg.eos_token is not None and history[-1] == cfg.eos_token

    while committed < cfg.max_new_tokens and not done:
        if cfg.max_rounds is not None and rounds >= cfg.max_rounds:
            break
        base_position = len(history) - len(prompt)
        window = tuple(history[-order:])  # ends with the bonus
        key = (window, cfg.mode, cfg.budget, cfg.block_len, cfg.drafter_noise)
        flat = drafts.get(key)
        if flat is None:
            tree = DraftTree(nodes=(), surrogate_value=0.0)  # baseline: the bonus alone
            if cfg.mode != "baseline":
                block = drafter_marginals(model, window[:-1], window[-1], drafter_cfg)
                tree = build_tree(block, cfg.budget) if cfg.mode == "tree" else chain_tree(block)
            flat = drafts[key] = flatten(tree, window[-1])

        def decode(path: tuple[int, ...]) -> int:
            return decide(window + path, base_position + len(path))

        outcome = verifier_walk(flat, decode)
        round_tokens = [*outcome.accepted_tokens, outcome.next_bonus]
        remaining = cfg.max_new_tokens - committed
        round_tokens = round_tokens[:remaining]
        if cfg.eos_token is not None and cfg.eos_token in round_tokens:
            round_tokens = round_tokens[: round_tokens.index(cfg.eos_token) + 1]
            done = True

        history.extend(round_tokens)
        committed += len(round_tokens)
        rounds += 1
        hist[len(round_tokens) - 1] += 1
        if cfg.collect_trace:
            # Walk-level values: a tail round truncated by the token budget
            # still records what verification produced.
            trace.append(round_trace_record(rounds - 1, budget, len(flat) - 1, outcome))

    stats = EpisodeStats(
        mode=cfg.mode, budget=budget, episodes=1, rounds=rounds,
        committed_tokens=committed, tau_histogram=tuple(hist),
    )
    return EpisodeResult(
        stats=stats, tokens=tuple(history[len(prompt):]), trace=tuple(trace)
    )


def episode_seed(base_seed: int, episode_index: int) -> int:
    """Derived per-episode seed, identical across budgets and modes."""
    return int(np.random.SeedSequence([base_seed, episode_index]).generate_state(1)[0])


def _episode_stats_task(args: tuple[NgramModel, list[EpisodeConfig]]) -> list[EpisodeStats]:
    """Run a slice of episodes (in one pool worker) sharing one draft cache."""
    model, configs = args
    with _draft_cache_scope():
        return [run_episode(model, c).stats for c in configs]


def run_episodes(
    model: NgramModel, cfg: EpisodeConfig, episodes: int, workers: int = 1
) -> EpisodeStats:
    """Run ``episodes`` seeded episodes of one config and pool their stats.

    Episode seeds derive from (cfg.seed, episode index). The episodes share
    one draft cache, opened here and dropped on return. With workers > 1 each
    pool worker runs one contiguous slice of the episodes under its own cache;
    episodes are pure functions of their inputs and results are reduced in
    episode order, so output is identical to serial execution.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    configs = [replace(cfg, seed=episode_seed(cfg.seed, i)) for i in range(episodes)]
    workers = min(workers, episodes)
    if workers > 1:
        size, extra = divmod(episodes, workers)
        bounds = [w * size + min(w, extra) for w in range(workers + 1)]
        slices = [(model, configs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = [s for part in pool.map(_episode_stats_task, slices) for s in part]
    else:
        stats = _episode_stats_task((model, configs))
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
    """Tree-mode episodes per budget with identical episode seeds throughout."""
    if not budgets:
        raise ValueError("budgets must be nonempty")
    if list(budgets) != sorted(budgets):
        raise ValueError("budgets must be sorted ascending")
    rows = []
    for budget in budgets:
        cfg = replace(base_cfg, mode="tree", budget=int(budget))
        rows.append(SweepRow(run_episodes(model, cfg, episodes, workers)))
    return rows


def default_workers() -> int:
    """Available parallelism, used as the worker-count default."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)
