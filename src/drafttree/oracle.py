"""Brute-force ground truth for tree construction and for whole episodes.

Nothing here is clever on purpose: prefixes are enumerated exhaustively,
expected acceptance length is computed by summing over every possible
continuation, and the optimal tree is read off a fully sorted table. The heap
builder in ``treebuild`` is trusted only because it agrees with this module.

The table's sort order matches the builder's deterministic tie-break (higher
score, then shallower depth, then lexicographically smaller rank tuple), and
entry scores are computed with the same incremental log updates the heap uses,
so node sets can be compared exactly instead of only values. The ``mass``
field is an independent linear-domain product and is what value checks use.

``reference_episode`` is the same kind of anchor for ``engine.run_episode``:
it shares no store, flattening or verifier walk with the engine, so the
engine's episodes are trusted because they equal it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .distributions import MarginalBlock
from .engine import (
    EpisodeConfig,
    EpisodeResult,
    EpisodeStats,
    _position_uniform,
    decode_next,
    make_prompt,
)
from .models import DrafterConfig, NgramModel, drafter_marginals
from .treebuild import (
    ROOT_PARENT,
    DraftTree,
    RankTuple,
    TreeNode,
    build_tree,
    chain_tree,
    node_prefixes,
    top_k_per_depth,
    tree_from_prefixes,
)

PREFIX_GUARD = 10**6


class InstanceTooLarge(ValueError):
    """Instance exceeds the brute-force enumeration guard."""


@dataclass(frozen=True)
class TableEntry:
    tokens: tuple[int, ...]
    ranks: RankTuple
    mass: float  # exact product of marginals along the prefix
    log_score: float  # incremental log score, same arithmetic as the heap


def _prefix_count(vocab_size: int, block_len: int) -> int:
    return sum(vocab_size**d for d in range(1, block_len + 1))


def enumerate_prefixes(block: MarginalBlock) -> tuple[TableEntry, ...]:
    """All nonempty prefixes of length <= L with exact masses, in builder order."""
    total = _prefix_count(block.vocab_size, block.block_len)
    if total > PREFIX_GUARD:
        raise InstanceTooLarge(f"{total} prefixes exceed the guard of {PREFIX_GUARD}")

    ranked = top_k_per_depth(block, block.vocab_size)  # full ranking, K = |V|
    logq = np.log(ranked.probs)

    # Walk the sibling/child successor graph from (0,); every rank tuple has a
    # unique predecessor so each prefix is visited exactly once.
    entries: list[TableEntry] = []
    queue: deque[tuple[RankTuple, float]] = deque([((0,), float(logq[0, 0]))])
    while queue:
        ranks, score = queue.popleft()
        depth = len(ranks)
        tokens = tuple(int(ranked.token_ids[i, r]) for i, r in enumerate(ranks))
        mass = math.prod(float(ranked.probs[i, r]) for i, r in enumerate(ranks))
        entries.append(TableEntry(tokens=tokens, ranks=ranks, mass=mass, log_score=score))
        last = ranks[-1]
        if last + 1 < block.vocab_size:
            sibling = score - float(logq[depth - 1, last]) + float(logq[depth - 1, last + 1])
            queue.append((ranks[:-1] + (last + 1,), sibling))
        if depth < block.block_len:
            queue.append((ranks + (0,), score + float(logq[depth, 0])))
    assert len(entries) == total

    entries.sort(key=lambda e: (-e.log_score, len(e.ranks), e.ranks))
    return tuple(entries)


def optimal_tree_exhaustive(block: MarginalBlock, budget: int) -> DraftTree:
    """Optimal tree by sorting the full table and taking the first B entries.

    Prefix closure of the selected set is asserted rather than enforced: any
    strict ancestor has strictly larger mass, so it must already sit earlier
    in the table.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    chosen = enumerate_prefixes(block)[:budget]
    index: dict[tuple[int, ...], int] = {}
    nodes: list[TreeNode] = []
    for i, entry in enumerate(chosen):
        if len(entry.tokens) == 1:
            parent = ROOT_PARENT
        else:
            parent_key = entry.tokens[:-1]
            assert parent_key in index, "top-B selection lost an ancestor"
            parent = index[parent_key]
        index[entry.tokens] = i
        nodes.append(
            TreeNode(
                token_id=entry.tokens[-1],
                depth=len(entry.tokens),
                parent=parent,
                log_mass=entry.log_score,
            )
        )
    return DraftTree(nodes=tuple(nodes))


def expected_acceptance_exact(block: MarginalBlock, tree: DraftTree) -> float:
    """Expected acceptance length by summing over every continuation.

    Enumerates all |V|^L continuations, weighs each by its product
    probability, and scores how deep it stays inside the tree. This is the
    definition of the objective, independent of the additive
    sum-of-prefix-masses shortcut, so agreement with ``surrogate_value`` is an
    executable proof of that identity.
    """
    n_cont = block.vocab_size**block.block_len
    if n_cont > PREFIX_GUARD:
        raise InstanceTooLarge(f"{n_cont} continuations exceed the guard of {PREFIX_GUARD}")

    grid = np.indices((block.vocab_size,) * block.block_len).reshape(block.block_len, -1).T
    weights = np.ones(n_cont, dtype=np.float64)
    for i in range(block.block_len):
        weights *= block.probs[i, grid[:, i]]

    # Encode prefixes as base-V integers per depth, then count how many
    # leading depths of each continuation appear in the tree.
    tree_codes: list[set[int]] = [set() for _ in range(block.block_len)]
    for prefix in node_prefixes(tree):
        code = 0
        for tok in prefix:
            code = code * block.vocab_size + tok
        tree_codes[len(prefix) - 1].add(code)

    alive = np.ones(n_cont, dtype=bool)
    alpha = np.zeros(n_cont, dtype=np.float64)
    codes = np.zeros(n_cont, dtype=np.int64)
    for d in range(block.block_len):
        codes = codes * block.vocab_size + grid[:, d]
        if tree_codes[d]:
            members = np.isin(codes, np.fromiter(tree_codes[d], dtype=np.int64))
        else:
            members = np.zeros(n_cont, dtype=bool)
        alive &= members
        alpha += alive
    return float(np.dot(weights, alpha))


def random_valid_tree(
    block: MarginalBlock, budget: int, rng: np.random.Generator
) -> DraftTree:
    """Grow a random prefix-closed tree of up to ``budget`` nodes.

    Used by property suites that need arbitrary valid trees, not only optimal
    ones. Repeatedly promotes a uniformly chosen frontier prefix (a child of
    the current tree or a fresh depth-1 token) into the tree.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    frontier: list[tuple[int, ...]] = [(t,) for t in range(block.vocab_size)]
    chosen: list[tuple[int, ...]] = []
    while frontier and len(chosen) < budget:
        pick = int(rng.integers(len(frontier)))
        frontier[pick], frontier[-1] = frontier[-1], frontier[pick]
        prefix = frontier.pop()
        chosen.append(prefix)
        if len(prefix) < block.block_len:
            frontier.extend(prefix + (t,) for t in range(block.vocab_size))
    return tree_from_prefixes(block, chosen)


def reference_episode(model: NgramModel, cfg: EpisodeConfig) -> EpisodeResult:
    """The episode ``engine.run_episode`` must return, computed the slow way.

    Every round drafts from the full history, rebuilds its tree (``build_tree``
    at the config's budget, ``chain_tree``, or no nodes for the baseline) and
    walks it by scanning the tree's node prefixes for the target's chosen
    child. Every step is a ``decode_next`` call on the whole history, with
    the uniform of its absolute output position. The trace is always built
    and returned only when ``cfg.collect_trace`` asks for it.
    """
    prompt = make_prompt(model, cfg.seed, cfg.prompt_len)
    drafter_cfg = DrafterConfig(noise=cfg.drafter_noise, block_len=cfg.block_len)
    budget = {"tree": cfg.budget, "chain": cfg.block_len}.get(cfg.mode, 0)

    def target(history: list[int]) -> int:
        position = len(history) - len(prompt)
        u = None if cfg.temperature == 0.0 else _position_uniform(cfg.seed, position)
        return decode_next(model, history, cfg.temperature, u)

    tokens = [target(list(prompt))]  # the prefill bonus, then every commit
    hist = [0] * (cfg.block_len + 1)
    trace: list[dict] = []
    done = tokens[0] == cfg.eos_token
    while len(tokens) - 1 < cfg.max_new_tokens and not done:
        if cfg.max_rounds is not None and len(trace) == cfg.max_rounds:
            break
        history = [*prompt, *tokens]
        tree = DraftTree(nodes=())
        if cfg.mode != "baseline":
            block = drafter_marginals(model, history[:-1], history[-1], drafter_cfg)
            tree = build_tree(block, budget) if cfg.mode == "tree" else chain_tree(block)
        prefixes = node_prefixes(tree)
        path: tuple[int, ...] = ()
        kept = [0]  # flattened indices: the root, then node i at i + 1
        while True:
            chosen = target(history + list(path))
            matches = [i for i, prefix in enumerate(prefixes) if prefix == path + (chosen,)]
            if not matches:
                break
            path += (chosen,)
            kept.append(matches[0] + 1)
        trace.append({
            "round_index": len(trace),
            "budget": budget,
            "tree_size": len(tree.nodes),
            "acceptance_length": len(path),
            "next_bonus": chosen,
            "kept_indices": kept,
        })
        commit = [*path, chosen][: cfg.max_new_tokens - (len(tokens) - 1)]
        if cfg.eos_token in commit:
            commit = commit[: commit.index(cfg.eos_token) + 1]
            done = True
        tokens += commit
        hist[len(commit) - 1] += 1

    stats = EpisodeStats(mode=cfg.mode, budget=budget, episodes=1, tau_histogram=tuple(hist))
    return EpisodeResult(
        stats=stats, tokens=tuple(tokens), trace=tuple(trace) if cfg.collect_trace else ()
    )
