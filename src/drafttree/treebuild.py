"""Best-first construction of budgeted draft trees from block marginals.

A draft tree is a prefix-closed set of candidate continuations hanging off the
current bonus token. Because the surrogate objective (expected acceptance
length under the factorized draft distribution) is an additive sum of prefix
masses, the optimal tree under a node budget B is simply the B
highest-mass prefixes, and that set is automatically prefix-closed since every
ancestor strictly dominates its descendants.

``build_tree`` recovers those B prefixes lazily: prefixes are indexed by
per-depth probability ranks, and a max-heap enumerates rank tuples in
nonincreasing score order, pushing at most two successors per pop (the next
sibling, which bumps the last rank, and the first child, which appends rank 0
at the next depth). The heap stage therefore does at most B pops and 2B
pushes. ``chain_tree`` runs the same heap over each depth's top token only,
with no budget, which yields the single per-depth argmax path of a block.

Each pop asserts that its incremental score is within ``SCORE_DRIFT_TOL`` of
an fsum of its log factors. A rank indexes the per-depth lists directly, and
pops emit plain ``TreeNode`` tuples; both keep the per-pop cost down to a few
interpreter steps.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .distributions import NODE_GUARD, MarginalBlock, Prefix, log_prefix_mass, require_count

# Rank tuples are 0-based per-depth probability ranks; (0, 2) means the most
# probable token at depth 1 followed by the third most probable at depth 2.
RankTuple = tuple[int, ...]

ROOT_PARENT = -1

# Incremental heap scores may drift from a direct log-mass recomputation by
# accumulated rounding only; anything larger is a bug.
SCORE_DRIFT_TOL = 1e-9


class TreeNode(NamedTuple):
    """One drafted token, a plain tuple so that each heap pop builds it cheaply."""

    token_id: int
    depth: int
    parent: int  # index into the node list; ROOT_PARENT for depth-1 nodes
    log_mass: float


@dataclass(frozen=True)
class DraftTree:
    """Prefix-closed candidate tree in pop order (nonincreasing log mass).

    ``nodes`` holds ``TreeNode`` tuples. A node's ``parent`` is the index of
    an earlier node in ``nodes``, or ROOT_PARENT at depth 1.

    ``heap_pops``/``heap_pushes`` count the best-first heap's operations
    (successor insertions only; the initial seed entry is not counted). Each
    pop places one node, so pops are the node count. A ``build_tree`` tree
    does at most B pops and 2B pushes; a ``chain_tree`` reports a pop per row
    and one push fewer, which nothing reads. Trees built any other way report
    zero pushes. ``surrogate_value`` is derived from the nodes on first read.
    """

    nodes: tuple[TreeNode, ...]
    heap_pushes: int = 0

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def heap_pops(self) -> int:
        return len(self.nodes)

    @cached_property
    def surrogate_value(self) -> float:
        """Expected acceptance under the factorized drafter: fsum of exp(log_mass)."""
        return math.fsum(math.exp(n.log_mass) for n in self.nodes)


class RankedDepths(NamedTuple):
    """Per-depth top-K tokens: ``token_ids[i, k]`` is the rank-k token (0-based)."""

    token_ids: np.ndarray  # (L, K) int64
    probs: np.ndarray  # (L, K) float64


def top_k_per_depth(block: MarginalBlock, budget: int) -> RankedDepths:
    """Rank each depth's tokens by descending probability, ties by token id.

    K = min(budget, vocab_size) is the ranking width: B for the tree (only the
    top B tokens per depth can appear in an optimal B-node tree), 1 for the
    chain, and |V| for the oracle's full ranking. Deeper ranks are dropped.
    """
    require_count("budget", budget, 1)
    k = min(budget, block.vocab_size)
    # A stable sort keeps equal probabilities in token-id order.
    token_ids = np.argsort(-block.probs, axis=1, kind="stable")[:, :k]
    probs = np.take_along_axis(block.probs, token_ids, axis=1)
    return RankedDepths(token_ids=token_ids, probs=probs)


def _best_first(chunks: Iterable[MarginalBlock], width: int, budget: int) -> DraftTree:
    """Pop rank tuples from a max-heap in nonincreasing score order.

    ``chunks`` are a block's rows in consecutive chunks of one vocabulary.
    Each is ranked by ``top_k_per_depth`` at ``width`` when a pop first needs
    a child at one of its depths, so a tree whose deepest node sits at depth D
    draws the chunks up to the one holding row D and no further.

    Stops when ``budget`` nodes are placed or the heap runs dry (possible only
    when the whole restricted prefix space is smaller than the budget). Heap
    keys break score ties deterministically: shallower depth first, then
    lexicographically smaller rank tuple. Sibling scores are updated by
    swapping the last rank's log factor; child scores append the next depth's
    best log factor. Every pop asserts that its incremental score matches an
    fsum of its log factors within ``SCORE_DRIFT_TOL``.
    """
    pending = iter(chunks)
    token_ids: list[list[int]] = []
    logq: list[list[float]] = []

    def rank_next_chunk() -> int:
        """Rank the next chunk's depths; return the ranked depth count, or 0 if none is left."""
        block = next(pending, None)
        if block is None:
            return 0
        ranked = top_k_per_depth(block, width)
        token_ids.extend(ranked.token_ids.tolist())
        logq.extend(np.log(ranked.probs).tolist())
        return len(logq)

    depth_cap = rank_next_chunk()  # depths ranked so far
    pull_at = depth_cap  # a pop at this depth ranks the next chunk; 0 once none is left
    k = len(token_ids[0])
    tol = SCORE_DRIFT_TOL
    fsum, factor = math.fsum, list.__getitem__
    heappop, heappush = heapq.heappop, heapq.heappush

    # Heap entries: (-score, depth, ranks, parent node index). The first three
    # fields form a total order, so the parent never gets compared.
    heap: list[tuple[float, int, RankTuple, int]] = [
        (-logq[0][0], 1, (0,), ROOT_PARENT)
    ]
    nodes: list[TreeNode] = []
    append = nodes.append
    for index in range(budget):
        if not heap:
            break
        neg_score, depth, ranks, parent = heappop(heap)
        score = -neg_score
        # map pairs each depth's logq row with that depth's rank.
        assert abs(score - fsum(map(factor, logq, ranks))) <= tol
        last = ranks[-1]
        logq_row = logq[depth - 1]
        append(TreeNode(token_ids[depth - 1][last], depth, parent, score))
        if last + 1 < k:
            sibling_score = score - logq_row[last] + logq_row[last + 1]
            heappush(heap, (-sibling_score, depth, ranks[:-1] + (last + 1,), parent))
        if depth == pull_at:
            pull_at = rank_next_chunk()
            depth_cap = len(logq)
        if depth < depth_cap:
            child_score = score + logq[depth][0]
            heappush(heap, (-child_score, depth + 1, ranks + (0,), index))
    # Every push is popped or still queued; the seed entry is not a push.
    pushes = len(nodes) + len(heap) - 1
    return DraftTree(nodes=tuple(nodes), heap_pushes=pushes)


def build_tree(block: MarginalBlock | Iterable[MarginalBlock], budget: int) -> DraftTree:
    """The optimal draft tree under ``budget`` nodes, built best-first.

    ``block`` is a whole block, or its rows as consecutive chunks (as
    ``models.drafter_chunks`` yields them), which are drawn only as deep as
    the tree grows. Either way the tree equals the one built from the whole
    block. A budget above ``NODE_GUARD`` raises ValueError before any chunk
    is drawn.
    """
    require_count("budget", budget, 1, NODE_GUARD)
    chunks = (block,) if isinstance(block, MarginalBlock) else block
    return _best_first(chunks, budget, budget)


def chain_tree(block: MarginalBlock) -> DraftTree:
    """Single-trajectory baseline: the per-depth argmax path, one node per row.

    This is what a verifier sees when the drafter's block is collapsed to one
    continuation instead of a tree. It is the best-first tree over each
    depth's top token, and the width-1 heap runs dry after the block's last
    row. The engine verifies a chain as its token path, not as this tree.
    """
    return _best_first((block,), 1, sys.maxsize)


def node_prefixes(tree: DraftTree) -> list[tuple[int, ...]]:
    """Token prefix represented by each node, in node order."""
    prefixes: list[tuple[int, ...]] = []
    for node in tree.nodes:
        if node.parent == ROOT_PARENT:
            prefixes.append((node.token_id,))
        else:
            prefixes.append(prefixes[node.parent] + (node.token_id,))
    return prefixes


def tree_from_prefixes(block: MarginalBlock, prefixes: Iterable[Prefix]) -> DraftTree:
    """Build a DraftTree from an explicit prefix set (must be prefix-closed).

    Nodes are ordered by descending log mass with ties broken by depth then
    tokens, so parents always precede children (ancestor masses strictly
    dominate). Intended for oracle output and hand-built test trees.
    """
    unique = sorted(
        {tuple(p) for p in prefixes},
        key=lambda u: (-log_prefix_mass(block, u), len(u), u),
    )
    index = {u: i for i, u in enumerate(unique)}
    nodes: list[TreeNode] = []
    for i, u in enumerate(unique):
        if not u:
            raise ValueError("prefixes must be nonempty")
        if len(u) == 1:
            parent = ROOT_PARENT
        else:
            parent = index.get(u[:-1], None)
            if parent is None:
                raise ValueError(f"prefix {u} is missing its parent; set is not prefix-closed")
            if parent >= i:
                raise ValueError(f"parent of {u} does not precede it")
        nodes.append(
            TreeNode(
                token_id=u[-1],
                depth=len(u),
                parent=parent,
                log_mass=log_prefix_mass(block, u),
            )
        )
    return DraftTree(nodes=tuple(nodes))


def check_prefix_closed(tree: DraftTree) -> bool:
    """True iff every non-depth-1 node has a parent one level up."""
    for node in tree.nodes:
        if node.depth == 1:
            if node.parent != ROOT_PARENT:
                return False
        else:
            if not 0 <= node.parent < len(tree.nodes):
                return False
            if tree.nodes[node.parent].depth != node.depth - 1:
                return False
    return True


def check_ancestor_dominance(tree: DraftTree) -> bool:
    """True iff every parent's log mass strictly exceeds its child's."""
    return all(
        tree.nodes[node.parent].log_mass > node.log_mass
        for node in tree.nodes
        if node.parent != ROOT_PARENT
    )
