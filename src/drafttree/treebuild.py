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

A heap entry is ``(-score, depth, code, last rank, parent, parent's path
sum)``. Its code is the rank tuple as one integer, the ranks written in base
k (the tokens ranked per depth): the next sibling is ``code + 1``, the first
child ``code * k``, and at equal depth codes order as the tuples do. A pop
reads the top and replaces it with the queued sibling in one sift, or pops
it when its depth's ranks are spent; the child's push is the only other
sift. Each pop asserts that its incremental score is within
``SCORE_DRIFT_TOL`` of its path sum, the parent's path sum plus the node's
own log factor: its log factors added root to node, never through the
sibling swaps whose drift the check exists to catch. A sibling's entry
copies its parent's sum, and a child's takes the popped node's.

A pop builds no node object: it appends its parent, depth, rank and negated
score to lists in pop order. After the last pop the parent, token and depth
lists become read-only numpy arrays in a few calls, and the tree keeps the
scores, from which ``log_masses`` is derived on first read (``flatten``
does not read it). ``DraftTree(nodes)`` fills the same fields from
``TreeNode`` rows for trees built by hand or by the oracle, and
``DraftTree.nodes`` reads any tree back as rows. A built tree also keeps
``row_argmax``, the rank-0 token of every row the build ranked: the argmax
path of the rows it drew, which a chain over the same rows would verify, at
the cost of a slice.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .distributions import NODE_GUARD, MarginalBlock, Prefix, log_prefix_mass, require_count

# Rank tuples are 0-based per-depth probability ranks; (0, 2) means the most
# probable token at depth 1 followed by the third most probable at depth 2.
# The heap carries one as its base-k code: (0, 2) is 0 * k + 2.
RankTuple = tuple[int, ...]

ROOT_PARENT = -1

# Incremental heap scores may drift from a direct log-mass recomputation by
# accumulated rounding only; anything larger is a bug.
SCORE_DRIFT_TOL = 1e-9


class TreeNode(NamedTuple):
    """One drafted token: a row of a ``DraftTree``'s columns, read through ``nodes``."""

    token_id: int
    depth: int
    parent: int  # index into the node list; ROOT_PARENT for depth-1 nodes
    log_mass: float


def _column(values: Iterable, dtype: type) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False, init=False)
class DraftTree:
    """Prefix-closed candidate tree in pop order (nonincreasing log mass).

    Every tree, however it is made, has one layout: three read-only intp
    columns, one row per node, ``parents`` (the index of an earlier node, or
    ROOT_PARENT at depth 1), ``token_ids`` and ``depths``; the push count;
    ``row_argmax``; and its scores, the log masses negated. ``log_masses``
    is derived from the scores on first read, and so are ``nodes``, the rows
    as ``TreeNode`` tuples, and ``surrogate_value``. A built node's log mass is
    the heap's incremental score, which its pop checked against the node's
    path sum of log factors within ``SCORE_DRIFT_TOL``.

    ``DraftTree(nodes, heap_pushes)`` makes a tree from ``TreeNode`` rows,
    as the oracle, ``tree_from_prefixes`` and hand-built trees do; the
    builder fills the same fields from its pops. Two trees are equal when
    their columns and push counts are.

    ``row_argmax`` is not a node column: it is the rank-0 token of each block
    row the builder ranked, in row order, so each row's argmax with ties to
    the lowest id (``top_k_per_depth`` sorts stably). A built tree's rows are
    those its build drew, which may run deeper than its deepest node; a
    tree made from nodes ranked none and holds an empty one. Equality does
    not read it.

    ``heap_pops``/``heap_pushes`` count the best-first heap's operations
    (successor insertions only, a sibling that replaces the popped top among
    them; the initial seed entry is not counted). Each pop places one node,
    so pops are the node count. A ``build_tree`` tree does at most B pops
    and 2B pushes; a ``chain_tree`` reports a pop per row and one push fewer,
    which nothing reads. Trees built any other way report zero pushes.
    """

    parents: np.ndarray  # (nodes,) intp
    token_ids: np.ndarray  # (nodes,) intp
    depths: np.ndarray  # (nodes,) intp
    heap_pushes: int
    row_argmax: np.ndarray  # (rows ranked,) intp
    _neg_scores: Sequence[float]  # (nodes,) the log masses negated

    def __init__(self, nodes: Iterable[TreeNode] = (), heap_pushes: int = 0) -> None:
        token_ids, depths, parents, log_masses = tuple(zip(*nodes)) or ((),) * 4
        self._fill(parents, token_ids, depths, -np.asarray(log_masses, dtype=np.float64),
                   heap_pushes, ())

    def _fill(self, parents, token_ids, depths, neg_scores, heap_pushes, row_argmax) -> DraftTree:
        """Set every field, the columns and ``row_argmax`` as read-only intp arrays; return self."""
        self.__dict__.update(
            parents=_column(parents, np.intp), token_ids=_column(token_ids, np.intp),
            depths=_column(depths, np.intp), heap_pushes=heap_pushes,
            row_argmax=_column(row_argmax, np.intp), _neg_scores=neg_scores,
        )
        return self

    @cached_property
    def log_masses(self) -> np.ndarray:  # (nodes,) float64
        return _column(np.negative(self._neg_scores), np.float64)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DraftTree):
            return NotImplemented
        return self.heap_pushes == other.heap_pushes and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("parents", "token_ids", "depths", "log_masses")
        )

    def __len__(self) -> int:
        return len(self.parents)

    @property
    def heap_pops(self) -> int:
        return len(self.parents)

    @cached_property
    def nodes(self) -> tuple[TreeNode, ...]:
        columns = (self.token_ids, self.depths, self.parents, self.log_masses)
        return tuple(map(TreeNode._make, zip(*(c.tolist() for c in columns))))

    @cached_property
    def surrogate_value(self) -> float:
        """Expected acceptance under the factorized drafter: fsum of exp(log_mass)."""
        return math.fsum(map(math.exp, self.log_masses.tolist()))


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
    probs = block.probs[np.arange(block.block_len)[:, None], token_ids]
    return RankedDepths(token_ids=token_ids, probs=probs)


def _best_first(chunks: Iterable[MarginalBlock], width: int, budget: int) -> DraftTree:
    """Pop rank codes from a max-heap in nonincreasing score order.

    ``chunks`` are a block's rows in consecutive ``MarginalBlock`` chunks of
    one vocabulary; no chunk, or a chunk of another type or vocabulary, raises
    ValueError. Each is ranked by ``top_k_per_depth`` at ``width`` when a pop
    first needs a child at one of its depths, so a tree whose deepest node
    sits at depth D draws the chunks up to the one holding row D and no further.

    Stops when ``budget`` nodes are placed or the heap runs dry (possible only
    when the whole restricted prefix space is smaller than the budget). Heap
    keys break score ties deterministically: shallower depth first, then
    smaller rank code, which at one depth is the lexicographically smaller
    rank tuple. Sibling scores are updated by swapping the last rank's log
    factor and child scores append the next depth's best log factor. A pop
    that queues a sibling does it with ``heapreplace``, one sift for both;
    keys are unique, so the pop order is that of a pop and a push. Every pop
    asserts that its incremental score is within ``SCORE_DRIFT_TOL`` of its
    path sum, its entry's parent sum plus its own log factor; a sibling
    carries its parent's sum and a child the popped node's. The tree's
    ``row_argmax`` is rank 0 of every chunk ranked, a slice of the ranking
    the tokens come from.
    """
    pending = iter(chunks)
    first = next(pending, None)
    if first is None:
        raise ValueError("block must hold at least one chunk of rows")
    ranked_ids: list[np.ndarray] = []
    logq: list[list[float]] = []

    def rank(block: MarginalBlock) -> int:
        """Rank a chunk's depths; return the ranked depth count."""
        if not isinstance(block, MarginalBlock):
            raise ValueError(f"block chunks must be MarginalBlocks, got {type(block).__name__}")
        if block.vocab_size != first.vocab_size:  # the base-k codes hold one k
            raise ValueError(
                f"block chunks must share one vocabulary: {block.vocab_size} tokens "
                f"after {first.vocab_size}"
            )
        ranked = top_k_per_depth(block, width)
        ranked_ids.append(ranked.token_ids)
        logq.extend(np.log(ranked.probs).tolist())
        return len(logq)

    depth_cap = rank(first)  # depths ranked so far
    pull_at = depth_cap  # a pop at this depth ranks the next chunk; 0 once none is left
    k = len(logq[0])
    tol = SCORE_DRIFT_TOL
    heappop, heappush, heapreplace = heapq.heappop, heapq.heappush, heapq.heapreplace

    # Heap entries: (-score, depth, code, last rank, parent node index, the
    # parent's path sum: its log factors summed root to parent in depth
    # order, 0.0 at the root). code is the rank tuple in base k, so at equal
    # depth codes order as the tuples do; the first three fields are unique
    # per node, so the rest never gets compared. Scores stay negated
    # throughout: negation is exact, so each is the negation of the score
    # the same additions would give unnegated.
    heap = [(-logq[0][0], 1, 0, 0, ROOT_PARENT, 0.0)]
    # The tree's columns in pop order; scores negated, tokens as depth ranks.
    neg_scores: list[float] = []
    depths: list[int] = []
    ranks: list[int] = []
    parents: list[int] = []
    append_score, append_depth = neg_scores.append, depths.append
    append_rank, append_parent = ranks.append, parents.append
    for index in range(budget):
        if not heap:
            break
        neg_score, depth, code, last, parent, parent_sum = heap[0]
        logq_row = logq[depth - 1]
        factor = logq_row[last]
        direct = parent_sum + factor
        assert -tol <= neg_score + direct <= tol
        append_score(neg_score)
        append_depth(depth)
        append_rank(last)
        append_parent(parent)
        sibling = last + 1
        if sibling < k:
            sibling_score = neg_score + factor - logq_row[sibling]
            heapreplace(heap, (sibling_score, depth, code + 1, sibling, parent, parent_sum))
        else:
            heappop(heap)
        if depth == pull_at:
            block = next(pending, None)
            pull_at = 0 if block is None else rank(block)
            depth_cap = len(logq)
        if depth < depth_cap:
            heappush(heap, (neg_score - logq[depth][0], depth + 1, code * k, 0, index, direct))
    # Every push is popped or still queued; the seed entry is not a push.
    pushes = len(parents) + len(heap) - 1
    depth_column = np.array(depths, dtype=np.intp)
    ranked = np.concatenate(ranked_ids)
    return DraftTree.__new__(DraftTree)._fill(
        parents, ranked[depth_column - 1, ranks], depth_column, neg_scores, pushes, ranked[:, 0]
    )


def build_tree(block: MarginalBlock | Iterable[MarginalBlock], budget: int) -> DraftTree:
    """The optimal draft tree under ``budget`` nodes, built best-first.

    ``block`` is a whole block, or its rows as consecutive chunks (as
    ``models.drafter_chunks`` yields them), which are drawn only as deep as
    the tree grows. Either way the tree equals the one built from the whole
    block. A budget above ``NODE_GUARD`` raises ValueError before any chunk
    is drawn; no chunk, or a chunk of another type or vocabulary than the
    first, raises ValueError naming ``block``.
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


def _tree_of_prefixes(ordered: Iterable[tuple[tuple[int, ...], float]]) -> DraftTree:
    """The tree of ``ordered``'s (prefix, log mass) pairs, one node each, in that order.

    An empty prefix, or one whose parent is not an earlier prefix, raises ValueError.
    """
    index: dict[tuple[int, ...], int] = {}
    nodes: list[TreeNode] = []
    for prefix, log_mass in ordered:
        if not prefix:
            raise ValueError("prefixes must be nonempty")
        parent = ROOT_PARENT if len(prefix) == 1 else index.get(prefix[:-1])
        if parent is None:
            raise ValueError(f"prefix {prefix} is missing its parent; set is not prefix-closed")
        index[prefix] = len(nodes)
        nodes.append(TreeNode(prefix[-1], len(prefix), parent, log_mass))
    return DraftTree(nodes)


def tree_from_prefixes(block: MarginalBlock, prefixes: Iterable[Prefix]) -> DraftTree:
    """Build a DraftTree from an explicit prefix set (must be prefix-closed).

    Nodes are ordered by descending log mass with ties broken by depth then
    tokens, so parents always precede children (ancestor masses never fall
    below their descendants'). Each distinct prefix's log mass is computed
    once. Intended for oracle output and hand-built test trees.
    """
    masses = [(u, log_prefix_mass(block, u)) for u in {tuple(p) for p in prefixes}]
    masses.sort(key=lambda pair: (-pair[1], len(pair[0]), pair[0]))
    return _tree_of_prefixes(masses)


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
