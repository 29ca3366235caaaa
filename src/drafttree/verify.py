"""Verifier-side compilation and traversal of a draft tree.

The tree is flattened into a token sequence rooted at the bonus token,
annotated with depth position ids and an ancestor-only attention mask (each
entry may attend to the root, its ancestors, and itself). The verifier walk
then follows the target model's own decoding rule through the tree: a step is
accepted when the target's chosen token matches a child, and the first
unmatched target token becomes the next round's bonus; a tree with no nodes
verifies the bonus alone, as plain decoding does. Cache compaction is an index
plan here; the synthetic targets are stateless-exact so no tensors move.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .distributions import NODE_GUARD, require_count
from .treebuild import ROOT_PARENT, DraftTree

NO_CHILD = -1


class DuplicateChildToken(ValueError):
    """Two children of one node carry the same token id."""


@dataclass(frozen=True)
class FlattenedTree:
    """Verifier-ready layout: root (bonus token) at index 0, nodes after.

    ``child_table[i, t]`` is the index of entry i's child carrying token t, or
    ``NO_CHILD``; its columns run up to the largest child token id. It is
    read-only int16, which indexes every entry of a tree of at most
    ``NODE_GUARD`` nodes, so stored trees stay small. A ``prefix`` view shares
    its tree's table, so the table may have more rows than the view has
    entries, and ``child`` reads an index past the view's end as no child.
    ``mask`` is the ancestor-only attention mask, built on first read.
    """

    token_ids: tuple[int, ...]
    position_offsets: tuple[int, ...]  # depth of each entry; root is 0
    parent_of: tuple[int, ...]  # flattened parent index; -1 for the root slot
    child_table: np.ndarray  # (n, max child token id + 1) int16, read-only

    def __len__(self) -> int:
        return len(self.token_ids)

    def child(self, index: int, token: int) -> int | None:
        """Index of entry ``index``'s child carrying ``token``, or None."""
        if not 0 <= token < self.child_table.shape[1]:
            return None
        child = int(self.child_table[index, token])
        return None if child == NO_CHILD or child >= len(self) else child

    def prefix(self, size: int) -> FlattenedTree:
        """The first ``size`` entries, sharing this tree's child table.

        For a best-first tree this is the flattened tree of its first
        ``size - 1`` pops. Returns ``self`` when ``size`` covers every entry.
        """
        if size >= len(self):
            return self
        return FlattenedTree(
            token_ids=self.token_ids[:size],
            position_offsets=self.position_offsets[:size],
            parent_of=self.parent_of[:size],
            child_table=self.child_table,
        )

    @cached_property
    def mask(self) -> np.ndarray:
        """``mask[i, j]`` is True iff j == i or j is a strict ancestor of i.

        The root counts as an ancestor of every entry. Parents always precede
        children in the flattened order, so the mask is lower-triangular.
        """
        n = len(self)
        mask = np.zeros((n, n), dtype=bool)
        mask[0, 0] = True
        for i in range(1, n):
            mask[i] = mask[self.parent_of[i]]
            mask[i, i] = True
        mask.flags.writeable = False
        return mask


@dataclass(frozen=True)
class RoundOutcome:
    accepted_tokens: tuple[int, ...]
    next_bonus: int

    @property
    def acceptance_length(self) -> int:
        return len(self.accepted_tokens)


def duplicate_child_guard(tree: DraftTree) -> DraftTree:
    """Assert no node has two children with the same token id.

    Impossible for trees built from distinct prefixes; the guard turns a
    latent construction bug into a loud error before the walk would silently
    pick one child. It makes ``flatten``'s check and returns the tree.
    """
    flatten(tree, 0)
    return tree


def flatten(tree: DraftTree, bonus: int) -> FlattenedTree:
    """Compile a tree into verifier inputs, root-first.

    Node order is taken as-is (builder pop order already places every parent
    before its children; that is asserted, not re-sorted). Raises
    DuplicateChildToken when two children of one node carry the same token,
    and ValueError for a tree of more than ``NODE_GUARD`` nodes.
    """
    require_count("tree nodes", len(tree.nodes), None, NODE_GUARD)
    n = len(tree.nodes) + 1
    token_col = [node.token_id for node in tree.nodes]
    depth_col = [node.depth for node in tree.nodes]
    # Node i is entry i + 1, so its flat parent is its parent + 1; a depth-1
    # node's ROOT_PARENT (-1) becomes the root entry 0.
    parent_col = [node.parent + 1 for node in tree.nodes]
    parents = np.array(parent_col, dtype=np.intp)
    indices = np.arange(1, n)
    assert (parents < indices).all(), "parent must precede child in node order"

    # Fill every (parent, token) slot at once; a slot taken twice keeps only
    # one index, so the other child reads back someone else's.
    tokens = np.array(token_col, dtype=np.intp)
    child_table = np.full((n, int(tokens.max(initial=-1)) + 1), NO_CHILD, dtype=np.int16)
    child_table[parents, tokens] = indices
    clashes = np.flatnonzero(child_table[parents, tokens] != indices)
    if clashes.size:
        node = tree.nodes[int(clashes[0])]
        raise DuplicateChildToken(
            f"parent {node.parent} has duplicate child token {node.token_id}"
        )
    child_table.flags.writeable = False

    return FlattenedTree(
        token_ids=(bonus, *token_col),
        position_offsets=(0, *depth_col),
        parent_of=(ROOT_PARENT, *parent_col),
        child_table=child_table,
    )


def verifier_walk(
    flat: FlattenedTree, decode: Callable[[tuple[int, ...]], int]
) -> RoundOutcome:
    """Walk the tree under the target's decoding rule.

    ``decode(path)`` must return the target-chosen token after the context
    and ``path``, the drafted tokens accepted so far (``()`` at the root;
    ``len(path)`` is the depth decoded). The walk descends while the chosen
    token matches a child; the first unmatched token is the next bonus. With
    a greedy decode the walk is a pure function.
    """
    index = 0
    accepted: tuple[int, ...] = ()
    while True:
        chosen = decode(accepted)
        child = flat.child(index, chosen)
        if child is None:
            return RoundOutcome(accepted_tokens=accepted, next_bonus=chosen)
        accepted += (chosen,)
        index = child


def compaction_plan(outcome: RoundOutcome, flat: FlattenedTree) -> tuple[int, ...]:
    """Indices to retain in the cache: root plus the accepted path, in depth order.

    Derived from the accepted tokens by descending the child table. Raises
    ValueError for a token not in the tree.
    """
    keep = [0]
    index = 0
    for token in outcome.accepted_tokens:
        index = flat.child(index, token)
        if index is None:
            raise ValueError(f"accepted token {token} is not in the tree")
        keep.append(index)
    return tuple(keep)


def round_trace_record(
    round_index: int, budget: int, tree_size: int, flat: FlattenedTree, outcome: RoundOutcome
) -> dict:
    """One trace record of a round that verifies ``tree_size`` nodes and walked ``flat``.

    The kept indices are derived from ``flat``, which may be a prefix of the
    verified tree: a chain round can walk its first drafted rows only.
    """
    return {
        "round_index": round_index,
        "budget": budget,
        "tree_size": tree_size,
        "acceptance_length": outcome.acceptance_length,
        "next_bonus": outcome.next_bonus,
        "kept_indices": list(compaction_plan(outcome, flat)),
    }
