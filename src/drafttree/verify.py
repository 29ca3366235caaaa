"""Verifier-side compilation and traversal of a draft tree.

The tree is flattened into a child table rooted at the bonus token: each
(parent entry, token) cell holds its child's entry. The verifier inputs, the
token sequence with depth position ids and an ancestor-only attention mask
(each entry may attend to the root, its ancestors, and itself), are derived
from that table on read. The verifier walk reads only the table and the
target's rollout, its own tokens after the root: a step is accepted when the
target's token at that depth matches a child, and the first unmatched target
token becomes the next round's bonus. The walk returns the entries it kept,
the root-to-node path a cache would be compacted to; the synthetic targets
are stateless-exact so no tensors move.
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


@dataclass(frozen=True, eq=False)
class FlattenedTree:
    """Verifier-ready layout: root (bonus token) at index 0, nodes after.

    The tree is its child table: ``child_table[i, t]`` is the index of entry
    i's child carrying token t, or ``NO_CHILD``; its columns run up to the
    largest child token id. It is read-only int16, which indexes every entry
    of a tree of at most ``NODE_GUARD`` nodes, so stored trees stay small. A
    ``prefix`` view shares its tree's table and sets ``size``, so the table
    may have more rows than the view has entries, and ``child`` reads an
    index past the view's end as no child. ``token_ids``, ``position_offsets``
    (depths; the root is 0), ``parent_of`` (-1 for the root) and the
    ancestor-only attention ``mask`` are derived from the table on first read;
    the walk needs none of them. Equality is identity, so a flat is hashable.
    """

    bonus: int  # the root entry's token
    child_table: np.ndarray  # (rows, max child token id + 1) int16, read-only
    size: int  # entries in view

    def __len__(self) -> int:
        return self.size

    def child(self, index: int, token: int) -> int | None:
        """Index of entry ``index``'s child carrying ``token``, or None."""
        if not 0 <= token < self.child_table.shape[1]:
            return None
        child = int(self.child_table[index, token])
        return None if child == NO_CHILD or child >= self.size else child

    def prefix(self, size: int) -> FlattenedTree:
        """The first ``size`` (at least 1) entries, sharing this tree's child table.

        For a best-first tree this is the flattened tree of its first
        ``size - 1`` pops. Returns ``self`` when ``size`` covers every entry.
        """
        require_count("size", size, 1)
        if size >= self.size:
            return self
        return FlattenedTree(self.bonus, self.child_table, size)

    def _links(self) -> tuple[list[int], list[int]]:
        """(parent, token) of entries 1 .. size - 1 in entry order: the cells holding them."""
        table = self.child_table
        parents, tokens = np.nonzero((table > 0) & (table < self.size))
        order = np.argsort(table[parents, tokens])
        return parents[order].tolist(), tokens[order].tolist()

    @cached_property
    def token_ids(self) -> tuple[int, ...]:
        return (self.bonus, *self._links()[1])

    @cached_property
    def parent_of(self) -> tuple[int, ...]:
        return (ROOT_PARENT, *self._links()[0])

    @cached_property
    def position_offsets(self) -> tuple[int, ...]:
        depths = [0]
        for parent in self.parent_of[1:]:
            depths.append(depths[parent] + 1)
        return tuple(depths)

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
    kept_indices: tuple[int, ...]  # the root entry 0, then the accepted path in depth order
    next_bonus: int

    @property
    def acceptance_length(self) -> int:
        return len(self.kept_indices) - 1


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
    and ValueError for a bonus that is not a token id or a tree of more than
    ``NODE_GUARD`` nodes.
    """
    require_count("bonus", bonus, 0)
    require_count("tree nodes", len(tree), None, NODE_GUARD)
    n = len(tree) + 1
    # Node i is entry i + 1, so its flat parent is its parent + 1; a depth-1
    # node's ROOT_PARENT (-1) becomes the root entry 0.
    parents = tree.parents + 1
    indices = np.arange(1, n)
    assert (parents < indices).all(), "parent must precede child in node order"

    # Fill every (parent, token) slot at once; a slot taken twice keeps only
    # one index, so the other child reads back someone else's.
    tokens = tree.token_ids
    child_table = np.full((n, int(tokens.max(initial=-1)) + 1), NO_CHILD, dtype=np.int16)
    child_table[parents, tokens] = indices
    clashes = np.flatnonzero(child_table[parents, tokens] != indices)
    if clashes.size:
        node = int(clashes[0])
        raise DuplicateChildToken(
            f"parent {tree.parents[node]} has duplicate child token {tokens[node]}"
        )
    child_table.flags.writeable = False

    return FlattenedTree(bonus, child_table, n)


def verifier_walk(flat: FlattenedTree, rollout: Callable[[int], int]) -> RoundOutcome:
    """Walk the tree along the target's rollout.

    ``rollout(depth)`` must return the target's token at ``depth`` of its own
    continuation after the root (0 is the token that follows the bonus). A
    token is accepted only when it matches a child, so at depth d the accepted
    path is the rollout's first d tokens and the depth is all the target
    needs. The walk reads depths 0, 1, ... in order, once each, and stops at
    the first token with no matching child, which is the next bonus.
    """
    kept = (0,)
    while True:
        chosen = rollout(len(kept) - 1)
        child = flat.child(kept[-1], chosen)
        if child is None:
            return RoundOutcome(kept_indices=kept, next_bonus=chosen)
        kept += (child,)


def round_trace_record(
    round_index: int, budget: int, tree_size: int, outcome: RoundOutcome
) -> dict:
    """One trace record of a round that verifies ``tree_size`` nodes (a chain's L, drafted or not).

    The kept indices are the accepted path, root first: entries of the tree
    prefix a tree round walked, or a chain round's depths 0..a.
    """
    return {
        "round_index": round_index,
        "budget": budget,
        "tree_size": tree_size,
        "acceptance_length": outcome.acceptance_length,
        "next_bonus": outcome.next_bonus,
        "kept_indices": list(outcome.kept_indices),
    }
