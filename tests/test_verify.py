import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drafttree.distributions import NODE_GUARD, validate_block
from drafttree.models import random_model, target_next
from drafttree.oracle import random_valid_tree
from drafttree.treebuild import (
    ROOT_PARENT,
    DraftTree,
    TreeNode,
    build_tree,
    chain_tree,
    node_prefixes,
)
from drafttree.verify import (
    DuplicateChildToken,
    duplicate_child_guard,
    flatten,
    round_trace_record,
    verifier_walk,
)

from blocks import random_block


def empty_tree():
    return DraftTree(nodes=())


def hand_tree(specs):
    """Build a DraftTree from (token, depth, parent, log_mass) tuples."""
    return DraftTree(nodes=tuple(TreeNode(*s) for s in specs))


# Two depth-1 branches; one branch carries two depth-2 children, the other
# one; two depth-3 leaves under the first depth-2 node and one under the
# second. Tokens are the node ids 1..8.
BRANCHY = hand_tree(
    [
        (1, 1, ROOT_PARENT, -0.1),  # b
        (2, 1, ROOT_PARENT, -0.2),  # c
        (3, 2, 0, -0.3),  # d under b
        (4, 2, 0, -0.4),  # e under b
        (5, 2, 1, -0.5),  # f under c
        (6, 3, 2, -0.6),  # g under d
        (7, 3, 2, -0.7),  # h under d
        (8, 3, 3, -0.8),  # i under e
    ]
)


class TestFlatten:
    def test_empty_tree(self):
        flat = flatten(empty_tree(), bonus=9)
        assert flat.token_ids == (9,)
        assert flat.position_offsets == (0,)
        assert flat.mask.tolist() == [[True]]
        assert all(flat.child(0, token) is None for token in range(16))

    def test_a_flat_equals_only_itself_and_is_hashable(self):
        # Compared field by field, two flats of one tree raised on the child
        # table's ambiguous truth value, and a flat could not be a dict key.
        first, second = flatten(BRANCHY, bonus=0), flatten(BRANCHY, bonus=0)
        assert first == first and first != second
        assert first.prefix(3) != first
        assert {first: 1, second: 2}[first] == 1

    def test_sibling_isolation(self):
        tree = hand_tree([(5, 1, ROOT_PARENT, -0.1), (6, 1, ROOT_PARENT, -0.2)])
        flat = flatten(tree, bonus=3)
        assert flat.token_ids == (3, 5, 6)
        x, y = 1, 2
        assert set(np.flatnonzero(flat.mask[x])) == {0, x}
        assert set(np.flatnonzero(flat.mask[y])) == {0, y}
        assert not flat.mask[x, y] and not flat.mask[y, x]

    def test_branchy_topology_ancestor_rows(self):
        # The first depth-3 leaf sits under the first depth-1 branch and its
        # first child: it attends exactly the root, those two, and itself.
        flat = flatten(BRANCHY, bonus=0)
        g = 1 + 5  # node index 5 in pop order, shifted by the root slot
        assert flat.token_ids[g] == 6
        assert set(np.flatnonzero(flat.mask[g])) == {0, 1, 3, g}

    def test_depth_position_offsets(self):
        flat = flatten(BRANCHY, bonus=0)
        assert flat.position_offsets == (0, 1, 1, 2, 2, 2, 3, 3, 3)

    def test_mask_is_lower_triangular(self):
        tree = build_tree(random_block(3, 4, 5), 20)
        flat = flatten(tree, bonus=1)
        assert not np.any(np.triu(flat.mask, k=1))

    def test_mask_rows_match_independent_ancestor_recomputation(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            block = random_block(seed, 4, 5)
            tree = (
                build_tree(block, int(rng.integers(1, 40)))
                if seed % 2
                else random_valid_tree(block, int(rng.integers(1, 40)), rng)
            )
            flat = flatten(tree, bonus=2)
            for i in range(len(flat.token_ids)):
                expected = {i}
                j = i
                while flat.parent_of[j] != ROOT_PARENT:
                    j = flat.parent_of[j]
                    expected.add(j)
                expected.add(0)
                assert set(np.flatnonzero(flat.mask[i])) == expected

    def test_child_lookup_matches_parents(self):
        flat = flatten(BRANCHY, bonus=0)
        for i in range(1, len(flat)):
            assert flat.child(flat.parent_of[i], flat.token_ids[i]) == i
        assert flat.child(0, 3) is None  # a token present only deeper down
        assert flat.child(0, 99) is None  # beyond every child token
        assert flat.child(8, 1) is None  # a leaf
        assert flat.child_table.dtype == np.int16
        assert not flat.child_table.flags.writeable

    @staticmethod
    def chain_of(nodes):
        """A hand-built chain of ``nodes`` token-1 nodes, each the child of the last."""
        return DraftTree(nodes=tuple(
            TreeNode(token_id=1, depth=i + 1, parent=i - 1 if i else ROOT_PARENT, log_mass=-i - 1.0)
            for i in range(nodes)
        ))

    def test_a_tree_at_the_guard_fits_an_int16_table(self):
        flat = flatten(self.chain_of(NODE_GUARD), bonus=0)
        assert flat.child_table.dtype == np.int16
        assert flat.child(NODE_GUARD - 1, 1) == NODE_GUARD
        assert flat.child(NODE_GUARD, 1) is None

    def test_a_tree_past_the_guard_raises(self):
        with pytest.raises(ValueError, match=f"tree nodes must be <= {NODE_GUARD}, got 32767"):
            flatten(self.chain_of(NODE_GUARD + 1), bonus=0)

    def test_accepts_pop_orders_that_interleave_depths(self):
        # Builder node order is nonincreasing mass, not depth-sorted: here
        # (0,0) outweighs (1) and pops before it. Flattening must only rely
        # on parents preceding children.
        block = validate_block([[0.9, 0.1], [0.99, 0.01]])
        tree = build_tree(block, 3)
        assert [n.depth for n in tree.nodes] == [1, 2, 1]
        flat = flatten(tree, bonus=1)
        assert flat.position_offsets == (0, 1, 2, 1)
        assert set(np.flatnonzero(flat.mask[2])) == {0, 1, 2}
        assert set(np.flatnonzero(flat.mask[3])) == {0, 3}

    @pytest.mark.skipif(sys.flags.optimize, reason="assertions are stripped")
    def test_parent_after_child_raises(self):
        # Node 0 names node 1, which comes after it, as its parent.
        tree = hand_tree([(2, 2, 1, -1.2), (1, 1, ROOT_PARENT, -0.5)])
        with pytest.raises(AssertionError, match="parent must precede child"):
            flatten(tree, 0)


class TestPrefixView:
    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(1, 16),  # block_len
        st.integers(2, 24),  # vocab
        st.integers(1, 200),  # budget B
        st.integers(0, 200),  # Bmax - B
        st.integers(0, 23),  # bonus
        st.sampled_from([0.01, 0.3, 1.0, 3.0, "ties"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_budget_prefix_of_the_stored_tree_equals_a_direct_build(
        self, seed, block_len, vocab, budget, extra, bonus, concentration
    ):
        # A sweep stores one tree per window, built at the largest budget of
        # the rows that meet it, and walks the first B + 1 entries for budget
        # B over the shared child table.
        block = random_block(seed, block_len, vocab, concentration)
        stored = flatten(build_tree(block, budget + extra), bonus)
        view = stored.prefix(budget + 1)
        direct = flatten(build_tree(block, budget), bonus)
        assert view.child_table is stored.child_table
        assert len(view) == len(direct)
        assert view.token_ids == direct.token_ids
        assert view.position_offsets == direct.position_offsets
        assert view.parent_of == direct.parent_of
        assert np.array_equal(view.mask, direct.mask)
        for i in range(len(view)):
            for token in range(-1, vocab + 1):
                assert view.child(i, token) == direct.child(i, token)

    def test_whole_prefix_is_the_tree_itself(self):
        flat = flatten(BRANCHY, bonus=0)
        assert flat.prefix(len(flat)) is flat
        assert flat.prefix(len(flat) + 5) is flat

    def test_children_past_the_view_read_as_absent(self):
        flat = flatten(BRANCHY, bonus=0)
        view = flat.prefix(3)  # root, b and c
        assert flat.child(1, 3) == 3
        assert view.child(1, 3) is None
        assert view.child(0, 2) == 2


class TestDerivedLayout:
    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(1, 8),  # block_len
        st.integers(2, 12),  # vocab
        st.integers(1, 120),  # budget
        st.integers(0, 23),  # bonus
        st.booleans(),  # a random valid tree instead of a best-first build
    )
    @settings(max_examples=100, deadline=None)
    def test_every_prefix_reads_back_the_tree_nodes(
        self, seed, block_len, vocab, budget, bonus, random_tree
    ):
        # The expected layout comes from the DraftTree nodes, not from another
        # flat, which would share the derivation from the child table.
        block = random_block(seed, block_len, vocab)
        if random_tree:
            tree = random_valid_tree(block, budget, np.random.default_rng(seed))
        else:
            tree = build_tree(block, budget)
        flat = flatten(tree, bonus)
        for size in range(1, len(tree.nodes) + 2):
            view = flat.prefix(size)
            nodes = tree.nodes[: size - 1]
            assert len(view) == size
            assert view.token_ids == (bonus, *(node.token_id for node in nodes))
            assert view.parent_of == (ROOT_PARENT, *(node.parent + 1 for node in nodes))
            assert view.position_offsets == (0, *(node.depth for node in nodes))


class TestDuplicateChildGuard:
    def test_built_trees_pass(self):
        block = random_block(1, 3, 4)
        assert duplicate_child_guard(build_tree(block, 10)) is not None
        assert duplicate_child_guard(chain_tree(block)) is not None

    def test_duplicate_child_raises(self):
        bad = hand_tree([(5, 1, ROOT_PARENT, -0.1), (5, 1, ROOT_PARENT, -0.2)])
        with pytest.raises(DuplicateChildToken):
            duplicate_child_guard(bad)
        with pytest.raises(DuplicateChildToken):
            flatten(bad, bonus=0)

    def test_flatten_rejects_duplicate_below_the_root(self):
        bad = hand_tree(
            [(1, 1, ROOT_PARENT, -0.1), (4, 2, 0, -0.2), (2, 1, ROOT_PARENT, -0.3),
             (4, 2, 0, -0.4)]
        )
        with pytest.raises(DuplicateChildToken, match="parent 0 .* token 4"):
            flatten(bad, bonus=0)


def kept_tokens(flat, outcome):
    """The drafted tokens the walk accepted: those of its kept entries after the root."""
    return tuple(flat.token_ids[i] for i in outcome.kept_indices[1:])


class TestVerifierWalk:
    def test_immediate_mismatch(self):
        flat = flatten(BRANCHY, bonus=0)
        outcome = verifier_walk(flat, lambda depth: 99)
        assert outcome.acceptance_length == 0
        assert kept_tokens(flat, outcome) == ()
        assert outcome.next_bonus == 99
        assert outcome.kept_indices == (0,)

    def test_full_chain_acceptance(self):
        block = validate_block([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        chain = chain_tree(block)
        flat = flatten(chain, bonus=0)
        path = node_prefixes(chain)[-1]

        def rollout(depth):
            return path[depth] if depth < len(path) else 7

        outcome = verifier_walk(flat, rollout)
        assert outcome.acceptance_length == 3
        assert list(kept_tokens(flat, outcome)) == list(path)
        assert outcome.next_bonus == 7

    def test_partial_walk_two_matches(self):
        # Target picks the first branch, then its second child, then a token
        # absent from the tree: two accepted nodes and a fresh bonus.
        flat = flatten(BRANCHY, bonus=0)
        outcome = verifier_walk(flat, [1, 4, 55].__getitem__)
        assert kept_tokens(flat, outcome) == (1, 4)
        assert outcome.acceptance_length == 2
        assert outcome.next_bonus == 55
        assert outcome.kept_indices == (0, 1, 4)

    def test_walk_is_pure_under_greedy_decode(self):
        flat = flatten(BRANCHY, bonus=0)
        rollout = [2, 5, 42].__getitem__
        first = verifier_walk(flat, rollout)
        second = verifier_walk(flat, rollout)
        assert first == second

    def test_the_rollout_is_read_at_each_depth_once_in_order(self):
        # Each call gets the depth decoded: 0, 1, ..., a, where a is the
        # acceptance length. A tree with no nodes reads depth 0 alone.
        choices = [1, 3, 7, 0]
        for tree, expected in (
            (BRANCHY, [0, 1, 2, 3]),
            (empty_tree(), [0]),
        ):
            calls = []

            def rollout(depth):
                calls.append(depth)
                return choices[depth]

            flat = flatten(tree, bonus=0)
            outcome = verifier_walk(flat, rollout)
            assert calls == expected
            assert kept_tokens(flat, outcome) == tuple(choices[: len(expected) - 1])
            assert outcome.acceptance_length == len(expected) - 1

    def test_acceptance_matches_tree_membership(self):
        # alpha recomputed from the node-prefix set equals the walk's result.
        rng = np.random.default_rng(12)
        block = random_block(12, 4, 4)
        tree = build_tree(block, 15)
        prefixes = set(node_prefixes(tree))
        flat = flatten(tree, bonus=0)
        continuation = [int(t) for t in rng.integers(0, 4, size=4)]

        def rollout(depth):
            return continuation[depth] if depth < 4 else 99

        outcome = verifier_walk(flat, rollout)
        alpha = max(
            (d for d in range(1, 5) if tuple(continuation[:d]) in prefixes),
            default=0,
        )
        assert outcome.acceptance_length == alpha

    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(1, 8),  # block_len
        st.integers(2, 12),  # vocab
        st.integers(1, 120),  # budget
        st.booleans(),  # a random valid tree instead of a best-first build
        st.integers(0, 120),  # the node whose path the rollout starts along
    )
    @settings(max_examples=150, deadline=None)
    def test_kept_path_is_the_longest_rollout_prefix_in_the_tree(
        self, seed, block_len, vocab, budget, random_tree, start
    ):
        # The expected path comes from the DraftTree's node prefixes (node i
        # is entry i + 1), not from another descent of the child table.
        block = random_block(seed, block_len, vocab)
        rng = np.random.default_rng(seed)
        tree = random_valid_tree(block, budget, rng) if random_tree else build_tree(block, budget)
        prefixes = node_prefixes(tree)
        # Along one node's path, then random tokens (``vocab`` is in no tree).
        path = prefixes[start % len(prefixes)]
        tail = rng.integers(0, vocab + 1, size=block_len + 1 - len(path))
        rollout = [*path, *(int(t) for t in tail)]
        entry = {prefix: i + 1 for i, prefix in enumerate(prefixes)}
        depth = max(d for d in range(len(rollout)) if d == 0 or tuple(rollout[:d]) in entry)

        outcome = verifier_walk(flatten(tree, bonus=0), rollout.__getitem__)
        kept = (0, *(entry[tuple(rollout[:d])] for d in range(1, depth + 1)))
        assert outcome.kept_indices == kept
        assert outcome.acceptance_length == depth >= len(path)
        assert outcome.next_bonus == rollout[depth]


class TestCompactionPlan:
    def test_keep_only_root_on_no_acceptance(self):
        flat = flatten(BRANCHY, bonus=0)
        outcome = verifier_walk(flat, lambda depth: 99)
        assert outcome.kept_indices == (0,)

    def test_partial_acceptance_keeps_path_in_depth_order(self):
        flat = flatten(BRANCHY, bonus=0)
        outcome = verifier_walk(flat, [1, 4, 55].__getitem__)
        plan = outcome.kept_indices
        assert plan == (0, 1, 4)
        assert [flat.position_offsets[i] for i in plan] == [0, 1, 2]

    def test_full_chain_keeps_everything(self):
        block = validate_block([[0.0, 1.0], [1.0, 0.0]])
        chain = chain_tree(block)
        flat = flatten(chain, bonus=0)
        path = node_prefixes(chain)[-1]
        outcome = verifier_walk(flat, lambda depth: path[depth] if depth < len(path) else 9)
        assert outcome.kept_indices == tuple(range(len(flat.token_ids)))

    def test_replaying_kept_path_reproduces_target_rows(self):
        # The kept indices reconstruct exactly the accepted context, so a
        # fresh replay of those tokens hits identical model rows bit for bit.
        model = random_model(5, vocab_size=6, order=2)
        block = random_block(6, 3, 6)
        tree = build_tree(block, 12)
        flat = flatten(tree, bonus=2)
        context = (1, 4, 2)
        rollout = []  # the greedy target's tokens after the bonus, deep enough for any walk
        while len(rollout) <= block.block_len:
            rollout.append(int(np.argmax(target_next(model, context + tuple(rollout)))))

        outcome = verifier_walk(flat, rollout.__getitem__)
        kept = [flat.token_ids[i] for i in outcome.kept_indices]
        accepted = tuple(rollout[: outcome.acceptance_length])
        assert kept[0] == 2 and tuple(kept[1:]) == accepted
        replayed = context + tuple(kept[1:])
        original = context + accepted
        assert np.array_equal(target_next(model, replayed), target_next(model, original))


def test_round_trace_record_fields():
    flat = flatten(BRANCHY, bonus=0)
    outcome = verifier_walk(flat, lambda depth: 99)
    record = round_trace_record(3, 64, 8, outcome)
    assert record == {
        "round_index": 3,
        "budget": 64,
        "tree_size": 8,
        "acceptance_length": 0,
        "next_bonus": 99,
        "kept_indices": [0],
    }


def test_round_trace_record_copies_the_kept_path():
    flat = flatten(BRANCHY, bonus=0)
    outcome = verifier_walk(flat, [1, 4, 55].__getitem__)
    record = round_trace_record(0, 64, 8, outcome)
    assert record["tree_size"] == 8
    assert record["acceptance_length"] == 2 and record["next_bonus"] == 55
    assert record["kept_indices"] == [0, 1, 4]
