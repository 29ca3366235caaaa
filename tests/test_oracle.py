import itertools
import math

import numpy as np
import pytest

from drafttree.distributions import prefix_mass, validate_block
from drafttree.oracle import (
    InstanceTooLarge,
    enumerate_prefixes,
    expected_acceptance_exact,
    optimal_tree_exhaustive,
    random_valid_tree,
)
from drafttree.treebuild import (
    DraftTree,
    build_tree,
    check_ancestor_dominance,
    check_prefix_closed,
    node_prefixes,
    tree_from_prefixes,
)

from blocks import EXAMPLE_ROWS, random_block


class TestEnumeratePrefixes:
    def test_counts(self):
        assert len(enumerate_prefixes(random_block(0, 2, 2))) == 6
        assert len(enumerate_prefixes(random_block(0, 2, 3))) == 12

    def test_top_entry_of_worked_example(self):
        table = enumerate_prefixes(validate_block(EXAMPLE_ROWS))
        assert table[0].tokens == (0,)
        assert table[0].mass == pytest.approx(0.6, rel=1e-12)

    def test_masses_match_prefix_mass(self):
        block = random_block(3, 3, 3)
        table = enumerate_prefixes(block)
        for entry in table:
            assert entry.mass == pytest.approx(
                prefix_mass(block, entry.tokens), rel=1e-12
            )
            assert math.exp(entry.log_score) == pytest.approx(entry.mass, rel=1e-9)

    def test_sorted_nonincreasing(self):
        table = enumerate_prefixes(random_block(8, 3, 4))
        scores = [e.log_score for e in table]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_guard(self):
        with pytest.raises(InstanceTooLarge):
            enumerate_prefixes(random_block(0, 10, 8))


class TestOptimalTreeExhaustive:
    def test_full_budget_value_is_block_len(self):
        # Depth-d masses sum to 1 per depth, so the everything-tree's value
        # is exactly L.
        block = random_block(1, 2, 3)
        tree = optimal_tree_exhaustive(block, 1000)
        assert len(tree) == 12
        assert tree.surrogate_value == pytest.approx(2.0, rel=1e-9)

    def test_budget_one_takes_best_first_token(self):
        tree = optimal_tree_exhaustive(validate_block(EXAMPLE_ROWS), 1)
        assert node_prefixes(tree) == [(0,)]
        assert tree.surrogate_value == pytest.approx(0.6, rel=1e-12)

    def test_always_valid(self):
        for seed in range(8):
            tree = optimal_tree_exhaustive(random_block(seed, 3, 4), 9)
            assert check_prefix_closed(tree)
            assert check_ancestor_dominance(tree)

    def test_all_subsets_optimum_on_tiny_instances(self):
        # Independent verification that top-B selection really is optimal:
        # enumerate every prefix-closed subset of size <= B and maximize the
        # sum of exact masses directly. Capped at 12 prefixes (4096 subsets).
        for seed, block_len, vocab, budget in [
            (0, 2, 2, 3),
            (1, 2, 2, 5),
            (2, 1, 3, 2),
            (3, 2, 3, 4),
            (4, 2, 3, 5),
        ]:
            block = random_block(seed, block_len, vocab)
            table = enumerate_prefixes(block)
            prefixes = [e.tokens for e in table]
            masses = {e.tokens: e.mass for e in table}
            assert len(prefixes) <= 12
            best = 0.0
            for r in range(1, budget + 1):
                for subset in itertools.combinations(prefixes, r):
                    chosen = set(subset)
                    if all(len(u) == 1 or u[:-1] in chosen for u in chosen):
                        best = max(best, math.fsum(masses[u] for u in chosen))
            tree = optimal_tree_exhaustive(block, budget)
            assert tree.surrogate_value == pytest.approx(best, rel=1e-12)

    def test_top_k_restriction_loses_nothing(self):
        # The optimum over prefixes using only the top-K tokens per depth
        # (K = min(B, V)) equals the unrestricted optimum in value.
        for seed in range(10):
            rng = np.random.default_rng(seed + 100)
            vocab = int(rng.integers(3, 8))
            block_len = int(rng.integers(1, 4))
            budget = int(rng.integers(1, vocab))  # forces K = budget < V
            block = random_block(seed, block_len, vocab)
            k = min(budget, vocab)
            table = enumerate_prefixes(block)
            unrestricted = math.fsum(e.mass for e in table[:budget])
            restricted_entries = [
                e for e in table if all(r < k for r in e.ranks)
            ][:budget]
            restricted = math.fsum(e.mass for e in restricted_entries)
            assert restricted == pytest.approx(unrestricted, rel=1e-12)


class TestExpectedAcceptanceExact:
    def test_empty_tree(self):
        block = random_block(0, 2, 3)
        empty = DraftTree(nodes=())
        assert expected_acceptance_exact(block, empty) == 0.0

    def test_full_tree_accepts_to_depth_l(self):
        block = random_block(2, 2, 3)
        full = optimal_tree_exhaustive(block, 1000)
        assert expected_acceptance_exact(block, full) == pytest.approx(2.0, rel=1e-9)

    def test_worked_example(self):
        block = validate_block(EXAMPLE_ROWS)
        tree = build_tree(block, 4)
        assert expected_acceptance_exact(block, tree) == pytest.approx(1.53, rel=1e-9)

    def test_additive_identity_on_random_trees(self):
        # Enumerated expectation equals the sum of node masses for arbitrary
        # valid trees, not only optimal ones.
        rng = np.random.default_rng(50)
        for _ in range(30):
            vocab = int(rng.integers(2, 6))
            block_len = int(rng.integers(1, 5))
            block = random_block(int(rng.integers(2**32)), block_len, vocab)
            tree = random_valid_tree(block, int(rng.integers(1, 15)), rng)
            exact = expected_acceptance_exact(block, tree)
            assert exact == pytest.approx(tree.surrogate_value, rel=1e-9)

    def test_guard(self):
        block = random_block(0, 8, 8)
        with pytest.raises(InstanceTooLarge):
            expected_acceptance_exact(block, DraftTree(nodes=()))


class TestRandomValidTree:
    def test_produces_valid_trees_of_requested_size(self):
        rng = np.random.default_rng(9)
        block = random_block(9, 3, 4)
        for budget in (1, 5, 20):
            tree = random_valid_tree(block, budget, rng)
            assert check_prefix_closed(tree)
            assert check_ancestor_dominance(tree)
            assert len(tree) == min(budget, 84)

    def test_exhausts_small_spaces(self):
        block = random_block(1, 1, 3)
        tree = random_valid_tree(block, 50, np.random.default_rng(0))
        assert len(tree) == 3

    def test_varies_with_rng(self):
        block = random_block(4, 3, 4)
        a = random_valid_tree(block, 8, np.random.default_rng(1))
        b = random_valid_tree(block, 8, np.random.default_rng(2))
        assert set(node_prefixes(a)) != set(node_prefixes(b))


def test_tree_from_prefixes_consistency_with_oracle_order():
    block = validate_block(EXAMPLE_ROWS)
    table = enumerate_prefixes(block)
    rebuilt = tree_from_prefixes(block, [e.tokens for e in table[:5]])
    assert check_prefix_closed(rebuilt)
    assert len(rebuilt) == 5
