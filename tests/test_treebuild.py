import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drafttree import engine, models, treebuild
from drafttree.distributions import (
    MarginalBlock,
    log_prefix_mass,
    sample_continuations,
    validate_block,
)
from drafttree.models import (
    DrafterConfig,
    deterministic_model,
    drafter_chunks,
    drafter_marginals,
    random_model,
)
from drafttree.oracle import optimal_tree_exhaustive
from drafttree.treebuild import (
    ROOT_PARENT,
    DraftTree,
    TreeNode,
    build_tree,
    chain_tree,
    check_ancestor_dominance,
    check_prefix_closed,
    node_prefixes,
    top_k_per_depth,
    tree_from_prefixes,
)
from drafttree.verify import flatten

from blocks import EXAMPLE_ROWS, counting_dp_steps, random_block, random_model_or_reject


small_instances = st.tuples(
    st.integers(0, 2**32 - 1),  # seed
    st.integers(1, 4),  # block_len
    st.integers(2, 8),  # vocab
    st.integers(1, 20),  # budget
)


class TestTopKPerDepth:
    def test_sorted_by_descending_probability(self):
        ranked = top_k_per_depth(validate_block(EXAMPLE_ROWS), 2)
        assert ranked.token_ids[0].tolist() == [0, 1]
        assert ranked.probs[0] == pytest.approx([0.6, 0.3], rel=1e-12)

    def test_uniform_ties_break_by_ascending_token_id(self):
        block = validate_block([[0.25, 0.25, 0.25, 0.25]])
        ranked = top_k_per_depth(block, 4)
        assert ranked.token_ids[0].tolist() == [0, 1, 2, 3]

    def test_wide_tied_rows_rank_like_a_per_row_lexsort(self):
        # Rows wider than a small-sort cutoff, with many ties: every depth is
        # ranked by descending probability, then ascending token id.
        raw = np.random.default_rng(4).integers(1, 4, size=(5, 200))
        block = validate_block(raw)
        ranked = top_k_per_depth(block, 150)
        ids = np.arange(block.vocab_size)
        for i, row in enumerate(block.probs):
            order = np.lexsort((ids, -row))[:150]
            assert ranked.token_ids[i].tolist() == order.tolist()
            assert ranked.probs[i].tolist() == row[order].tolist()

    def test_budget_one_gives_argmax(self):
        ranked = top_k_per_depth(validate_block(EXAMPLE_ROWS), 1)
        assert ranked.token_ids[:, 0].tolist() == [0, 0]
        assert ranked.token_ids.shape == (2, 1)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_per_depth(validate_block(EXAMPLE_ROWS), 0)


class TestBuildTree:
    def test_worked_example_nodes_and_value(self):
        # Expected set and value 0.6 + 0.42 + 0.3 + 0.21 = 1.53, confirmed by
        # the exhaustive oracle.
        block = validate_block(EXAMPLE_ROWS)
        tree = build_tree(block, 4)
        assert set(node_prefixes(tree)) == {(0,), (0, 0), (1,), (1, 0)}
        assert tree.surrogate_value == pytest.approx(1.53, rel=1e-12)
        oracle_tree = optimal_tree_exhaustive(block, 4)
        assert set(node_prefixes(oracle_tree)) == set(node_prefixes(tree))
        assert oracle_tree.surrogate_value == pytest.approx(
            tree.surrogate_value, rel=1e-12
        )

    def test_depth_one_block_reduces_to_top_b_tokens(self):
        block = validate_block([[0.1, 0.4, 0.2, 0.3]])
        tree = build_tree(block, 3)
        assert set(node_prefixes(tree)) == {(1,), (3,), (2,)}

    def test_heap_exhausts_when_budget_exceeds_prefix_space(self):
        # |S_K| with K = min(B, V) = V = 2, L = 2 is 2 + 4 = 6.
        block = validate_block([[0.5, 0.5], [0.4, 0.6]])
        tree = build_tree(block, 50)
        assert len(tree) == 6
        assert tree.surrogate_value == pytest.approx(2.0, rel=1e-9)

    def test_pop_order_is_nonincreasing_mass(self):
        block = random_block(5, 4, 6)
        tree = build_tree(block, 18)
        masses = [n.log_mass for n in tree.nodes]
        assert all(a >= b for a, b in zip(masses, masses[1:]))

    @given(small_instances, st.sampled_from([1.0, "ties"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_exhaustive_optimum(self, instance, concentration):
        seed, block_len, vocab, budget = instance
        block = random_block(seed, block_len, vocab, concentration)
        tree = build_tree(block, budget)
        exhaustive = optimal_tree_exhaustive(block, budget)
        assert tree.surrogate_value == pytest.approx(
            exhaustive.surrogate_value, rel=1e-12
        )
        assert set(node_prefixes(tree)) == set(node_prefixes(exhaustive))
        # The oracle sorts with the heap's tie-break and scores with its
        # incremental arithmetic, so the pop order, parents and log masses
        # match node for node, ties included.
        assert tree.nodes == exhaustive.nodes

    @given(small_instances)
    @settings(max_examples=80, deadline=None)
    def test_structural_invariants(self, instance):
        seed, block_len, vocab, budget = instance
        tree = build_tree(random_block(seed, block_len, vocab), budget)
        assert check_prefix_closed(tree)
        assert check_ancestor_dominance(tree)
        assert len(tree) <= budget
        assert tree.heap_pops <= budget
        assert tree.heap_pushes <= 2 * budget

    @pytest.mark.skipif(sys.flags.optimize, reason="assertions are stripped")
    def test_drift_assert_runs_on_every_pop(self, monkeypatch):
        block = random_block(5, 4, 6)
        comparisons = []

        class CountingTol(float):
            # ``drift <= tol`` with a float subclass on the right calls its
            # reflected ``__ge__`` first.
            def __ge__(self, drift):
                comparisons.append(drift)
                return float(self) >= drift

        monkeypatch.setattr(treebuild, "SCORE_DRIFT_TOL", CountingTol(treebuild.SCORE_DRIFT_TOL))
        assert len(build_tree(block, 18)) == len(comparisons) == 18
        # No score is within a negative tolerance, so the first pop must fail.
        monkeypatch.setattr(treebuild, "SCORE_DRIFT_TOL", -1.0)
        with pytest.raises(AssertionError):
            build_tree(block, 18)

    def test_budget_nesting_with_equal_k(self):
        # K = min(B, V) is equal for both budgets, so the smaller tree's node
        # set nests inside the larger one under the deterministic tie-break.
        for seed in range(6):
            block = random_block(seed, 4, 4)
            small = set(node_prefixes(build_tree(block, 6)))
            large = set(node_prefixes(build_tree(block, 14)))
            assert small <= large

    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(1, 16),  # block_len
        st.integers(2, 40),  # vocab
        st.integers(1, 300),  # budget
        st.integers(0, 300),  # extra budget
        st.sampled_from([0.01, 0.3, 1.0, 3.0, "ties"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_smaller_budget_tree_is_a_prefix_of_the_larger(
        self, seed, block_len, vocab, budget, extra, concentration
    ):
        # The heap pops in one total order whatever the budget, even when the
        # larger budget ranks more tokens per depth: the budget-B tree is the
        # first B pops of any larger budget's, node for node.
        block = random_block(seed, block_len, vocab, concentration)
        small = build_tree(block, budget)
        large = build_tree(block, budget + extra)
        assert small.nodes == large.nodes[: len(small)]


def corpus_block(seed, block_len, vocab, kind):
    """``random_block``, or for ``kind="all ties"`` a block whose every row is uniform."""
    if kind == "all ties":
        return validate_block(np.ones((block_len, vocab)))
    return random_block(seed, block_len, vocab, kind)


# sha256 of the corpus below as built by the fsum-checked, rank-tuple heap
# this builder replaced. The oracle enumerates at most PREFIX_GUARD prefixes,
# so it cannot cross-check a B=1024 tree at |V|=16, L=16; this digest can.
IDENTITY_DIGEST = "e6d836519f04fb87dac55468ece2c7dda99098ccd8a40f56e453e4257838272b"


class TestBuilderIdentity:
    def test_a_fixed_corpus_builds_the_recorded_trees(self):
        digest = hashlib.sha256()
        shapes = itertools.product(
            (2, 5, 16, 64),  # vocab
            (1, 3, 16),  # block_len
            (0.01, 0.3, 1.0, "ties", "all ties"),
        )
        for seed, (vocab, block_len, kind) in enumerate(shapes):
            block = corpus_block(seed, block_len, vocab, kind)
            trees = [chain_tree(block)] + [build_tree(block, b) for b in (1, 7, 64, 1024)]
            for tree in trees:
                digest.update(repr((tree.nodes, tree.heap_pushes)).encode())
        assert digest.hexdigest() == IDENTITY_DIGEST

    @pytest.mark.parametrize("kind", [0.01, 0.1, 1.0, "ties"])
    def test_every_log_mass_is_within_1e_12_of_its_fsum(self, kind):
        # The heap's scores come from sibling swaps and child appends; the
        # exact reference is the fsum of the node's log factors.
        rng = np.random.default_rng(2026)
        worst = 0.0
        for _ in range(150):
            vocab, block_len = int(rng.integers(2, 65)), int(rng.integers(1, 17))
            budget = int(rng.choice([1, 7, 64, 1024]))
            block = random_block(int(rng.integers(2**32)), block_len, vocab, kind)
            tree = build_tree(block, budget)
            for node, prefix in zip(tree.nodes, node_prefixes(tree)):
                worst = max(worst, abs(node.log_mass - log_prefix_mass(block, prefix)))
        assert worst <= 1e-12


class TestSurrogateValue:
    def test_empty_tree_is_zero(self):
        empty = tree_from_prefixes(validate_block(EXAMPLE_ROWS), [])
        assert len(empty) == 0 and empty.surrogate_value == 0.0

    def test_single_node_equals_its_mass(self):
        block = validate_block(EXAMPLE_ROWS)
        tree = build_tree(block, 1)
        assert tree.surrogate_value == pytest.approx(0.6, rel=1e-12)

    def test_field_matches_recomputation(self):
        tree = build_tree(random_block(9, 3, 5), 12)
        masses = math.fsum(math.exp(n.log_mass) for n in tree.nodes)
        assert tree.surrogate_value == masses

    def test_every_constructor_derives_it_from_the_nodes(self):
        block = random_block(21, 3, 4)
        trees = [
            build_tree(block, 12),
            chain_tree(block),
            tree_from_prefixes(block, [(0,), (0, 1), (2,)]),
            optimal_tree_exhaustive(block, 12),
        ]
        for tree in trees:
            masses = math.fsum(math.exp(n.log_mass) for n in tree.nodes)
            assert len(tree) > 0 and tree.surrogate_value == masses
        assert DraftTree(nodes=()).surrogate_value == 0.0

    def test_monte_carlo_expected_acceptance(self):
        # E[alpha] over 1e5 sampled continuations within 3 sigma of the
        # additive value 1.53.
        block = validate_block(EXAMPLE_ROWS)
        tree = build_tree(block, 4)
        prefixes = set(node_prefixes(tree))
        n = 100_000
        samples = sample_continuations(block, n, np.random.default_rng(17))
        alphas = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        for depth in range(1, 3):
            in_tree = np.fromiter(
                (tuple(row[:depth]) in prefixes for row in samples),
                dtype=bool,
                count=n,
            )
            alive &= in_tree
            alphas += alive
        sigma = alphas.std() / math.sqrt(n)
        assert abs(alphas.mean() - 1.53) <= 3.0 * sigma


class TestChainTree:
    def test_near_deterministic_rows_take_the_unique_path(self):
        block = validate_block([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        chain = chain_tree(block)
        assert node_prefixes(chain) == [(1,), (1, 2)]

    def test_uniform_rows_take_token_zero(self):
        block = validate_block([[0.5, 0.5], [0.5, 0.5]])
        assert node_prefixes(chain_tree(block)) == [(0,), (0, 0)]

    def test_chain_is_a_single_path_of_full_length(self):
        block = random_block(2, 5, 4)
        chain = chain_tree(block)
        assert len(chain) == 5
        assert [n.depth for n in chain.nodes] == [1, 2, 3, 4, 5]
        assert check_prefix_closed(chain)
        assert check_ancestor_dominance(chain)

    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(1, 16),  # block_len
        st.integers(2, 32),  # vocab
        st.integers(1, 512),  # budget
        st.sampled_from([0.01, 0.3, 1.0, 3.0, "ties"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_tree_holds_the_chain_down_to_its_max_depth(
        self, seed, block_len, vocab, budget, concentration
    ):
        # The rank-1 path at each depth outscores, or ties and precedes, every
        # other node at that depth, so build_tree pops it first there. This is
        # what lets a tree accept at least min(chain acceptance, its max depth)
        # on any round (acceptance criterion 7).
        block = random_block(seed, block_len, vocab, concentration)
        prefixes = set(node_prefixes(build_tree(block, budget)))
        chain = tuple(n.token_id for n in chain_tree(block).nodes)
        max_depth = max(len(p) for p in prefixes)
        for depth in range(1, max_depth + 1):
            assert chain[:depth] in prefixes

    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(1, 16),  # block_len
        st.integers(2, 32),  # vocab
        st.sampled_from([0.01, 0.3, 1.0, 3.0, "ties"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_is_the_per_depth_argmax_path(self, seed, block_len, vocab, concentration):
        block = random_block(seed, block_len, vocab, concentration)
        chain = chain_tree(block)
        assert len(chain) == block_len
        assert (chain.heap_pops, chain.heap_pushes) == (block_len, block_len - 1)
        running = 0.0
        for d, (node, row) in enumerate(zip(chain.nodes, block.probs)):
            # np.argmax returns the first maximum: the lowest token id on ties.
            assert node.token_id == int(np.argmax(row))
            assert (node.depth, node.parent) == (d + 1, d - 1 if d else ROOT_PARENT)
            running += math.log(row[node.token_id])
            assert node.log_mass == pytest.approx(running, rel=0, abs=1e-12)

    @given(
        st.integers(0, 2**32 - 1),  # seed
        st.integers(2, 16),  # block_len
        st.integers(2, 32),  # vocab
        st.sampled_from([0.01, 0.3, 1.0, "ties"]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunks_give_the_whole_block_chain_and_a_first_chunk_its_prefix(
        self, seed, block_len, vocab, concentration, data
    ):
        # The engine verifies a chain as the argmax paths of the chunks it drew, joined.
        block = random_block(seed, block_len, vocab, concentration)
        cuts = sorted(data.draw(st.sets(st.integers(1, block_len - 1), min_size=1)))
        chunks = [MarginalBlock(rows) for rows in np.split(block.probs, cuts)]
        whole = tuple(node.token_id for node in chain_tree(block).nodes)
        assert sum(map(engine.argmax_path, chunks), ()) == engine.argmax_path(block) == whole
        assert engine.argmax_path(chunks[0]) == whole[:cuts[0]]


class TestTreeFromPrefixes:
    def test_rejects_non_closed_set(self):
        block = validate_block(EXAMPLE_ROWS)
        with pytest.raises(ValueError):
            tree_from_prefixes(block, [(0, 1)])

    def test_rejects_an_empty_prefix(self):
        block = validate_block(EXAMPLE_ROWS)
        with pytest.raises(ValueError, match="prefixes must be nonempty"):
            tree_from_prefixes(block, [(0,), ()])

    def test_roundtrips_node_set(self):
        block = random_block(4, 3, 4)
        built = build_tree(block, 10)
        rebuilt = tree_from_prefixes(block, node_prefixes(built))
        assert set(node_prefixes(rebuilt)) == set(node_prefixes(built))
        assert rebuilt.surrogate_value == pytest.approx(
            built.surrogate_value, rel=1e-9
        )


class TestCheckPrefixClosed:
    @pytest.mark.parametrize("nodes", [
        [(0, 1, ROOT_PARENT), (1, 1, 0)],  # a depth-1 node with a parent
        [(0, 1, ROOT_PARENT), (1, 2, 2)],  # a parent index out of range
        [(0, 1, ROOT_PARENT), (1, 2, 0), (2, 3, 0)],  # a parent two levels up
    ])
    def test_a_broken_parent_link_is_not_prefix_closed(self, nodes):
        tree = DraftTree(nodes=tuple(
            TreeNode(token_id=token, depth=depth, parent=parent, log_mass=-1.0 - i)
            for i, (token, depth, parent) in enumerate(nodes)
        ))
        assert not check_prefix_closed(tree)


def draft_window(kind, vocab, order, seed):
    """A model of ``kind`` (a concentration, or "one-hot") and a window over its tokens."""
    if kind == "one-hot":
        model = deterministic_model(seed, vocab, order)
    else:
        model = random_model_or_reject(seed, vocab, order, kind)
    window = np.random.default_rng(seed).integers(1, vocab, size=order)
    return model, tuple(int(t) for t in window[:-1]), int(window[-1])


def rows_drafted(block_len, depth):
    """Rows the chunked drafter computes for a tree whose deepest node is at ``depth``."""
    edge = models.FIRST_CHUNK_ROWS
    while edge < depth + 1:
        edge *= 2
    return min(block_len, edge)


class TestChunkedBuild:
    """A tree fed the drafter's row chunks equals the tree of the whole block."""

    @settings(max_examples=300, deadline=None)
    @example(0.008, 2, 1, 5377, 0.3, 16, 64)  # a table random_model refuses
    @given(
        st.sampled_from(["one-hot", 0.008, 0.1, 1.0]),  # target: depths 1..L all occur
        st.integers(2, 40),  # vocab
        st.integers(1, 3),  # order
        st.integers(0, 2**16),  # seed
        st.floats(0.0, 1.0),  # noise
        st.integers(1, 16),  # block_len
        st.integers(1, 1024),  # budget
    )
    def test_equals_the_whole_block_tree(self, kind, vocab, order, seed, noise, block_len, budget):
        vocab = min(vocab, {1: 40, 2: 40, 3: 20}[order])  # keeps the DP desk-sized
        model, context, bonus = draft_window(kind, vocab, order, seed)
        cfg = DrafterConfig(noise=noise, block_len=block_len)
        whole = build_tree(drafter_marginals(model, context, bonus, cfg), budget)
        chunked = build_tree(drafter_chunks(model, context, bonus, cfg), budget)
        assert chunked.nodes == whole.nodes
        assert chunked.heap_pushes == whole.heap_pushes
        a, b = flatten(chunked, bonus), flatten(whole, bonus)
        assert (a.token_ids, a.position_offsets, a.parent_of) == (
            b.token_ids, b.position_offsets, b.parent_of,
        )
        assert a.child_table.dtype == b.child_table.dtype
        assert a.child_table.tobytes() == b.child_table.tobytes()

    # One-hot rows put nearly all mass on one path, so a tree of B nodes is a
    # path of depth min(B, L): these budgets end on each side of the 4- and
    # 8-row chunk edges and at the block's end.
    @pytest.mark.parametrize("budget", [1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 40])
    @pytest.mark.parametrize("block_len", [3, 4, 8, 11, 16])
    def test_drafts_only_the_chunks_its_depth_reaches(self, monkeypatch, budget, block_len):
        steps = counting_dp_steps(monkeypatch)
        model, context, bonus = draft_window("one-hot", 6, 2, 3)
        cfg = DrafterConfig(noise=0.0, block_len=block_len)
        tree = build_tree(drafter_chunks(model, context, bonus, cfg), budget)
        depth = max(node.depth for node in tree.nodes)
        assert depth == min(budget, block_len)
        assert len(steps) == rows_drafted(block_len, depth)

    @pytest.mark.parametrize("kind", [0.008, 0.1, 1.0])
    def test_a_sweep_drafts_the_rows_each_tree_reaches(self, monkeypatch, kind):
        steps = counting_dp_steps(monkeypatch)
        model = random_model(7, vocab_size=12, order=2, concentration=kind)
        depths = []
        real_build = engine.build_tree

        def build(block, budget):
            tree = real_build(block, budget)
            depths.append(max(node.depth for node in tree.nodes))
            return tree

        monkeypatch.setattr(engine, "build_tree", build)
        cfg = engine.EpisodeConfig(seed=5, max_new_tokens=48, temperature=1.0)
        engine.budget_sweep(model, cfg, [4, 16, 64], episodes=3)
        assert depths
        assert len(steps) == sum(rows_drafted(cfg.block_len, d) for d in depths)
