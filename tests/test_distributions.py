import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drafttree.distributions import (
    EPS_Q,
    NODE_GUARD,
    ROW_SUM_ATOL,
    NegativeEntry,
    NonFiniteEntry,
    NonRectangular,
    PrefixTooLong,
    RowSumZero,
    log_prefix_mass,
    prefix_mass,
    require_count,
    require_real,
    sample_continuations,
    validate_block,
)
from drafttree.treebuild import build_tree

from blocks import EXAMPLE_ROWS, random_block


class TestValidateBlock:
    def test_valid_simplex_unchanged(self):
        block = validate_block([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(block.probs, 0.5, rtol=0, atol=1e-15)
        assert block.block_len == 2 and block.vocab_size == 2

    def test_boundary_entries_clamped_inside_unit_interval(self):
        block = validate_block([[1.0, 0.0]])
        assert np.all(block.probs > 0.0) and np.all(block.probs < 1.0)
        assert block.probs[0, 0] == pytest.approx(1.0, abs=1e-11)

    def test_unnormalized_row_renormalized(self):
        block = validate_block([[0.3, 0.3]])
        assert np.allclose(block.probs, [[0.5, 0.5]], rtol=1e-12)

    def test_ragged_table_rejected(self):
        with pytest.raises(NonRectangular):
            validate_block([[0.5, 0.5], [1.0]])

    @pytest.mark.parametrize("table", [[0.5, 0.5], [[[0.5, 0.5]], [[0.5, 0.5]]]])
    def test_a_table_that_is_not_2d_rejected(self, table):
        with pytest.raises(NonRectangular, match="expected a 2-d table, got ndim="):
            validate_block(table)

    def test_single_column_rejected(self):
        with pytest.raises(NonRectangular):
            validate_block([[1.0], [1.0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_block([[0.5, -0.1]])

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteEntry, match="non-finite"):
            validate_block([[0.5, float("nan")]])

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_inf_rejected(self, bad):
        with pytest.raises(NonFiniteEntry, match="non-finite"):
            validate_block([[0.5, bad]])

    def test_a_block_equals_only_itself_and_is_hashable(self):
        # Compared field by field, two blocks raised on the array's ambiguous truth value.
        first, second = validate_block(EXAMPLE_ROWS), validate_block(EXAMPLE_ROWS)
        assert first == first and first != second
        assert {first: 1, second: 2}[first] == 1

    def test_zero_row_rejected(self):
        with pytest.raises(RowSumZero):
            validate_block([[0.5, 0.5], [0.0, 0.0]])

    @given(
        seed=st.integers(0, 2**32 - 1),
        block_len=st.integers(1, 5),
        vocab=st.integers(2, 9),
        concentration=st.sampled_from([0.1, 1.0, 10.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_normalized_and_interior(self, seed, block_len, vocab, concentration):
        block = random_block(seed, block_len, vocab, concentration)
        assert (block.block_len, block.vocab_size) == block.probs.shape == (block_len, vocab)
        sums = block.probs.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= ROW_SUM_ATOL)
        assert np.all(block.probs > 0.0) and np.all(block.probs < 1.0)


class TestPrefixMass:
    def test_uniform_two_by_two(self):
        block = validate_block([[0.5, 0.5], [0.5, 0.5]])
        assert prefix_mass(block, (0, 1)) == pytest.approx(0.25, rel=1e-12)

    def test_single_token_is_first_row_entry(self):
        block = validate_block(EXAMPLE_ROWS)
        for tok in range(3):
            assert prefix_mass(block, (tok,)) == pytest.approx(
                float(block.probs[0, tok]), rel=0
            )

    def test_example_product(self):
        # 0.3 * 0.7; cross-checked against the oracle table in test_oracle.
        block = validate_block(EXAMPLE_ROWS)
        assert prefix_mass(block, (1, 0)) == pytest.approx(0.21, rel=1e-12)

    def test_too_long_rejected(self):
        block = validate_block(EXAMPLE_ROWS)
        with pytest.raises(PrefixTooLong):
            prefix_mass(block, (0, 0, 0))

    @given(
        seed=st.integers(0, 2**32 - 1),
        block_len=st.integers(2, 5),
        vocab=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_extension_strictly_decreases_mass(self, seed, block_len, vocab):
        block = random_block(seed, block_len, vocab)
        rng = np.random.default_rng(seed + 1)
        prefix = tuple(int(t) for t in rng.integers(0, vocab, size=block_len - 1))
        base = prefix_mass(block, prefix)
        for tok in range(vocab):
            assert prefix_mass(block, prefix + (tok,)) < base


class TestLogPrefixMass:
    def test_uniform_log(self):
        block = validate_block([[0.5, 0.5], [0.5, 0.5]])
        assert log_prefix_mass(block, (0, 1)) == pytest.approx(math.log(0.25), rel=1e-12)

    def test_near_certain_token_is_near_zero(self):
        block = validate_block([[1.0, 0.0]])
        assert log_prefix_mass(block, (0,)) == pytest.approx(0.0, abs=1e-11)

    def test_example_log_product(self):
        block = validate_block(EXAMPLE_ROWS)
        assert log_prefix_mass(block, (0, 0)) == pytest.approx(math.log(0.42), rel=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        block_len=st.integers(1, 5),
        vocab=st.integers(2, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_exp_matches_linear_mass(self, seed, block_len, vocab):
        block = random_block(seed, block_len, vocab)
        rng = np.random.default_rng(seed + 1)
        prefix = tuple(int(t) for t in rng.integers(0, vocab, size=block_len))
        linear = prefix_mass(block, prefix)
        assert math.exp(log_prefix_mass(block, prefix)) == pytest.approx(
            linear, rel=1e-12
        )


class TestSampling:
    def test_degenerate_rows_yield_fixed_sequence(self):
        block = validate_block([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        tokens = sample_continuations(block, 1, np.random.default_rng(0))[0]
        assert tokens.tolist() == [1, 2, 0]

    def test_deterministic_given_state(self):
        block = random_block(3, 4, 5)
        a = sample_continuations(block, 1, np.random.default_rng(42))[0]
        b = sample_continuations(block, 1, np.random.default_rng(42))[0]
        assert a.tolist() == b.tolist()

    def test_batch_matches_marginal_frequencies(self):
        # Empirical prefix frequency over 1e5 draws within 3 sigma of the
        # exact prefix mass.
        block = random_block(7, 3, 4, concentration=0.8)
        n = 100_000
        samples = sample_continuations(block, n, np.random.default_rng(11))
        for prefix in [(0,), (2, 1), (1, 0, 3)]:
            p = prefix_mass(block, prefix)
            hits = np.all(samples[:, : len(prefix)] == prefix, axis=1).mean()
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(hits - p) <= 3.0 * sigma

    def test_clamped_argmax_probability(self):
        # One-hot rows clamp to 1 - eps; the argmax sequence appears with
        # probability at least (1 - eps)^L, so 1000 draws should all match.
        block = validate_block([[1.0, 0.0], [0.0, 1.0]])
        samples = sample_continuations(block, 1000, np.random.default_rng(5))
        assert np.all(samples == np.array([0, 1]))
        assert EPS_Q == 1e-12

    def test_zero_draws_give_an_empty_batch(self):
        samples = sample_continuations(validate_block(EXAMPLE_ROWS), 0, np.random.default_rng(0))
        assert samples.shape == (0, 2)


EXAMPLE = validate_block(EXAMPLE_ROWS)


class TestRequireReal:
    @pytest.mark.parametrize("value", [0, 1, 0.5, np.float64(0.5), np.float32(0.25), np.int64(1)])
    def test_accepts_real_numbers_in_range(self, value):
        require_real("x", value, 0.0, 1.0)
        require_real("x", value)

    @pytest.mark.parametrize("value", [0.0, -1e-300])
    def test_strict_excludes_the_floor(self, value):
        require_real("x", value, -1.0)
        with pytest.raises(ValueError, match="concentration must be > 0.0"):
            require_real("concentration", value, 0.0, strict=True)

class TestRequireCount:
    @pytest.mark.parametrize("value", [0, 3, np.int64(3)])
    def test_accepts_integers(self, value):
        require_count("n", value, 0)
        require_count("n", value)

    @pytest.mark.parametrize("value", [2.5, np.float64(3.0), "3", None, True, np.True_])
    def test_rejects_non_integers_naming_the_argument(self, value):
        with pytest.raises(ValueError, match="budget must be an integer"):
            require_count("budget", value, 1)

    @pytest.mark.parametrize("value", [0, np.int64(-1)])
    def test_rejects_a_value_below_the_floor(self, value):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            require_count("budget", value, 1)

    def test_build_tree_past_the_guard_draws_no_chunk(self):
        drawn = []

        def chunks():
            drawn.append(EXAMPLE)
            yield EXAMPLE

        with pytest.raises(ValueError, match="budget must be <="):
            build_tree(chunks(), NODE_GUARD + 1)
        assert drawn == []
