import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drafttree.distributions import (
    EPS_Q,
    NegativeEntry,
    NonRectangular,
    PrefixTooLong,
    RowSumZero,
    log_prefix_mass,
    prefix_mass,
    sample_continuations,
    validate_block,
)

# Shared worked example: q1=(0.6,0.3,0.1), q2=(0.7,0.2,0.1).
EXAMPLE_ROWS = [[0.6, 0.3, 0.1], [0.7, 0.2, 0.1]]


def random_block(seed, block_len, vocab, concentration=1.0):
    rng = np.random.default_rng(seed)
    return validate_block(rng.gamma(concentration, 1.0, size=(block_len, vocab)))


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

    def test_single_column_rejected(self):
        with pytest.raises(NonRectangular):
            validate_block([[1.0], [1.0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_block([[0.5, -0.1]])

    def test_nan_rejected(self):
        with pytest.raises(NegativeEntry):
            validate_block([[0.5, float("nan")]])

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
        sums = block.probs.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
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

    def test_bad_token_rejected(self):
        block = validate_block(EXAMPLE_ROWS)
        with pytest.raises(ValueError):
            prefix_mass(block, (3,))

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
