import itertools

import numpy as np
import pytest

from drafttree.distributions import EPS_Q
from drafttree.models import (
    PAD_TOKEN,
    DrafterConfig,
    NgramModel,
    TableTooLarge,
    deterministic_model,
    drafter_marginals,
    exact_marginals,
    random_model,
    target_next,
    _exact_marginal_rows,
)


class TestRandomModel:
    def test_context_count(self):
        model = random_model(0, vocab_size=4, order=2)
        assert model.table.shape == (16, 4)

    def test_rows_are_distributions(self):
        model = random_model(3, vocab_size=8, order=2, concentration=0.5)
        sums = model.table.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert np.all(model.table >= 0.0)

    def test_same_seed_same_table(self):
        a = random_model(42, vocab_size=5, order=1)
        b = random_model(42, vocab_size=5, order=1)
        assert np.array_equal(a.table, b.table)
        c = random_model(43, vocab_size=5, order=1)
        assert not np.array_equal(a.table, c.table)

    def test_high_concentration_approaches_uniform_over_non_pad(self):
        model = random_model(1, vocab_size=6, order=1, concentration=1e6)
        expected = (1.0 - EPS_Q) / 5.0
        assert np.allclose(model.table[:, 1:], expected, rtol=2e-2)

    def test_pad_token_gets_clamp_minimum(self):
        model = random_model(7, vocab_size=4, order=2)
        assert np.all(model.table[:, PAD_TOKEN] == EPS_Q)

    def test_table_guard(self):
        with pytest.raises(TableTooLarge):
            random_model(0, vocab_size=100, order=4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_model(0, vocab_size=1, order=1)
        with pytest.raises(ValueError):
            random_model(0, vocab_size=4, order=0)
        with pytest.raises(ValueError):
            random_model(0, vocab_size=4, order=1, concentration=0.0)

    @pytest.mark.parametrize("concentration", [np.nan, np.inf, 1e-4])
    def test_rejects_concentration_without_finite_rows(self, concentration):
        # At 1e-4, 91 of these 256 rows draw 0 for every non-pad token, and
        # normalising them would leave NaN rows.
        with pytest.raises(ValueError, match="concentration"):
            random_model(0, vocab_size=16, order=2, concentration=concentration)


class TestDeterministicModel:
    def test_rows_are_one_hot_and_never_pad(self):
        model = deterministic_model(5, vocab_size=6, order=2)
        assert np.all(model.table.sum(axis=1) == 1.0)
        assert np.all(model.table.max(axis=1) == 1.0)
        assert np.all(model.table[:, PAD_TOKEN] == 0.0)

    def test_greedy_rollout_is_deterministic(self):
        model = deterministic_model(5, vocab_size=6, order=2)
        seq = [1, 2]
        for _ in range(10):
            seq.append(int(np.argmax(target_next(model, seq))))
        again = [1, 2]
        for _ in range(10):
            again.append(int(np.argmax(target_next(model, again))))
        assert seq == again


class TestTargetNext:
    def test_row_sums_to_one(self):
        model = random_model(2, vocab_size=5, order=2)
        assert target_next(model, (1, 3)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_short_context_padded(self):
        model = random_model(2, vocab_size=5, order=3)
        row_padded = target_next(model, (4,))
        row_manual = model.table[(PAD_TOKEN * 5 + PAD_TOKEN) * 5 + 4]
        assert np.array_equal(row_padded, row_manual)

    def test_only_last_order_tokens_matter(self):
        model = random_model(2, vocab_size=5, order=2)
        assert np.array_equal(
            target_next(model, (1, 2, 3, 4)), target_next(model, (3, 4))
        )

    def test_rejects_out_of_vocab(self):
        model = random_model(2, vocab_size=5, order=1)
        with pytest.raises(ValueError):
            target_next(model, (5,))


def brute_force_marginals(model, context, bonus, block_len):
    """Path-enumeration ground truth for the per-position marginals."""
    v = model.vocab_size
    rows = np.zeros((block_len, v))
    for path in itertools.product(range(v), repeat=block_len):
        weight = 1.0
        history = list(context) + [bonus]
        for tok in path:
            weight *= float(target_next(model, history)[tok])
            history.append(tok)
        for i, tok in enumerate(path):
            rows[i, tok] += weight
    return rows


class TestExactMarginals:
    def test_first_row_is_the_conditional(self):
        model = random_model(4, vocab_size=6, order=2)
        block = exact_marginals(model, (2, 3), 4, 1)
        assert np.allclose(block.probs[0], target_next(model, (2, 3, 4)), atol=1e-9)

    def test_one_hot_model_gives_one_hot_marginals(self):
        model = deterministic_model(8, vocab_size=5, order=2)
        context, bonus = (1, 2), 3
        block = exact_marginals(model, context, bonus, 4)
        history = [1, 2, 3]
        for i in range(4):
            expected = int(np.argmax(target_next(model, history)))
            assert block.probs[i, expected] == pytest.approx(1.0, abs=1e-9)
            history.append(expected)

    def test_matches_brute_force_path_enumeration(self):
        model = random_model(11, vocab_size=3, order=2, concentration=0.7)
        raw = _exact_marginal_rows(model, (1, 2), 1, 4)
        brute = brute_force_marginals(model, (1, 2), 1, 4)
        assert np.allclose(raw, brute, rtol=1e-12, atol=1e-15)

    def test_matches_monte_carlo_rollouts(self):
        model = random_model(13, vocab_size=4, order=1, concentration=1.0)
        context, bonus, block_len = (2,), 3, 3
        raw = _exact_marginal_rows(model, context, bonus, block_len)
        n = 100_000
        rng = np.random.default_rng(99)
        counts = np.zeros((block_len, 4))
        cdfs = np.cumsum(model.table, axis=1)
        state = np.full(n, 3, dtype=np.int64)  # order-1 context is just bonus
        for i in range(block_len):
            draws = rng.random(n)
            tokens = np.empty(n, dtype=np.int64)
            for ctx in range(4):
                sel = state == ctx
                tokens[sel] = np.searchsorted(cdfs[ctx], draws[sel], side="right")
            np.clip(tokens, 0, 3, out=tokens)
            counts[i] = np.bincount(tokens, minlength=4)
            state = tokens
        freqs = counts / n
        sigma = np.sqrt(raw * (1.0 - raw) / n)
        assert np.all(np.abs(freqs - raw) <= 3.0 * sigma + 1e-12)


class TestDrafterMarginals:
    def test_zero_noise_equals_exact(self):
        model = random_model(6, vocab_size=5, order=2)
        cfg = DrafterConfig(noise=0.0, block_len=3)
        a = drafter_marginals(model, (1,), 2, cfg)
        b = exact_marginals(model, (1,), 2, 3)
        assert np.allclose(a.probs, b.probs, rtol=1e-12)

    def test_full_noise_is_uniform(self):
        model = random_model(6, vocab_size=5, order=2)
        cfg = DrafterConfig(noise=1.0, block_len=3)
        block = drafter_marginals(model, (1,), 2, cfg)
        assert np.allclose(block.probs, 0.2, rtol=1e-9)

    def test_convex_mixture_arithmetic(self):
        # Hand-built two-token model whose exact first marginal is (0.8, 0.2):
        # mixing with 50% uniform gives (0.65, 0.35).
        table = np.array([[0.8, 0.2], [0.8, 0.2]])
        model = NgramModel(order=1, vocab_size=2, table=table)
        block = drafter_marginals(model, (), 1, DrafterConfig(noise=0.5, block_len=1))
        assert np.allclose(block.probs[0], [0.65, 0.35], rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DrafterConfig(noise=1.5, block_len=4)
        with pytest.raises(ValueError):
            DrafterConfig(noise=0.5, block_len=0)
