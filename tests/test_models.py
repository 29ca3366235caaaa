import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drafttree.distributions import EPS_Q, ROW_SUM_ATOL
from drafttree.engine import EpisodeConfig, run_episode
from drafttree.models import (
    PAD_TOKEN,
    DrafterConfig,
    NgramModel,
    TableTooLarge,
    FIRST_CHUNK_ROWS,
    deterministic_model,
    drafter_chunks,
    drafter_marginals,
    exact_marginals,
    random_model,
    target_next,
)
from drafttree.oracle import loop_drafter_rows

from blocks import random_model_or_reject


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

    @pytest.mark.parametrize("vocab_size, order", [(100, 4), (64, 3)])
    def test_table_guard(self, vocab_size, order):
        # 64^3 is only 262,144 contexts, but the table would hold 64^4 = 16.8M
        # entries: the guard counts what would be allocated.
        with pytest.raises(TableTooLarge, match="table entries"):
            random_model(0, vocab_size=vocab_size, order=order)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_model(0, vocab_size=1, order=1)
        with pytest.raises(ValueError):
            random_model(0, vocab_size=4, order=0)
        with pytest.raises(ValueError):
            random_model(0, vocab_size=4, order=1, concentration=0.0)
        for make in (random_model, deterministic_model):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                make(-1, vocab_size=4, order=1)

    @pytest.mark.parametrize("order, vocab_size", [(2, 3), (1, 4)])
    def test_a_table_of_another_shape_is_rejected_naming_both(self, order, vocab_size):
        # Unchecked, (2, 3) ran an episode until "token id 3 outside
        # vocabulary" and (1, 4) hit a numpy broadcast error in the drafter.
        table = random_model(0, vocab_size=4, order=2).table  # 16 x 4
        expected = (vocab_size**order, vocab_size)
        with pytest.raises(ValueError, match=re.escape(f"table shape (16, 4) is not {expected}")):
            NgramModel(order=order, vocab_size=vocab_size, table=table)

    @pytest.mark.parametrize(
        "entry, value, message",
        [
            ((1, 2), np.nan, "table has non-finite entries"),
            ((0, 0), np.inf, "table has non-finite entries"),
            ((3, 1), -0.25, "table has negative entries"),
            ((2, 3), 0.5, "table row 2 sums to"),
        ],
    )
    def test_a_table_that_is_not_a_distribution_per_row_is_rejected(
        self, entry, value, message
    ):
        # Unchecked, a table of NaN ran a greedy baseline episode to the end.
        table = random_model(0, vocab_size=4, order=1).table.copy()
        table[entry] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            NgramModel(order=1, vocab_size=4, table=table)

    def test_a_row_sum_within_the_tolerance_passes(self):
        # random_model and deterministic_model (one-hot rows, exact zeros
        # included) build through the same check in every other test.
        row = np.full(4, 0.25)
        row[0] += 0.5 * ROW_SUM_ATOL
        NgramModel(order=1, vocab_size=4, table=np.tile(row, (4, 1)))

    @pytest.mark.parametrize("concentration", [np.nan, np.inf, 1e-4])
    def test_rejects_concentration_without_finite_rows(self, concentration):
        # At 1e-4, 91 of these 256 rows draw 0 for every non-pad token, and
        # normalising them would leave NaN rows.
        with pytest.raises(ValueError, match="concentration"):
            random_model(0, vocab_size=16, order=2, concentration=concentration)


class TestNgramModelTable:
    def test_a_change_to_the_source_array_reaches_no_episode(self):
        # Kept by reference, the caller's array set to NaN turned this
        # greedy baseline into (1, 1, 1, ...).
        source = random_model(0, vocab_size=4, order=1).table.copy()
        model = NgramModel(order=1, vocab_size=4, table=source)
        kept = model.table.copy()
        cfg = EpisodeConfig(seed=3, max_new_tokens=24, mode="baseline")
        before = run_episode(model, cfg)
        source[:] = np.nan
        assert not model.table.flags.writeable
        assert np.array_equal(model.table, kept)
        assert run_episode(model, cfg) == before

    def test_a_list_table_gives_the_array_model(self):
        # Kept as a list, the table passed every check and then broke the
        # tree's drafter on ``reshape``.
        array_model = random_model(5, vocab_size=4, order=2, concentration=0.5)
        list_model = NgramModel(order=2, vocab_size=4, table=array_model.table.tolist())
        assert isinstance(list_model.table, np.ndarray)
        assert list_model.table.dtype == np.float64 and not list_model.table.flags.writeable
        assert np.array_equal(list_model.table, array_model.table)
        cfg = EpisodeConfig(seed=3, max_new_tokens=32, temperature=1.0, budget=8, block_len=6)
        assert run_episode(list_model, cfg) == run_episode(array_model, cfg)


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

    def test_rejects_a_non_integer_token_by_name(self):
        # Unchecked, numpy raised a bare IndexError that named nothing.
        model = random_model(2, vocab_size=5, order=1)
        with pytest.raises(ValueError, match="token id must be an integer, got 1.5"):
            target_next(model, (1.5,))
        with pytest.raises(ValueError, match="token id must be an integer, got 2.0"):
            exact_marginals(model, [], 2.0, 2)

    def test_accepts_a_numpy_integer_token(self):
        model = random_model(2, vocab_size=5, order=2)
        assert np.array_equal(target_next(model, (np.int64(1), 3)), target_next(model, (1, 3)))


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
        raw = exact_marginals(model, (1, 2), 1, 4).probs
        brute = brute_force_marginals(model, (1, 2), 1, 4)
        assert np.allclose(raw, brute, rtol=1e-12, atol=1e-15)

    def test_matches_monte_carlo_rollouts(self):
        model = random_model(13, vocab_size=4, order=1, concentration=1.0)
        context, bonus, block_len = (2,), 3, 3
        raw = exact_marginals(model, context, bonus, block_len).probs
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
    @settings(max_examples=100, deadline=None)
    @example(2, 1, 5377, 0.008, 0.3, 16, 1)  # a table random_model refuses
    @example(32, 2, 13, 0.1, 0.3, 16, 2)  # sampled-wide's shape
    @example(64, 2, 13, 0.1, 0.3, 16, 2)
    @example(3, 4, 0, "one-hot", 0.0, 20, 0)  # a pad-only window
    @given(
        st.integers(2, 64),  # vocab
        st.integers(1, 4),  # order
        st.integers(0, 2**16),  # seed
        st.sampled_from([0.008, 0.1, 1.0, "one-hot"]),  # concentration
        st.floats(0.0, 1.0),  # noise
        st.integers(1, 20),  # block_len
        st.integers(0, 4),  # window tokens drawn, before pad fills the rest
    )
    def test_equals_the_loop_dp_bit_for_bit(
        self, vocab, order, seed, conc, noise, block_len, window_len
    ):
        # The window may be shorter than order (pad-filled) and may hold
        # token 0; each chunk must carry the loop DP's rows byte for byte.
        vocab = min(vocab, {1: 64, 2: 64, 3: 12, 4: 6}[order])
        if conc == "one-hot":
            model = deterministic_model(seed, vocab, order)
        else:
            model = random_model_or_reject(seed, vocab, order, conc)
        window = [int(t) for t in np.random.default_rng(seed).integers(0, vocab, size=window_len)]
        context, bonus = window[:-1], window[-1] if window else PAD_TOKEN
        cfg = DrafterConfig(noise, block_len)
        # validate_block's clamp, written here with np.clip.
        clamped = np.clip(loop_drafter_rows(model, context, bonus, cfg), EPS_Q, 1.0 - EPS_Q)
        reference = clamped / clamped.sum(axis=1, keepdims=True)
        drafted = 0
        for chunk in drafter_chunks(model, context, bonus, cfg):
            rows = reference[drafted : drafted + chunk.block_len]
            assert chunk.probs.tobytes() == rows.tobytes()
            drafted += chunk.block_len
        assert drafted == block_len
        block = drafter_marginals(model, context, bonus, cfg)
        assert block.probs.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("order, vocab_size", [(1, 5), (2, 4), (3, 3)])
    def test_steps_read_only_the_windows_they_can_reach(self, order, vocab_size):
        # Step j < order reads only windows whose oldest order - j tokens are
        # the start window's newest. NaN in every other row leaves those
        # steps' rows as they are; a full-table product would read 0 x NaN.
        clean = random_model(4, vocab_size, order)
        context, bonus = [2] * (order - 1), 1
        start = sum(t * vocab_size**k for k, t in enumerate(reversed([*context, bonus])))
        reachable = {
            start % vocab_size ** (order - j) * vocab_size**j + low
            for j in range(order)
            for low in range(vocab_size**j)
        }
        table = np.full_like(clean.table, np.nan)
        table[sorted(reachable)] = clean.table[sorted(reachable)]
        # The constructor refuses NaN, so the poisoned table goes in afterwards.
        poisoned = NgramModel(order=order, vocab_size=vocab_size, table=clean.table)
        object.__setattr__(poisoned, "table", table)
        cfg = DrafterConfig(noise=0.3, block_len=order)
        expected = drafter_marginals(clean, context, bonus, cfg)
        assert drafter_marginals(poisoned, context, bonus, cfg).probs.tobytes() == (
            expected.probs.tobytes()
        )

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

    @pytest.mark.parametrize("block_len", [1, 3, 4, 5, 8, 9, 16, 17, 40])
    def test_chunks_double_the_rows_drafted_and_join_to_the_block(self, block_len):
        model = random_model(2, vocab_size=7, order=2, concentration=0.3)
        cfg = DrafterConfig(noise=0.3, block_len=block_len)
        chunks = list(drafter_chunks(model, (3,), 5, cfg))
        sizes = [chunk.block_len for chunk in chunks]
        assert sum(sizes) == block_len
        assert sizes[0] == min(FIRST_CHUNK_ROWS, block_len)
        for i, size in enumerate(sizes[1:-1], start=1):
            assert size == sum(sizes[:i])  # each full chunk doubles the rows so far
        if len(sizes) > 1:
            assert sizes[-1] <= sum(sizes[:-1])
        joined = np.concatenate([chunk.probs for chunk in chunks])
        block = drafter_marginals(model, (3,), 5, cfg)
        assert joined.tobytes() == block.probs.tobytes()
        assert not block.probs.flags.writeable

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DrafterConfig(noise=1.5, block_len=4)
        with pytest.raises(ValueError):
            DrafterConfig(noise=0.5, block_len=0)
