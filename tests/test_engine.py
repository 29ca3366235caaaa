import gc
import warnings
import weakref
from array import array
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drafttree.engine as engine
from drafttree.engine import (
    CostModel,
    EpisodeConfig,
    argmax_path,
    budget_sweep,
    decode_next,
    episode_seed,
    estimate_speedup,
    make_prompt,
    position_uniforms,
    run_episode,
    run_episodes,
    sweep_scope,
    _decide,
    _decision_row,
    _position_uniform,
)
from drafttree.models import (
    FIRST_CHUNK_ROWS,
    DrafterConfig,
    NgramModel,
    deterministic_model,
    drafter_marginals,
    random_model,
    target_next,
)
from drafttree.oracle import reference_episode
from drafttree.treebuild import build_tree, node_prefixes
from drafttree.verify import flatten, verifier_walk

from blocks import counting_dp_steps, random_model_or_reject


def small_cfg(**overrides):
    base = dict(
        seed=7,
        max_new_tokens=48,
        prompt_len=6,
        temperature=0.0,
        budget=12,
        block_len=6,
        mode="tree",
        drafter_noise=0.25,
    )
    base.update(overrides)
    return EpisodeConfig(**base)


MODEL = random_model(21, vocab_size=8, order=2, concentration=0.3)


class TestEpisodeConfig:
    COUNTS = ["seed", "max_new_tokens", "prompt_len", "budget", "block_len", "eos_token",
              "max_rounds"]

    @pytest.mark.parametrize("field", COUNTS)
    def test_accepts_numpy_integer_counts(self, field):
        assert run_episode(MODEL, small_cfg(**{field: np.int64(3)})) == run_episode(
            MODEL, small_cfg(**{field: 3})
        )

    def test_baseline_ignores_budget(self):
        cfg = small_cfg(mode="baseline", budget=0)
        assert cfg.mode == "baseline"


class TestEstimateSpeedup:
    def test_ideal_overhead_limit_is_mean_tau(self):
        cost = CostModel(t_target=1.0, t_draft=0.0, t_verify_base=1.0, kappa=0.0)
        assert estimate_speedup(4.2, 64, cost) == pytest.approx(4.2, rel=1e-12)

    def test_no_gain_floor(self):
        cost = CostModel(t_target=1.0, t_draft=0.0, t_verify_base=1.0, kappa=0.0)
        assert estimate_speedup(1.0, 512, cost) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_decreasing_in_budget_for_fixed_tau(self):
        values = [estimate_speedup(5.0, b) for b in (16, 64, 256, 1024)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestEpisodeStats:
    @pytest.mark.parametrize(
        "mode,budget", [("tree", 12), ("chain", 6), ("baseline", 0)]
    )
    def test_budget_is_nodes_verified_per_round(self, mode, budget):
        result = run_episode(MODEL, small_cfg(mode=mode, max_rounds=3, collect_trace=True))
        assert (result.stats.mode, result.stats.budget) == (mode, budget)
        assert result.stats.episodes == 1
        assert [r["budget"] for r in result.trace] == [budget] * 3

    def test_speedup_applies_the_given_cost(self):
        stats = run_episode(MODEL, small_cfg()).stats
        cost = CostModel(t_target=1.5, t_draft=0.3, t_verify_base=0.8, kappa=0.05)
        assert stats.speedup(cost) == estimate_speedup(stats.mean_tau, 12, cost)
        assert stats.est_speedup == stats.speedup() == estimate_speedup(stats.mean_tau, 12)
        baseline = run_episode(MODEL, small_cfg(mode="baseline")).stats
        assert baseline.speedup(cost) == baseline.est_speedup == 1.0

    def test_merge_rejects_another_config(self):
        tree = run_episode(MODEL, small_cfg()).stats
        with pytest.raises(ValueError):
            tree.merge(run_episode(MODEL, small_cfg(mode="chain")).stats)
        with pytest.raises(ValueError):
            tree.merge(run_episode(MODEL, small_cfg(budget=13)).stats)


class TestSmallTemperature:
    def test_sampling_returns_the_argmax_on_flat_rows(self):
        # Flat rows (max p about 0.1-0.2): row ** (1/T) underflows to all
        # zeros at this T unless the row is scaled to a maximum of 1 first.
        # The closest runner-up keeps about 3e-5 of the argmax's weight here.
        model = random_model(0, vocab_size=16, order=1, concentration=5.0)
        for token in range(16):
            greedy = decode_next(model, (token,), 0.0, None)
            for u in (0.01, 0.5, 0.99):
                assert decode_next(model, (token,), 0.001, u) == greedy

    def test_sampling_without_a_uniform_raises(self):
        model = random_model(0, vocab_size=16, order=1)
        with pytest.raises(ValueError, match="sampling requires a uniform draw"):
            decode_next(model, (3,), 0.5, None)


class TestPadNeverSampled:
    @given(
        st.integers(0, 2**32 - 1),  # model seed
        st.integers(2, 32),  # vocab
        st.sampled_from([0.01, 0.3, 1.0, 5.0]),  # concentration
        st.floats(1e-3, 100.0),  # temperature
        st.floats(0.0, 1.0, exclude_max=True),  # uniform
    )
    @settings(max_examples=200, deadline=None)
    @example(4691079, 2, 0.01, 1.0, 0.0)  # a row whose one non-pad draw underflows
    def test_sampling_never_returns_the_pad(self, seed, vocab, concentration, temperature, u):
        # Tempering lifts the pad's clamp-minimum mass toward the other
        # tokens' as T grows; the pad must still never be generated.
        model = random_model_or_reject(seed, vocab, 1, concentration)
        context = (1 + seed % (vocab - 1),)
        assert decode_next(model, context, temperature, u) != 0

    def test_a_greedy_target_never_emits_the_pad(self):
        # Every row peaks at the pad. The greedy argmax read the pad too, so
        # a T=0 episode emitted (0, 0, ...) while T=1 sampling never did.
        table = np.tile([0.5, 0.25, 0.25], (3, 1))
        model = NgramModel(order=1, vocab_size=3, table=table)
        for temperature in (0.0, 1.0):
            cfg = small_cfg(mode="baseline", temperature=temperature, max_new_tokens=6)
            tokens = run_episode(model, cfg).tokens
            assert len(tokens) == 7 and 0 not in tokens
        assert decode_next(model, (1,), 0.0, None) == 1  # the lowest id of the tied maxima

    def test_hot_episode_emits_no_pad(self):
        model = random_model(0, vocab_size=16, order=2, concentration=1.0)
        cfg = small_cfg(mode="baseline", temperature=20.0, max_new_tokens=256)
        assert 0 not in run_episode(model, cfg).tokens


# A block of positions, the unit the position-uniform tests draw at.
UNIFORM_BLOCK = 64


def seeds_of_words(words):
    """A seed whose uint32 words, low first, number ``words``: its top word is nonzero."""
    return st.integers(0 if words == 1 else 2 ** (32 * words - 32), 2 ** (32 * words) - 1)


class TestPositionUniforms:
    @given(
        st.integers(1, 3).flatmap(seeds_of_words),
        st.integers(0, 2**32 // UNIFORM_BLOCK - 3).map(lambda block: block * UNIFORM_BLOCK),
        st.integers(1, 130),
    )
    @settings(max_examples=60, deadline=None)
    @example(0, 0, 130)
    @example(2**32 - 1, 2**32 - 3 * UNIFORM_BLOCK, 1)
    @example(2**32, UNIFORM_BLOCK, UNIFORM_BLOCK)
    @example(3**50, 2 * UNIFORM_BLOCK, 130)
    def test_equals_numpy_s_generator_at_every_position(self, seed, start, count):
        expected = [_position_uniform(seed, p) for p in range(start, start + count)]
        assert position_uniforms(seed, start, count) == expected

    @pytest.mark.parametrize("position", [0, 1, 2**31, 2**32 - 1])
    def test_one_position_overflows_no_numpy_scalar(self, position):
        # The hash and the 128-bit step wrap on purpose; a numpy scalar that
        # wraps warns, so every operand must stay an array.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uniforms = position_uniforms(2**64 - 1, position, 1)
        assert uniforms == [_position_uniform(2**64 - 1, position)]

    def test_a_position_past_one_word_raises_naming_the_argument(self):
        with pytest.raises(ValueError, match="start must be <= 4294967295, got 4294967296"):
            position_uniforms(0, 2**32, 1)
        with pytest.raises(ValueError, match="count must be <= 64, got 65"):
            position_uniforms(0, 2**32 - UNIFORM_BLOCK, UNIFORM_BLOCK + 1)


class TestDecisionRows:
    @staticmethod
    def cdf(model, context, temperature):
        """The cumulative tempered weights of tokens 1..|V|-1, as numpy computes them."""
        row = target_next(model, context)[1:]
        weights = row if temperature == 1.0 else (row / row.max()) ** (1.0 / temperature)
        return np.cumsum(weights)

    @classmethod
    def searched(cls, model, context, temperature, u):
        """The token for ``u`` by ``np.searchsorted`` over a freshly tempered row."""
        if temperature == 0.0:
            return 1 + int(np.argmax(target_next(model, context)[1:]))
        cdf = cls.cdf(model, context, temperature)
        return 1 + min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), len(cdf) - 1)

    @staticmethod
    def uniforms_on_steps(cdf):
        """Uniforms whose scaled value lands on each step of ``cdf``, and their neighbours."""
        on = [c / cdf[-1] for c in cdf[:-1]]
        return [float(v) for u in on for v in (np.nextafter(u, 0.0), u, np.nextafter(u, 1.0))]

    @given(
        st.integers(0, 2**32 - 1),  # model seed
        st.integers(2, 32),  # vocab
        st.sampled_from([0.01, 0.3, 1.0]),  # concentration
        st.sampled_from([0.0, 1e-3, 0.5, 1.0, 3.0]),  # temperature
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_row_decides_as_searchsorted_over_the_drawn_row(
        self, seed, vocab, concentration, temperature, drawn
    ):
        model = random_model_or_reject(seed, vocab, 1, concentration)
        for context in [(token,) for token in range(vocab)]:
            row = _decision_row(model, context, temperature)
            uniforms = drawn + [0.0]
            if temperature > 0.0:
                # The row holds np.cumsum's bytes, 8 a float, and no numpy array.
                assert type(row) is array and row.itemsize == 8
                assert row.tobytes() == self.cdf(model, context, temperature).tobytes()
                uniforms += self.uniforms_on_steps(row)
            for u in uniforms:
                expected = self.searched(model, context, temperature, u)
                assert _decide(row, u) == decode_next(model, context, temperature, u) == expected

    @given(
        st.integers(0, 2**32 - 1),  # model seed
        st.integers(2, 40),  # vocab
        st.sampled_from([0.01, 0.1, 1.0, 10.0]),  # concentration
        st.sampled_from([0.05, 0.7, 1.0, 20.0]),  # temperature
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=16),
    )
    @settings(max_examples=120, deadline=None)
    @example(0, 40, 0.01, 0.05, [0.0, 1.0 - 2.0**-53])
    @example(1, 2, 10.0, 20.0, [1.0 - 2.0**-53])
    def test_bisect_right_over_the_stored_bytes_is_searchsorted(
        self, seed, vocab, concentration, temperature, drawn
    ):
        model = random_model_or_reject(seed, vocab, 1, concentration)
        for context in [(token,) for token in range(vocab)]:
            cdf = self.cdf(model, context, temperature)
            stored = array("d", cdf.tobytes())
            for u in drawn + [0.0, 1.0 - 2.0**-53] + self.uniforms_on_steps(cdf):
                x = u * cdf[-1]
                assert bisect_right(stored, u * stored[-1]) == np.searchsorted(cdf, x, "right")

    @pytest.mark.parametrize("temperature", [1e-3, 0.5, 1.0, 3.0])
    def test_a_uniform_on_a_step_takes_the_next_token(self, temperature):
        # Dyadic weights, so the scaled uniform lands on the step exactly.
        table = np.tile([0.0, 0.25, 0.25, 0.5], (4, 1))
        model = NgramModel(order=1, vocab_size=4, table=table)
        row = _decision_row(model, (1,), temperature)
        on_step = [u for u in self.uniforms_on_steps(row)[1::3] if u * row[-1] in row]
        assert len(on_step) == 2 or temperature not in (0.5, 1.0)
        for u in on_step:
            token = 2 + list(row).index(u * row[-1])
            assert _decide(row, u) == self.searched(model, (1,), temperature, u) == token


class TestDecidedSequence:
    """A scope decides each episode's sequence ahead of its rounds, a span at a time."""

    @staticmethod
    def run_recorded(monkeypatch, cfg, modes=("tree",)):
        """Run ``cfg`` in each mode in one scope; return (store, results, uniform draws)."""
        draws = []

        def counted(seed, start, count):
            uniforms = position_uniforms(seed, start, count)
            draws.append((seed, start, count, uniforms))
            return uniforms

        monkeypatch.setattr(engine, "position_uniforms", counted)
        with sweep_scope(MODEL) as store:
            results = [run_episode(MODEL, replace(cfg, mode=mode)) for mode in modes]
        return store, results, draws

    @staticmethod
    def check_decided(store, cfg, result):
        """The stored sequence is ``decode_next``'s, and ends within a span past the last round."""
        seq = store.sequences[cfg.seed, cfg.prompt_len, cfg.temperature]
        assert tuple(seq[:cfg.prompt_len]) == make_prompt(MODEL, cfg.seed, cfg.prompt_len)
        for i in range(cfg.prompt_len, len(seq)):
            u = _position_uniform(cfg.seed, i - cfg.prompt_len) if cfg.temperature else None
            assert seq[i] == decode_next(MODEL, seq[i - MODEL.order:i], cfg.temperature, u)
        n = cfg.prompt_len + len(result.tokens)  # the episode's last cursor
        assert tuple(seq[cfg.prompt_len:n]) == result.tokens
        end = cfg.prompt_len + 1 + cfg.max_new_tokens
        # No round reads past end + block_len, nor the last round past n + block_len.
        assert len(seq) <= min(n + cfg.block_len + 1 + engine.DECISION_SPAN, end + cfg.block_len)
        return seq

    @pytest.mark.parametrize("cut", ["none", "eos", "max_rounds"])
    @pytest.mark.parametrize("temperature", [0.0, 0.7, 1.0])
    def test_a_stored_sequence_is_decode_next_s_position_by_position(
        self, monkeypatch, temperature, cut
    ):
        # 400 tokens cross a span boundary: the first span ends 256 positions
        # past the first round's reach.
        cfg = small_cfg(temperature=temperature, max_new_tokens=400)
        if cut == "eos":
            cfg = replace(cfg, eos_token=run_episode(MODEL, cfg).tokens[40])
        elif cut == "max_rounds":
            cfg = replace(cfg, max_rounds=5, max_new_tokens=10**6)
        store, results, draws = self.run_recorded(monkeypatch, cfg, engine.MODES)
        assert results == [reference_episode(MODEL, replace(cfg, mode=m)) for m in engine.MODES]
        seq = self.check_decided(store, cfg, results[0])
        decided = len(seq) - cfg.prompt_len
        if cut == "none":
            assert decided == cfg.max_new_tokens + 1 + cfg.block_len  # end + block_len
        else:
            assert decided < cfg.block_len + 1 + 2 * engine.DECISION_SPAN
        if temperature == 0.0:
            assert draws == []
            return
        # Each span draws its positions' uniforms once, in one call, and the
        # draws tile the positions decided.
        assert [d[0] for d in draws] == [cfg.seed] * len(draws)
        assert [d[1] for d in draws] == [0, *np.cumsum([d[2] for d in draws[:-1]])]
        assert sum(d[2] for d in draws) == decided
        assert len(draws) == (2 if cut == "none" else 1)
        assert [u for d in draws for u in d[3]] == [
            _position_uniform(cfg.seed, p) for p in range(decided)]

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_max_rounds_zero_decides_one_span(self, monkeypatch, temperature):
        cfg = small_cfg(temperature=temperature, max_new_tokens=10**6, max_rounds=0)
        store, (result,), draws = self.run_recorded(monkeypatch, cfg)
        seq = self.check_decided(store, cfg, result)
        assert result.tokens == (seq[cfg.prompt_len],)  # the prefill bonus alone
        assert len(draws) == (temperature > 0)

    def test_a_scope_derives_each_episode_seed_once(self, monkeypatch):
        calls = []

        def counted(base_seed, index):
            calls.append((base_seed, index))
            return episode_seed(base_seed, index)

        monkeypatch.setattr(engine, "episode_seed", counted)
        cfg = small_cfg()
        with sweep_scope(MODEL):
            budget_sweep(MODEL, cfg, [8, 16, 32], episodes=3)
            for mode in ("chain", "baseline"):
                run_episodes(MODEL, replace(cfg, mode=mode), 3)
        assert calls == [(cfg.seed, i) for i in range(3)]
        calls.clear()
        run_episodes(MODEL, cfg, 3)  # a scope of its own derives them anew
        assert calls == [(cfg.seed, i) for i in range(3)]


class TestBaselineMode:
    def test_equals_pure_greedy_rollout(self):
        cfg = small_cfg(mode="baseline")
        result = run_episode(MODEL, cfg)
        prompt = make_prompt(MODEL, cfg.seed, cfg.prompt_len)
        rollout = []
        while len(rollout) < cfg.max_new_tokens + 1:
            rollout.append(int(np.argmax(target_next(MODEL, prompt + tuple(rollout)))))
        assert list(result.tokens) == rollout

    def test_never_queries_the_drafter(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the baseline drafted")

        monkeypatch.setattr(engine, "drafter_marginals", refuse)
        monkeypatch.setattr(engine, "drafter_chunks", refuse)
        run_episode(MODEL, small_cfg(mode="baseline", temperature=1.0))
        run_episodes(MODEL, small_cfg(mode="baseline"), episodes=3)

    def test_trace_records_verify_the_bonus_alone(self):
        result = run_episode(MODEL, small_cfg(mode="baseline", max_rounds=4, collect_trace=True))
        for i, record in enumerate(result.trace):
            assert record == {
                "round_index": i,
                "budget": 0,
                "tree_size": 0,
                "acceptance_length": 0,
                "next_bonus": result.tokens[i + 1],
                "kept_indices": [0],
            }

    def test_every_round_commits_one_token(self):
        result = run_episode(MODEL, small_cfg(mode="baseline"))
        stats = result.stats
        assert stats.mean_tau == 1.0
        assert stats.rounds == stats.committed_tokens == 48
        assert stats.tau_histogram[0] == 48
        assert stats.est_speedup == 1.0


class TestPerfectDrafterLimit:
    def test_deterministic_target_accepts_full_blocks(self):
        model = deterministic_model(3, vocab_size=8, order=2)
        # 3 rounds of exactly block_len + 1 commits each.
        cfg = small_cfg(max_new_tokens=21, block_len=6, budget=16, drafter_noise=0.0)
        stats = run_episode(model, cfg).stats
        assert stats.mean_tau == 7.0
        assert stats.rounds == 3
        assert stats.tau_histogram[6] == 3


class TestLosslessness:
    @pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("mode", ["tree", "chain"])
    def test_speculative_matches_baseline(self, temperature, mode):
        # Every mode reads one target stream, so the reference episode is what
        # makes this check something.
        for seed in (1, 5, 9):
            cfg = small_cfg(seed=seed, mode=mode, temperature=temperature)
            spec = run_episode(MODEL, cfg)
            base = run_episode(MODEL, replace(cfg, mode="baseline"))
            assert spec.tokens == base.tokens
            assert spec == reference_episode(MODEL, cfg)
            assert base == reference_episode(MODEL, replace(cfg, mode="baseline"))

    def test_temperature_sampling_matches_ancestral_loop(self):
        # The committed stream equals a hand-rolled target-only sampler fed by
        # the same position-indexed uniforms.
        cfg = small_cfg(temperature=1.0, seed=13)
        result = run_episode(MODEL, cfg)
        prompt = make_prompt(MODEL, cfg.seed, cfg.prompt_len)
        rollout = []
        while len(rollout) < cfg.max_new_tokens + 1:
            u = _position_uniform(cfg.seed, len(rollout))
            rollout.append(decode_next(MODEL, prompt + tuple(rollout), 1.0, u))
        assert list(result.tokens) == rollout


class TestStatsBookkeeping:
    @pytest.mark.parametrize("mode", ["tree", "chain", "baseline"])
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_every_round_walks_its_draft(self, monkeypatch, mode, temperature):
        cfg = small_cfg(mode=mode, temperature=temperature, collect_trace=True)
        if mode != "tree":
            # A chain or baseline round verifies a token path: it builds,
            # flattens and walks no tree.
            def refuse(*args):
                raise AssertionError(f"a {mode} round used the tree machinery")

            for name in ("build_tree", "chain_tree", "flatten", "verifier_walk"):
                monkeypatch.setattr(engine, name, refuse)
            result = run_episode(MODEL, cfg)
            assert result == reference_episode(MODEL, cfg)
            assert {r["tree_size"] for r in result.trace} == {result.stats.budget}
            if mode == "chain":  # a round ran off its first chunk and drew the next
                assert any(len(e) > 3 for e in chain_rule_events(MODEL, [cfg]))
            return
        walks = []  # (nodes walked, acceptance length)
        real = engine.verifier_walk

        def counting(flat, rollout):
            outcome = real(flat, rollout)
            walks.append((len(flat) - 1, outcome.acceptance_length))
            return outcome

        monkeypatch.setattr(engine, "verifier_walk", counting)
        result = run_episode(MODEL, cfg)
        assert result.stats.rounds == len(result.trace)
        if temperature == 0.0:
            # A greedy walk is a function of the round's (window, budget):
            # each pair met is walked once, at its first round, and every
            # round that meets it records that walk.
            seq = make_prompt(MODEL, cfg.seed, cfg.prompt_len) + result.tokens
            n, met = cfg.prompt_len + 1, {}
            for record in result.trace:
                window = seq[max(0, n - MODEL.order):n]
                met.setdefault((window, record["budget"]), []).append(record)
                n += record["acceptance_length"] + 1
            assert len(walks) == len(met) < result.stats.rounds
            for (size, a), records in zip(walks, met.values()):
                assert [r["tree_size"] for r in records] == [size] * len(records)
                assert [r["acceptance_length"] for r in records] == [a] * len(records)
        else:
            assert len(walks) == result.stats.rounds
            assert [a for _, a in walks] == [r["acceptance_length"] for r in result.trace]
            assert [size for size, _ in walks] == [r["tree_size"] for r in result.trace]
        assert (result.stats.rounds, result.stats.committed_tokens) == (
            len(result.trace), len(result.tokens) - 1
        )

    @pytest.mark.parametrize("mode", ["tree", "chain", "baseline"])
    def test_histogram_consistency(self, mode):
        # The histogram defines rounds and committed tokens, so check both
        # against what the episode did: one trace record per round, and every
        # token after the prefill bonus committed by some round.
        result = run_episode(MODEL, small_cfg(mode=mode, temperature=1.0, collect_trace=True))
        stats = result.stats
        assert stats.rounds == len(result.trace)
        assert stats.committed_tokens == len(result.tokens) - 1
        assert 1.0 <= stats.mean_tau <= len(stats.tau_histogram)  # L + 1 bins

    def test_round_truncation_at_token_budget(self):
        model = deterministic_model(3, vocab_size=8, order=2)
        # Second round only has room for 3 of its block_len + 1 tokens.
        cfg = small_cfg(max_new_tokens=10, block_len=6, budget=16, drafter_noise=0.0)
        stats = run_episode(model, cfg).stats
        assert stats.committed_tokens == 10
        assert stats.rounds == 2
        assert stats.tau_histogram[6] == 1 and stats.tau_histogram[2] == 1

    def test_eos_stops_episode(self):
        cfg = small_cfg(mode="baseline", temperature=1.0)
        free = run_episode(MODEL, cfg)
        eos = free.tokens[10]
        stopped = run_episode(
            MODEL,
            small_cfg(mode="baseline", temperature=1.0, eos_token=int(eos)),
        )
        assert stopped.tokens == free.tokens[: list(free.tokens).index(eos) + 1]
        assert stopped.tokens[-1] == eos

    @pytest.mark.parametrize("mode", ["tree", "baseline"])
    @pytest.mark.parametrize("eos", [8, 99])
    def test_rejects_an_eos_token_outside_the_vocabulary(self, monkeypatch, mode, eos):
        # Raised before the first round: no target row is read.
        monkeypatch.setattr(engine, "target_next", None)
        with pytest.raises(ValueError, match=f"eos_token {eos} .* vocab_size 8"):
            run_episode(random_model(0, 8, 2), small_cfg(mode=mode, eos_token=eos))

    def test_accepts_the_largest_token_as_eos(self):
        tokens = run_episode(MODEL, small_cfg(eos_token=7)).tokens
        assert tokens[-1] == 7 and 7 not in tokens[:-1]

    def test_eos_inside_speculative_round_truncates_commit(self):
        free = run_episode(MODEL, small_cfg(temperature=1.0))
        eos = free.tokens[7]
        stopped = run_episode(MODEL, small_cfg(temperature=1.0, eos_token=int(eos)))
        assert stopped.tokens == free.tokens[: list(free.tokens).index(eos) + 1]

    def test_max_rounds_and_trace(self):
        cfg = small_cfg(max_rounds=3, collect_trace=True)
        result = run_episode(MODEL, cfg)
        assert result.stats.rounds == 3
        assert len(result.trace) == 3
        for i, record in enumerate(result.trace):
            assert record["round_index"] == i
            assert record["budget"] == cfg.budget
            assert record["tree_size"] >= 1
            assert record["kept_indices"][0] == 0


class TestChainDrafting:
    """A chain draws its first chunk's rows, and the rest only when a walk reads past them."""

    def test_a_sampled_chain_row_drafts_fewer_rows_than_its_blocks(self, monkeypatch):
        steps = counting_dp_steps(monkeypatch)
        model = random_model(13, vocab_size=32, order=2, concentration=0.1)
        cfg = EpisodeConfig(seed=5, max_new_tokens=64, temperature=1.0, mode="chain")
        run_episodes(model, cfg, episodes=4)
        drafted = len(steps)
        events = chain_rule_events(model, slice_configs(cfg, range(4)))
        windows = {event[0] for event in events}
        # The rule's events account for every row drawn: a draft ends at its last build.
        assert drafted == sum(event[-1] for event in events)
        assert drafted < len(windows) * cfg.block_len

    def test_a_greedy_chain_on_a_one_hot_target_draws_each_block_once(self, monkeypatch):
        steps = counting_dp_steps(monkeypatch)
        counts = CountingDrafts(monkeypatch)
        model = deterministic_model(3, vocab_size=8, order=2)
        cfg = small_cfg(mode="chain", block_len=16, max_new_tokens=96)
        stats = run_episodes(model, cfg, episodes=4)
        windows = [event[0] for event in counts.events]
        # Every walk accepts the whole block, so the first round to meet a
        # window draws each of its chunks, and no later round draws again.
        # A chain's first chunk is the order's rows: 2, 4, 8, 16.
        edges = chunk_edges(model.order, cfg.block_len)
        assert edges == [2, 4, 8, 16]
        assert counts.events == [(w, *(x for e in edges for x in ("chain", e))) for w in windows]
        assert counts.first_rows == [model.order] * len(windows)
        assert len(set(windows)) == len(windows) < stats.rounds
        assert len(steps) == len(windows) * cfg.block_len
        assert stats.tau_histogram[-1] == stats.rounds - 4  # all but each episode's tail

    @pytest.mark.parametrize("block_len", [3, 6, 16])
    def test_a_greedy_chain_row_never_drafts_a_window_again(self, monkeypatch, block_len):
        # Under greedy decoding a window's walk is fixed, so the first round
        # to meet it draws every row a later round reads.
        counts = CountingDrafts(monkeypatch)
        for seed in range(3):
            counts.clear()
            cfg = small_cfg(mode="chain", block_len=block_len, seed=seed)
            stats = run_episodes(MODEL, cfg, episodes=4)
            windows = [event[0] for event in counts.events]
            assert len(set(windows)) == len(windows) < stats.rounds

    @pytest.mark.parametrize("temperature", [0.0, 0.7, 1.0])
    @pytest.mark.parametrize("block_len", [3, 6, 16])
    def test_a_chain_row_draws_by_the_rule(self, monkeypatch, block_len, temperature):
        # Below, inside and on the chunk edges; no round drafts a whole block.
        def refuse(*args):
            raise AssertionError("a chain round drafted a whole block")

        monkeypatch.setattr(engine, "drafter_marginals", refuse)
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(mode="chain", block_len=block_len, temperature=temperature)
        run_episodes(MODEL, cfg, episodes=4)
        assert counts.events == chain_rule_events(MODEL, slice_configs(cfg, range(4)))

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_every_chain_round_reports_its_whole_block(self, temperature):
        cfg = small_cfg(mode="chain", temperature=temperature, collect_trace=True)
        with sweep_scope(MODEL) as store:
            results = [run_episode(MODEL, replace(cfg, seed=seed)) for seed in range(4)]
        trace = [record for result in results for record in result.trace]
        # A path still at its first chunk's rows (the order's): every round
        # that met its window stopped inside them and drew no further.
        assert MODEL.order in {len(path) for path in store.drafts.values()}
        assert {(r["budget"], r["tree_size"]) for r in trace} == {(cfg.block_len, cfg.block_len)}


class TestBudgetMonotonicity:
    def test_per_round_acceptance_nests_on_replayed_states(self):
        # Replay recorded round states: with equal K (= V), the smaller
        # budget's tree nests inside the larger one, so its walk cannot go
        # deeper. Both trees are walked against the same frozen continuation.
        cfg = small_cfg(seed=3, budget=8, temperature=0.0, collect_trace=True)
        result = run_episode(MODEL, cfg)
        prompt = make_prompt(MODEL, cfg.seed, cfg.prompt_len)
        drafter_cfg = DrafterConfig(noise=cfg.drafter_noise, block_len=cfg.block_len)
        position = 1
        for record in result.trace:
            committed = result.tokens[:position]
            context, bonus = committed[:-1], committed[-1]
            block = drafter_marginals(MODEL, prompt + context, bonus, drafter_cfg)
            small = build_tree(block, 8)
            large = build_tree(block, 32)
            assert set(node_prefixes(small)) <= set(node_prefixes(large))
            rollout = []
            while len(rollout) <= cfg.block_len:
                rollout.append(decode_next(MODEL, prompt + committed + tuple(rollout), 0.0, None))
            alphas = {
                name: verifier_walk(flatten(tree, bonus), rollout.__getitem__).acceptance_length
                for name, tree in (("small", small), ("large", large))
            }
            assert alphas["small"] <= alphas["large"]
            advance = min(
                record["acceptance_length"] + 1,
                cfg.max_new_tokens - (position - 1),
            )
            position += advance

    def test_sweep_mean_tau_nondecreasing_on_seeded_config(self):
        rows = budget_sweep(MODEL, small_cfg(), [4, 8, 16, 32], episodes=4)
        taus = [r.stats.mean_tau for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(taus, taus[1:]))


class TestRunEpisodes:
    def test_pooled_stats(self):
        agg = run_episodes(MODEL, small_cfg(), episodes=3)
        assert agg.episodes == 3
        assert agg.mean_tau == agg.committed_tokens / agg.rounds
        assert sum(agg.tau_histogram) == agg.rounds

    def test_episode_seeds_differ_but_derive_deterministically(self):
        assert episode_seed(5, 0) != episode_seed(5, 1)
        assert episode_seed(5, 1) == episode_seed(5, 1)

    def test_uniform_drafter_accepts_rarely(self):
        # With B = 16 of 64 tokens covered at depth 1 the walk matches ~25%
        # of first steps; mean_tau stays near its floor of 1.
        model = random_model(2, vocab_size=64, order=1)
        cfg = small_cfg(drafter_noise=1.0, budget=16, temperature=1.0)
        agg = run_episodes(model, cfg, episodes=3)
        assert 1.0 <= agg.mean_tau < 1.6

    def test_better_drafter_never_hurts_on_seeded_runs(self):
        # Regression check, not a theorem: exact-marginal drafter vs uniform
        # drafter on the same seeds and budgets.
        exact = run_episodes(MODEL, small_cfg(drafter_noise=0.0), episodes=4)
        uniform = run_episodes(MODEL, small_cfg(drafter_noise=1.0), episodes=4)
        assert exact.mean_tau >= uniform.mean_tau

    def test_accepts_numpy_integer_counts(self):
        counts = np.int64(3), np.int64(2)
        assert run_episodes(MODEL, small_cfg(), *counts) == run_episodes(MODEL, small_cfg(), 3, 1)

    def test_budget_sweep_validates_inputs(self):
        with pytest.raises(ValueError):
            budget_sweep(MODEL, small_cfg(), [], episodes=1)
        with pytest.raises(ValueError):
            budget_sweep(MODEL, small_cfg(), [32, 16], episodes=1)
        single = budget_sweep(MODEL, small_cfg(), [8], episodes=1)
        assert len(single) == 1 and single[0].budget == 8
        numpy_budgets = [np.int64(4), np.int64(8)]
        assert budget_sweep(MODEL, small_cfg(), numpy_budgets) == budget_sweep(
            MODEL, small_cfg(), [4, 8]
        )


def independent_episodes(cfg, episodes):
    """Each episode of a run_episodes call, run on its own outside any cache scope."""
    return [
        run_episode(MODEL, replace(cfg, seed=episode_seed(cfg.seed, i)))
        for i in range(episodes)
    ]


class CountingDrafts:
    """Records every draft: its window, then what consumed its rows.

    An event is ``(window, kind, size, ...)`` with one (kind, size) pair per
    read: the budget of a tree build, or the rows a chain has drawn from
    this draft once a round draws its next chunk. A chain round draws from
    row 0 of a draft it opens, one chunk per pair, until its walk stops
    inside the rows drawn. ``drawn[i]`` is the rows draft ``i`` yielded,
    whoever read them, and ``first_rows[i]`` the size of its first chunk.
    """

    def __init__(self, monkeypatch):
        self.events, self.drawn, self.first_rows = [], [], []
        real_chunks, real_build, real_path = (
            engine.drafter_chunks, engine.build_tree, engine.argmax_path,
        )

        def counted(index, chunks):
            for chunk in chunks:
                self.drawn[index] += chunk.block_len
                yield chunk

        def draft_chunks(model, context, bonus, cfg, first_rows=FIRST_CHUNK_ROWS):
            self.events.append(((tuple(context) + (bonus,))[-model.order:],))
            self.drawn.append(0)
            self.first_rows.append(first_rows)
            chunks = real_chunks(model, context, bonus, cfg, first_rows)
            return counted(len(self.drawn) - 1, chunks)

        def build(block, budget):
            self.events[-1] += ("tree", budget)
            return real_build(block, budget)

        def path(block):  # every chain draw: the draft's next chunk
            drawn = self.events[-1][-1] if len(self.events[-1]) > 1 else 0
            self.events[-1] += ("chain", drawn + block.block_len)
            return real_path(block)

        monkeypatch.setattr(engine, "drafter_chunks", draft_chunks)
        monkeypatch.setattr(engine, "build_tree", build)
        monkeypatch.setattr(engine, "argmax_path", path)

    def clear(self):
        for records in (self.events, self.drawn, self.first_rows):
            records.clear()

    def builds(self, kind):
        return [
            (event[0], size)
            for event in self.events
            for k, size in zip(event[1::2], event[2::2])
            if k == kind
        ]

    def tree_rows(self):
        """Per window, the most rows any tree build drew for it."""
        held = {}
        for event, drawn in zip(self.events, self.drawn):
            if event[1:2] == ("tree",):
                held[event[0]] = max(drawn, held.get(event[0], 0))
        return held


def chunk_edges(first, block_len):
    """Rows drawn after each chunk of a draft whose first chunk holds ``first`` rows."""
    edges = [min(first, block_len)]
    while edges[-1] < block_len:
        edges.append(min(2 * edges[-1], block_len))
    return edges


def chain_rule_events(model, configs, held=None):
    """The ``CountingDrafts`` events of chain episodes ``configs`` run in order in one scope.

    The rule: a round whose walk accepts every token of its window's stored
    path (an empty one when none is stored) opens a draft and draws its
    chunks from row 0, the first of ``model.order`` rows and each later one
    doubling the rows drawn, until the path is longer than the walk's
    acceptance, or is the whole block; the path drawn replaces the stored
    one. ``held`` maps a window to the rows of the path stored before the
    configs run (a tree's, in a shared scope). Windows and acceptance
    lengths come from ``reference_episode``, which keeps no store; no
    config may set an ``eos_token``.
    """
    block_len = configs[0].block_len
    edges = chunk_edges(model.order, block_len)  # order, 2 order, 4 order, ...
    held, events = dict(held or {}), []
    for cfg in configs:
        result = reference_episode(model, replace(cfg, collect_trace=True))
        seq = make_prompt(model, cfg.seed, cfg.prompt_len) + result.tokens
        n = cfg.prompt_len + 1
        for record in result.trace:
            window = seq[max(0, n - model.order):n]
            a = record["acceptance_length"]
            if a >= held.get(window, 0) < cfg.block_len:
                events.append((window,))
                for edge in edges:
                    events[-1] += ("chain", edge)
                    if edge > a:
                        break
                held[window] = events[-1][-1]
            n += a + 1
    return events


def slice_configs(cfg, indices):
    """The configs of episodes ``indices`` of a ``run_episodes`` row of ``cfg``."""
    return [replace(cfg, seed=episode_seed(cfg.seed, i)) for i in indices]


class TestDraftCache:
    SPLITS = [(1, 3), (2, 5), (4, 2)]  # (workers, episodes); workers is checked, then unused

    @pytest.mark.parametrize("workers,episodes", SPLITS)
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("mode", ["tree", "chain", "baseline"])
    def test_stats_equal_independent_episodes(self, mode, temperature, workers, episodes):
        cfg = small_cfg(mode=mode, temperature=temperature)
        alone = [r.stats for r in independent_episodes(cfg, episodes)]
        agg = run_episodes(MODEL, cfg, episodes, workers)
        assert agg.episodes == episodes
        assert agg.rounds == sum(s.rounds for s in alone)
        assert agg.committed_tokens == sum(s.committed_tokens for s in alone)
        assert agg.tau_histogram == tuple(map(sum, zip(*(s.tau_histogram for s in alone))))
        assert agg.mean_tau == agg.committed_tokens / agg.rounds
        budget = {"tree": cfg.budget, "chain": cfg.block_len, "baseline": 0}[mode]
        assert agg.budget == budget
        if mode == "baseline":
            assert agg.est_speedup == 1.0
        else:
            assert agg.est_speedup == estimate_speedup(agg.mean_tau, budget)

    @pytest.mark.parametrize("workers,episodes", SPLITS)
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("mode", ["tree", "chain", "baseline"])
    def test_token_streams_equal_independent_episodes(
        self, monkeypatch, mode, temperature, workers, episodes
    ):
        cfg = small_cfg(mode=mode, temperature=temperature)
        alone = independent_episodes(cfg, episodes)
        recorded = []
        real = engine.run_episode

        def recording(model, c):
            result = real(model, c)
            recorded.append(result)
            return result

        monkeypatch.setattr(engine, "run_episode", recording)
        run_episodes(MODEL, cfg, episodes, workers)
        assert [r.tokens for r in recorded] == [r.tokens for r in alone]
        assert [r.stats for r in recorded] == [r.stats for r in alone]
        configs = slice_configs(cfg, range(episodes))
        assert recorded == [reference_episode(MODEL, c) for c in configs]

    @pytest.mark.parametrize("mode", ["tree", "chain"])
    def test_one_draft_per_window_and_no_state_between_calls(self, monkeypatch, mode):
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(mode=mode, temperature=1.0)
        first = run_episodes(MODEL, cfg, episodes=5)
        events = list(counts.events)
        windows = {event[0] for event in events}
        assert len(windows) < first.rounds  # windows did repeat
        if mode == "tree":
            assert events == [(window, "tree", cfg.budget) for window, *_ in events]
            assert len(events) == len(windows)
        else:
            # Each draft draws from row 0, and a window's later draft reads
            # past every row its earlier ones drew.
            assert events == chain_rule_events(MODEL, slice_configs(cfg, range(5)))
            assert {e[1:3] for e in events} == {("chain", MODEL.order)}
            for window in windows:
                ends = [e[-1] for e in events if e[0] == window]
                assert ends == sorted(set(ends))
        first_rows = MODEL.order if mode == "chain" else FIRST_CHUNK_ROWS
        assert counts.first_rows == [first_rows] * len(events)
        counts.clear()
        assert run_episodes(MODEL, cfg, episodes=5) == first
        assert counts.events == events

    BUDGETS = [3, 8, 16, 40]

    def scoped_rows(self, cfg, episodes=4):
        with sweep_scope(MODEL):
            rows = [r.stats for r in budget_sweep(MODEL, cfg, self.BUDGETS, episodes)]
            for mode in ("chain", "baseline"):
                rows.append(run_episodes(MODEL, replace(cfg, mode=mode), episodes))
        return rows

    def largest_unscoped_budgets(self, counts, cfg, episodes=4):
        """Per window, the largest budget among the unscoped tree rows that draft it."""
        counts.clear()
        for budget in self.BUDGETS:
            run_episodes(MODEL, replace(cfg, budget=budget), episodes)
        largest = {}
        for window, budget in counts.builds("tree"):
            largest[window] = max(budget, largest.get(window, 0))
        return largest

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_a_sweep_stores_only_child_tables(self, temperature):
        # The walk reads only the child table: no stored tree holds token
        # ids, parents, depths or a mask, which derive from it on read. A
        # chain stores its path's tokens, over the rows a tree or a chain
        # drew, and the baseline stores nothing.
        cfg = small_cfg(temperature=temperature)
        with sweep_scope(MODEL) as store:
            self.scoped_rows(cfg)
        assert {key[1] for key in store.drafts} == {"tree", "chain"}
        ends = {*chunk_edges(MODEL.order, cfg.block_len),
                *chunk_edges(FIRST_CHUNK_ROWS, cfg.block_len)}
        assert ends == {2, 4, 6}
        drafter_cfg = DrafterConfig(cfg.drafter_noise, cfg.block_len)
        for key, entry in store.drafts.items():
            if key[1] == "tree":
                # The tree, and each prefix view walked, keyed by its budget.
                built_at, flat, views = entry
                assert vars(flat).keys() == {"bonus", "child_table", "size"}
                assert views and max(views) <= built_at
                for budget, view in views.items():
                    assert vars(view).keys() == {"bonus", "child_table", "size"}
                    assert view.child_table is flat.child_table
                    assert len(view) == min(budget + 1, len(flat))
            else:
                assert len(entry) in ends
                assert all(type(token) is int for token in entry)
                block = drafter_marginals(MODEL, key[0][:-1], key[0][-1], drafter_cfg)
                assert entry == argmax_path(block)[:len(entry)]

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_a_scope_s_store_is_freed_on_exit_without_the_cycle_collector(self, temperature):
        # Nothing the store holds refers back to it or to a flat: plain
        # reference counting frees every flat, view and the store itself.
        def stored():
            with sweep_scope(MODEL) as store:
                self.scoped_rows(small_cfg(temperature=temperature), episodes=3)
            flats = [flat for key, entry in store.drafts.items() if key[1] == "tree"
                     for flat in (entry[1], *entry[2].values())]
            assert len(flats) > len(store.drafts) // 2
            return [weakref.ref(obj) for obj in (store, *flats)]

        enabled = gc.isenabled()
        gc.disable()
        try:
            refs = stored()
            assert [ref for ref in refs if ref() is not None] == []
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_a_sweep_drafts_and_builds_each_window_once(self, monkeypatch, temperature):
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(temperature=temperature)
        rows = budget_sweep(MODEL, cfg, self.BUDGETS, episodes=4)
        trees = counts.builds("tree")
        assert trees
        assert len(counts.events) == len(trees)  # every draft fed one build
        assert len({w for w, _ in trees}) == len(trees)  # one per distinct window
        assert len(trees) < sum(r.stats.rounds for r in rows)
        assert dict(trees) == self.largest_unscoped_budgets(counts, cfg)
        # Rows share the drafts: unscoped rows draft their windows again.
        assert len(counts.builds("tree")) > len(trees)

    def test_a_scope_with_every_mode_drafts_each_window_once_per_mode(self, monkeypatch):
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(temperature=1.0)
        self.scoped_rows(cfg)
        trees = counts.builds("tree")
        chains = [event for event in counts.events if event[1] == "chain"]
        assert trees
        assert len(counts.events) == len(trees) + len(chains)
        assert len({w for w, _ in trees}) == len(trees)
        # The chain row drafted under the shared scope, by the chain's rule.
        # This config takes every case of it: a draft that stops at its
        # first chunk, one that draws the next, and a window drafted again.
        chain_row = slice_configs(replace(cfg, mode="chain"), range(4))
        held = counts.tree_rows()
        assert chains == chain_rule_events(MODEL, chain_row, held)
        # Here every chain draft reads past a tree's 4 rows: it draws 2, 4
        # and the whole block, so no window is drafted twice, and the chain
        # drafts fewer windows than it does in a scope of its own.
        assert {e[1:] for e in chains} == {("chain", 2, "chain", 4, "chain", 6)}
        assert all(held[e[0]] == 4 for e in chains)
        assert len({e[0] for e in chains}) == len(chains) < len(chain_rule_events(MODEL, chain_row))
        assert dict(trees) == self.largest_unscoped_budgets(counts, cfg)

    @pytest.mark.parametrize("block_len", [6, 16])
    @pytest.mark.parametrize("temperature", [0.0, 0.7, 1.0])
    def test_the_chain_reads_the_rows_the_trees_drew(self, monkeypatch, temperature, block_len):
        # cmd_sweep's order in one scope: the tree rows, largest budget
        # first, then the chain and the baseline.
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(temperature=temperature, block_len=block_len)
        with sweep_scope(MODEL) as store:
            budget_sweep(MODEL, cfg, self.BUDGETS, 4)
            trees, held = len(counts.events), counts.tree_rows()
            for mode in ("chain", "baseline"):
                run_episodes(MODEL, replace(cfg, mode=mode), 4)
        chains = counts.events[trees:]
        chain_row = slice_configs(replace(cfg, mode="chain"), range(4))
        # A chain drafts only past the rows a tree drew, from row 0, in
        # chunks of the order's rows and then doubling.
        assert chains == chain_rule_events(MODEL, chain_row, held)
        assert counts.first_rows == [FIRST_CHUNK_ROWS] * trees + [MODEL.order] * len(chains)
        own = chain_rule_events(MODEL, chain_row)
        assert sum(map(len, chains)) < sum(map(len, own))
        # Every stored path is the argmax path of the deepest rows drawn
        # for its window, by a tree or by the chain.
        drafter_cfg = DrafterConfig(cfg.drafter_noise, cfg.block_len)
        drawn = dict(held)
        for event in chains:
            drawn[event[0]] = max(event[-1], drawn.get(event[0], 0))
        paths = {key[0]: path for key, path in store.drafts.items() if key[1] == "chain"}
        assert {w: len(path) for w, path in paths.items()} == drawn
        for window, path in paths.items():
            block = drafter_marginals(MODEL, window[:-1], window[-1], drafter_cfg)
            assert path == argmax_path(block)[:len(path)]

    def test_consecutive_sweeps_share_no_state(self, monkeypatch):
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(temperature=1.0)
        first = self.scoped_rows(cfg)
        first_events = list(counts.events)
        counts.clear()
        assert self.scoped_rows(cfg) == first
        assert counts.events == first_events

    def test_a_scope_makes_each_prompt_once(self, monkeypatch):
        calls = []

        def counting(model, seed, prompt_len):
            calls.append(seed)
            return make_prompt(model, seed, prompt_len)

        monkeypatch.setattr(engine, "make_prompt", counting)
        cfg = small_cfg()
        with sweep_scope(MODEL):
            budget_sweep(MODEL, cfg, [8, 16], episodes=3)
            for mode in ("chain", "baseline"):
                run_episodes(MODEL, replace(cfg, mode=mode), 3)
        # Four rows of three episodes read three stored sequences.
        assert sorted(calls) == sorted(episode_seed(cfg.seed, i) for i in range(3))

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_a_scope_draws_each_uniform_block_and_decision_row_once(
        self, monkeypatch, temperature
    ):
        blocks, rows = [], []

        def counted_uniforms(seed, start, count):
            uniforms = position_uniforms(seed, start, count)
            blocks.append((seed, start, count, uniforms))
            return uniforms

        def counted_row(model, context):
            rows.append(context)
            return target_next(model, context)

        monkeypatch.setattr(engine, "position_uniforms", counted_uniforms)
        monkeypatch.setattr(engine, "target_next", counted_row)
        cfg = small_cfg(temperature=temperature, max_new_tokens=150)
        for _ in range(2):  # the second scope keeps nothing of the first
            blocks.clear()
            rows.clear()
            with sweep_scope(MODEL) as store:
                self.scoped_rows(cfg, episodes=3)
            assert sorted(rows) == sorted(context for _, context in store.rows)
            assert len(set(rows)) == len(rows) < 3 * (cfg.max_new_tokens + 1)
            for (t, context), row in store.rows.items():
                assert t == temperature and len(context) == MODEL.order
                fresh = _decision_row(MODEL, context, temperature)
                assert np.array_equal(row, fresh) and type(row) is type(fresh)
            if temperature == 0.0:
                assert blocks == [] and all(type(row) is int for row in store.rows.values())
                continue
            seeds = sorted(episode_seed(cfg.seed, i) for i in range(3))
            assert sorted(seed for seed, *_ in blocks) == seeds
            for (seed, prompt_len, _), seq in store.sequences.items():
                # One span decides the whole episode: its positions to the
                # last round's reach, end + block_len, in one draw.
                decided = len(seq) - prompt_len
                assert decided == cfg.max_new_tokens + 1 + cfg.block_len < engine.DECISION_SPAN
                drawn = [b for b in blocks if b[0] == seed]
                assert [b[1:3] for b in drawn] == [(0, decided)]
                assert drawn[0][3] == [_position_uniform(seed, p) for p in range(decided)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_scoped_rows_equal_unscoped_rows(self, temperature, workers):
        cfg = small_cfg(temperature=temperature)
        with sweep_scope(MODEL):
            rows = [r.stats for r in budget_sweep(MODEL, cfg, self.BUDGETS, 3, workers)]
            for mode in ("chain", "baseline"):
                rows.append(run_episodes(MODEL, replace(cfg, mode=mode), 3, workers))
        alone = [run_episodes(MODEL, replace(cfg, budget=b), 3) for b in self.BUDGETS]
        alone += [run_episodes(MODEL, replace(cfg, mode=m), 3) for m in ("chain", "baseline")]
        assert rows == alone

    def test_a_larger_budget_later_in_a_scope_rebuilds_its_trees(self):
        cfg = small_cfg(temperature=1.0)
        with sweep_scope(MODEL):
            small = run_episodes(MODEL, replace(cfg, budget=4), 3)
            large = run_episodes(MODEL, replace(cfg, budget=40), 3)
        assert small == run_episodes(MODEL, replace(cfg, budget=4), 3)
        assert large == run_episodes(MODEL, replace(cfg, budget=40), 3)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(engine.MODES), st.integers(1, 48), st.sampled_from([0.0, 1.0])
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_any_rows_in_a_scope_equal_the_rows_unscoped(self, rows):
        cfgs = [small_cfg(mode=m, budget=b, temperature=t) for m, b, t in rows]
        with pytest.MonkeyPatch.context() as patch:
            counts = CountingDrafts(patch)
            with sweep_scope(MODEL):
                scoped = [run_episodes(MODEL, cfg, 2) for cfg in cfgs]
            scoped_drafts = len(counts.events)
            counts.clear()
            assert scoped == [run_episodes(MODEL, cfg, 2) for cfg in cfgs]
            assert scoped_drafts <= len(counts.events)

    def test_the_scope_is_dropped_on_exit(self):
        with sweep_scope(MODEL) as store:
            assert engine._scope.get() is store
        assert engine._scope.get() is None
        with pytest.raises(ValueError, match="eos_token"):
            with sweep_scope(MODEL):
                run_episodes(MODEL, small_cfg(eos_token=MODEL.vocab_size), 4, 2)
        assert engine._scope.get() is None

    def test_a_scope_serves_one_model(self):
        other = random_model(22, vocab_size=8, order=2, concentration=0.3)
        with sweep_scope(MODEL):
            run_episodes(MODEL, small_cfg(), 2)
            with pytest.raises(ValueError, match="one model"):
                run_episodes(other, small_cfg(), 2)
            with pytest.raises(ValueError, match="one model"):
                budget_sweep(other, small_cfg(), [4, 8], 2)
            with pytest.raises(ValueError, match="one model"):
                with sweep_scope(other):
                    pass
