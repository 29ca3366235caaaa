import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drafttree.engine as engine
from drafttree.engine import (
    CostModel,
    EpisodeConfig,
    EpisodeStats,
    NonPositiveCost,
    budget_sweep,
    decode_next,
    episode_seed,
    estimate_speedup,
    make_prompt,
    run_episode,
    run_episodes,
    sweep_scope,
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
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_cfg(mode="warp")
        with pytest.raises(ValueError):
            small_cfg(max_new_tokens=0)
        with pytest.raises(ValueError):
            small_cfg(temperature=-0.5)
        with pytest.raises(ValueError):
            small_cfg(budget=0)
        with pytest.raises(ValueError):
            small_cfg(drafter_noise=1.5)
        with pytest.raises(ValueError):
            small_cfg(max_rounds=-2)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            small_cfg(seed=-1)  # numpy refused it mid-episode
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make_prompt(MODEL, -1, 8)
        assert small_cfg(max_rounds=0).max_rounds == 0  # trace --rounds 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["temperature", "drafter_noise"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("eos", [-1, 0])
    def test_rejects_an_eos_token_below_one(self, eos):
        # Token 0 is the context pad, which the target never emits.
        with pytest.raises(ValueError, match="eos_token"):
            small_cfg(eos_token=eos)

    COUNTS = ["seed", "max_new_tokens", "prompt_len", "budget", "block_len", "eos_token",
              "max_rounds"]

    @pytest.mark.parametrize("field", COUNTS)
    def test_rejects_non_integral_counts(self, field):
        # At 2.5 max_rounds ran 2 rounds, eos_token never matched, and the rest
        # raised TypeError mid-episode.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_cfg(**{field: 2.5})

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

    def test_nonpositive_costs_rejected(self):
        with pytest.raises(NonPositiveCost):
            CostModel(t_target=0.0)
        with pytest.raises(NonPositiveCost):
            CostModel(t_verify_base=-1.0)
        with pytest.raises(NonPositiveCost):
            CostModel(t_draft=-0.1)
        with pytest.raises(NonPositiveCost):
            CostModel(kappa=-0.002)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["t_target", "t_draft", "t_verify_base", "kappa"])
    def test_non_finite_costs_rejected(self, field, value):
        with pytest.raises(NonPositiveCost):
            CostModel(**{field: value})

    @pytest.mark.parametrize(
        "mean_tau,budget,message",
        [
            (math.nan, 4, "mean_tau must be finite"),  # returned NaN
            (-1.0, 4, "mean_tau must be >= 0"),
            (3.0, -5, "budget must be >= 0"),  # returned 2.75
            (3.0, 4.5, "budget must be an integer"),
        ],
    )
    def test_rejects_a_mean_tau_or_budget_out_of_range(self, mean_tau, budget, message):
        with pytest.raises(ValueError, match=message):
            estimate_speedup(mean_tau, budget)


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

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mode", "xx", "mode must be one of"),
            ("budget", -1, "budget must be >= 0"),
            ("episodes", -2, "episodes must be >= 1"),
            ("episodes", 1.5, "episodes must be an integer"),
            ("tau_histogram", (3, -1), "tau_histogram count must be >= 0"),
        ],
    )
    def test_rejects_values_out_of_range(self, field, value, message):
        # Unchecked, EpisodeStats("xx", -1, -2, (-1,)) constructed.
        fields = dict(mode="tree", budget=12, episodes=1, tau_histogram=(3, 1))
        with pytest.raises(ValueError, match=message):
            EpisodeStats(**{**fields, field: value})

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
    def test_every_round_walks_its_draft(self, monkeypatch, mode):
        cfg = small_cfg(mode=mode, collect_trace=True)
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
        assert len(walks) == result.stats.rounds == len(result.trace)
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
        assert counts.events == [(w, "chain", 4, "chain", 8, "chain", 16) for w in windows]
        assert len(set(windows)) == len(windows) < stats.rounds
        assert len(steps) == len(windows) * cfg.block_len
        assert stats.tau_histogram[-1] == stats.rounds - 4  # all but each episode's tail

    @pytest.mark.parametrize("block_len", [3, 6, 16])
    def test_a_greedy_chain_row_never_drafts_a_window_again(self, monkeypatch, block_len):
        # Under greedy decoding a window's walk is fixed, so the first round
        # to meet it draws every row a later round reads.
        counts = CountingDrafts(monkeypatch)
        for seed in range(3):
            counts.events.clear()
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
        # A path still at its first chunk's rows: every round that met its
        # window stopped inside them and drew no further.
        assert FIRST_CHUNK_ROWS in {len(path) for path in store.drafts.values()}
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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_episodes(MODEL, small_cfg(), episodes=2, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            budget_sweep(MODEL, small_cfg(), [4, 8], episodes=2, workers=workers)

    @pytest.mark.parametrize("episodes,workers", [(2.5, 1), (2, 2.0)])
    def test_rejects_non_integral_counts(self, episodes, workers):
        with pytest.raises(ValueError, match="must be an integer"):
            run_episodes(MODEL, small_cfg(), episodes, workers)

    def test_accepts_numpy_integer_counts(self):
        counts = np.int64(3), np.int64(2)
        assert run_episodes(MODEL, small_cfg(), *counts) == run_episodes(MODEL, small_cfg(), 3, 1)

    @pytest.mark.parametrize(
        "budgets", [[8.7], [4, 8.5], [float("nan")], [4, float("inf")], ["16"], [16.0]]
    )
    def test_budget_sweep_rejects_non_integral_budgets(self, budgets):
        with pytest.raises(ValueError, match="integers"):
            budget_sweep(MODEL, small_cfg(), budgets, episodes=1)

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
    inside the rows drawn.
    """

    def __init__(self, monkeypatch):
        self.events = []
        real_chunks, real_build, real_path = (
            engine.drafter_chunks, engine.build_tree, engine.argmax_path,
        )

        def draft_chunks(model, context, bonus, cfg):  # every tree and chain draft
            self.events.append(((tuple(context) + (bonus,))[-model.order:],))
            return real_chunks(model, context, bonus, cfg)

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

    def builds(self, kind):
        return [
            (event[0], size)
            for event in self.events
            for k, size in zip(event[1::2], event[2::2])
            if k == kind
        ]


def chain_rule_events(model, configs):
    """The ``CountingDrafts`` events of chain episodes ``configs`` run in order in one scope.

    The rule: a round whose walk accepts every token of its window's stored
    path (an empty one when none is stored) opens a draft and draws its
    chunks from row 0 until the path is longer than the walk's acceptance,
    or is the whole block; the path drawn replaces the stored one. Windows
    and acceptance lengths come from ``reference_episode``, which keeps no
    store; no config may set an ``eos_token``.
    """
    block_len = configs[0].block_len
    edges = [min(FIRST_CHUNK_ROWS, block_len)]  # rows drawn after each chunk: 4, 8, 16, ...
    while edges[-1] < block_len:
        edges.append(min(2 * edges[-1], block_len))
    held, events = {}, []
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
            assert {e[1:3] for e in events} == {("chain", FIRST_CHUNK_ROWS)}
            for window in windows:
                ends = [e[-1] for e in events if e[0] == window]
                assert ends == sorted(set(ends))
        counts.events.clear()
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
        counts.events.clear()
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
        # chain stores its path's tokens, and the baseline stores nothing.
        cfg = small_cfg(temperature=temperature)
        with sweep_scope(MODEL) as store:
            self.scoped_rows(cfg)
        assert {key[1] for key in store.drafts} == {"tree", "chain"}
        for key, entry in store.drafts.items():
            if key[1] == "tree":
                assert vars(entry[1]).keys() == {"bonus", "child_table", "size"}
            else:
                assert len(entry) in (FIRST_CHUNK_ROWS, cfg.block_len)
                assert all(type(token) is int for token in entry)

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
        assert chains == chain_rule_events(MODEL, chain_row)
        assert {len(e) for e in chains} == {3, 5}
        assert len({e[0] for e in chains}) < len(chains)
        assert dict(trees) == self.largest_unscoped_budgets(counts, cfg)

    def test_consecutive_sweeps_share_no_state(self, monkeypatch):
        counts = CountingDrafts(monkeypatch)
        cfg = small_cfg(temperature=1.0)
        first = self.scoped_rows(cfg)
        first_events = list(counts.events)
        counts.events.clear()
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
            counts.events.clear()
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
