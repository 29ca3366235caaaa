import math
from dataclasses import replace

import numpy as np
import pytest

import drafttree.engine as engine
from drafttree.engine import (
    CostModel,
    EpisodeConfig,
    NonPositiveCost,
    budget_sweep,
    decode_next,
    episode_seed,
    estimate_speedup,
    make_prompt,
    run_episode,
    run_episodes,
    _position_uniform,
)
from drafttree.models import (
    DrafterConfig,
    deterministic_model,
    drafter_marginals,
    random_model,
    target_next,
)
from drafttree.treebuild import build_tree, node_prefixes
from drafttree.verify import flatten, verifier_walk


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
        assert small_cfg(max_rounds=0).max_rounds == 0  # trace --rounds 0

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["temperature", "drafter_noise"])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            small_cfg(**{field: value})

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
        for seed in (1, 5, 9):
            spec = run_episode(
                MODEL, small_cfg(seed=seed, mode=mode, temperature=temperature)
            )
            base = run_episode(
                MODEL, small_cfg(seed=seed, mode="baseline", temperature=temperature)
            )
            assert spec.tokens == base.tokens

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
        walks = []
        real = engine.verifier_walk

        def counting(flat, decode):
            walks.append(len(flat) - 1)
            return real(flat, decode)

        monkeypatch.setattr(engine, "verifier_walk", counting)
        result = run_episode(MODEL, small_cfg(mode=mode, collect_trace=True))
        assert len(walks) == result.stats.rounds
        assert walks == [r["tree_size"] for r in result.trace]

    @pytest.mark.parametrize("mode", ["tree", "chain", "baseline"])
    def test_histogram_consistency(self, mode):
        stats = run_episode(MODEL, small_cfg(mode=mode, temperature=1.0)).stats
        assert sum(stats.tau_histogram) == stats.rounds
        weighted = sum((k + 1) * c for k, c in enumerate(stats.tau_histogram))
        assert weighted == stats.committed_tokens
        assert stats.mean_tau == stats.committed_tokens / stats.rounds
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
            alphas = {}
            for name, tree in (("small", small), ("large", large)):
                flat = flatten(tree, bonus)

                def decode(path):
                    return decode_next(MODEL, prompt + committed + path, 0.0, None)

                alphas[name] = verifier_walk(flat, decode).acceptance_length
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

    def test_parallel_matches_serial(self):
        serial = run_episodes(MODEL, small_cfg(), episodes=4, workers=1)
        parallel = run_episodes(MODEL, small_cfg(), episodes=4, workers=2)
        assert serial == parallel

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

    def test_budget_sweep_validates_inputs(self):
        with pytest.raises(ValueError):
            budget_sweep(MODEL, small_cfg(), [], episodes=1)
        with pytest.raises(ValueError):
            budget_sweep(MODEL, small_cfg(), [32, 16], episodes=1)
        single = budget_sweep(MODEL, small_cfg(), [8], episodes=1)
        assert len(single) == 1 and single[0].budget == 8


def independent_episodes(cfg, episodes):
    """Each episode of a run_episodes call, run on its own outside any cache scope."""
    return [
        run_episode(MODEL, replace(cfg, seed=episode_seed(cfg.seed, i)))
        for i in range(episodes)
    ]


class InlinePool:
    """A ProcessPoolExecutor stand-in that runs its tasks in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


class TestDraftCache:
    SPLITS = [(1, 3), (2, 5), (4, 2)]  # (workers, episodes)

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
        # The pool runs inline so the episodes of every slice can be recorded.
        cfg = small_cfg(mode=mode, temperature=temperature)
        alone = independent_episodes(cfg, episodes)
        recorded = []
        real = engine.run_episode

        def recording(model, c):
            result = real(model, c)
            recorded.append(result)
            return result

        monkeypatch.setattr(engine, "run_episode", recording)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
        run_episodes(MODEL, cfg, episodes, workers)
        assert [r.tokens for r in recorded] == [r.tokens for r in alone]
        assert [r.stats for r in recorded] == [r.stats for r in alone]

    @pytest.mark.parametrize("mode", ["tree", "chain"])
    def test_one_draft_per_window_and_no_state_between_calls(self, monkeypatch, mode):
        windows = []
        real = engine.drafter_marginals

        def counting(model, context, bonus, cfg):
            windows.append((tuple(context) + (bonus,))[-model.order:])
            return real(model, context, bonus, cfg)

        monkeypatch.setattr(engine, "drafter_marginals", counting)
        cfg = small_cfg(mode=mode, temperature=1.0)
        first = run_episodes(MODEL, cfg, episodes=5)
        first_calls = len(windows)
        assert first_calls == len(set(windows))
        assert first_calls < first.rounds  # windows did repeat
        windows.clear()
        assert run_episodes(MODEL, cfg, episodes=5) == first
        assert len(windows) == first_calls
