import contextvars
import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

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
    sweep_scope,
    _position_uniform,
)
from drafttree.models import (
    DrafterConfig,
    deterministic_model,
    drafter_marginals,
    random_model,
    target_next,
)
from drafttree.oracle import reference_episode
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
        try:
            model = random_model(seed, vocab_size=vocab, order=1, concentration=concentration)
        except ValueError as err:
            # At concentration 0.01 every non-pad draw of a row can underflow
            # to 0; random_model refuses that table, so there is nothing to sample.
            assert "without positive finite mass" in str(err)
            reject()
        context = (1 + seed % (vocab - 1),)
        assert decode_next(model, context, temperature, u) != 0

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
        walks = []
        real = engine.verifier_walk

        def counting(flat, decode):
            walks.append(len(flat) - 1)
            return real(flat, decode)

        monkeypatch.setattr(engine, "verifier_walk", counting)
        result = run_episode(MODEL, small_cfg(mode=mode, collect_trace=True))
        assert len(walks) == result.stats.rounds
        assert walks == [r["tree_size"] for r in result.trace]
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

    def test_accepts_numpy_integer_counts(self, monkeypatch):
        monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
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
    """Records every drafted window with the builder that consumed its block."""

    def __init__(self, monkeypatch):
        self.events = []
        real_draft, real_chunks, real_build, real_chain = (
            engine.drafter_marginals, engine.drafter_chunks, engine.build_tree, engine.chain_tree,
        )

        def draft(model, context, bonus, cfg):
            self.events.append(((tuple(context) + (bonus,))[-model.order:],))
            return real_draft(model, context, bonus, cfg)

        def draft_chunks(model, context, bonus, cfg):  # the tree's drafter
            self.events.append(((tuple(context) + (bonus,))[-model.order:],))
            return real_chunks(model, context, bonus, cfg)

        def build(block, budget):
            self.events[-1] += ("tree", budget)
            return real_build(block, budget)

        def chain(block):
            self.events[-1] += ("chain", block.block_len)
            return real_chain(block)

        monkeypatch.setattr(engine, "drafter_marginals", draft)
        monkeypatch.setattr(engine, "drafter_chunks", draft_chunks)
        monkeypatch.setattr(engine, "build_tree", build)
        monkeypatch.setattr(engine, "chain_tree", chain)

    def builds(self, kind):
        return [(window, size) for window, k, size in self.events if k == kind]


class InlinePool:
    """A ProcessPoolExecutor stand-in that runs its tasks in this process.

    Like one worker process, it runs the initializer and then every task in a
    context of its own, so tasks see the worker's store, not the caller's. A
    task runs when its result is first read, so episodes run in the order the
    caller reads them; ``submitted`` keeps each task's arguments.
    """

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.context = contextvars.copy_context()
        self.is_shut_down = False
        self.submitted = []
        if initializer is not None:
            self.context.run(initializer, *initargs)

    def submit(self, fn, *args):
        self.submitted.append(args)
        return SimpleNamespace(result=functools.cache(lambda: self.context.run(fn, *args)))

    def store(self):
        return self.context.run(engine._scope.get)

    def shutdown(self):
        self.is_shut_down = True


def recording_pools(monkeypatch):
    """Make every pool the engine starts an InlinePool; return the list of them."""
    pools = []

    def recording(*args, **kwargs):
        pools.append(InlinePool(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(engine, "ProcessPoolExecutor", recording)
    return pools


def slice_configs(cfg, indices):
    """The configs of episodes ``indices`` of a ``run_episodes`` row of ``cfg``."""
    return [replace(cfg, seed=episode_seed(cfg.seed, i)) for i in indices]


def built_budgets(store):
    return {key: built for key, (built, _) in store.drafts.items()}


def drafts_of_slice(rows, indices):
    """What a fresh store holds after episodes ``indices`` of each row, rows in order."""
    with sweep_scope(MODEL) as store:
        for cfg in rows:
            engine._episode_stats_task(slice_configs(cfg, indices))
    return built_budgets(store)


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
        configs = slice_configs(cfg, range(episodes))
        assert recorded == [reference_episode(MODEL, c) for c in configs]

    @pytest.mark.parametrize("mode", ["tree", "chain"])
    def test_one_draft_per_window_and_no_state_between_calls(self, monkeypatch, mode):
        windows = []
        drafter = "drafter_chunks" if mode == "tree" else "drafter_marginals"
        real = getattr(engine, drafter)

        def counting(model, context, bonus, cfg):
            windows.append((tuple(context) + (bonus,))[-model.order:])
            return real(model, context, bonus, cfg)

        monkeypatch.setattr(engine, drafter, counting)
        cfg = small_cfg(mode=mode, temperature=1.0)
        first = run_episodes(MODEL, cfg, episodes=5)
        first_calls = len(windows)
        assert first_calls
        assert first_calls == len(set(windows))
        assert first_calls < first.rounds  # windows did repeat
        windows.clear()
        assert run_episodes(MODEL, cfg, episodes=5) == first
        assert len(windows) == first_calls

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
        trees, chains = counts.builds("tree"), counts.builds("chain")
        assert trees
        assert len(counts.events) == len(trees) + len(chains)
        assert len({w for w, _ in trees}) == len(trees)
        assert len({w for w, _ in chains}) == len(chains)
        assert chains  # the chain row drafted under the shared scope
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

    def test_the_scope_shuts_its_pool_down_on_exit(self, monkeypatch):
        pools = recording_pools(monkeypatch)
        rows = [small_cfg(), small_cfg(mode="chain")]
        with sweep_scope(MODEL) as store:
            for cfg in rows:
                run_episodes(MODEL, cfg, 4, 2)
            assert len(pools) == 1 and not pools[0].is_shut_down
        # The caller drafted episodes 0-1 only; the helper drafted 2-3 into its own store.
        assert built_budgets(store) == drafts_of_slice(rows, range(0, 2))
        assert pools[0].is_shut_down
        pools.clear()
        with pytest.raises(ValueError, match="eos_token"):
            with sweep_scope(MODEL):
                run_episodes(MODEL, small_cfg(eos_token=MODEL.vocab_size), 4, 2)
        assert len(pools) == 1 and pools[0].is_shut_down

    def test_each_process_keeps_its_slice_in_every_row(self, monkeypatch):
        pools = recording_pools(monkeypatch)
        cfg = small_cfg(temperature=1.0)
        budgets = [4, 8, 16]
        # budget_sweep runs largest budget first; the chain row follows.
        rows = [replace(cfg, budget=b) for b in reversed(budgets)] + [replace(cfg, mode="chain")]
        slices = [range(0, 2), range(2, 4), range(4, 5)]  # 5 episodes over 3 workers
        with sweep_scope(MODEL) as store:
            budget_sweep(MODEL, cfg, budgets, 5, 3)
            run_episodes(MODEL, rows[-1], 5, 3)
            helper_drafts = [built_budgets(pool.store()) for pool in pools]
        assert [pool.max_workers for pool in pools] == [1, 1]
        for pool, indices in zip(pools, slices[1:]):
            assert pool.submitted == [(slice_configs(row, indices),) for row in rows]
        assert built_budgets(store) == drafts_of_slice(rows, slices[0])
        assert helper_drafts == [drafts_of_slice(rows, indices) for indices in slices[1:]]

    def test_a_row_starts_only_the_helpers_it_lacks(self, monkeypatch):
        pools = recording_pools(monkeypatch)
        with sweep_scope(MODEL):
            for workers, started in [(2, 1), (3, 2), (2, 2)]:
                run_episodes(MODEL, small_cfg(), 4, workers)
                assert len(pools) == started
        assert [len(pool.submitted) for pool in pools] == [3, 1]
        assert all(pool.is_shut_down for pool in pools)

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
