"""The engine's episodes against the naive reference episode.

Every mode of the engine reads one target stream per episode, so comparing
modes with each other shows nothing; ``oracle.reference_episode`` redoes each
episode from the full history with no store, and the engine must equal it in
tokens, stats and trace.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drafttree.engine as engine
from drafttree.engine import (
    MODES,
    EpisodeConfig,
    budget_sweep,
    make_prompt,
    run_episode,
    run_episodes,
    sweep_scope,
)
from drafttree.models import random_model
from drafttree.oracle import reference_episode

TEMPERATURES = [0.0, 1e-3, 0.5, 1.0, 2.5]
TABLE_CAP = 2**16  # |V|^(order + 1) table entries: 100 examples stay near 2 s


@st.composite
def models(draw):
    order = draw(st.integers(1, 3))
    largest = max(v for v in range(2, 33) if v ** (order + 1) <= TABLE_CAP)
    vocab = draw(st.integers(2, largest))
    concentration = draw(st.sampled_from([0.1, 0.3, 1.0, 3.0]))
    return random_model(draw(st.integers(0, 2**32 - 1)), vocab, order, concentration)


def seeds():
    return st.integers(0, 2**32 - 1)


def prompt_lens():
    return st.integers(1, 8)


@st.composite
def configs(draw, vocab_size):
    return EpisodeConfig(
        seed=draw(seeds()),
        max_new_tokens=draw(st.integers(1, 24)),
        prompt_len=draw(prompt_lens()),
        temperature=draw(st.sampled_from(TEMPERATURES)),
        budget=draw(st.integers(1, 300)),
        block_len=draw(st.integers(1, 16)),
        mode=draw(st.sampled_from(MODES)),
        drafter_noise=draw(st.floats(0.0, 1.0)),
        eos_token=draw(st.none() | st.integers(1, vocab_size - 1)),
        max_rounds=draw(st.none() | st.integers(0, 5)),
        collect_trace=draw(st.booleans()),  # every sweep runs untraced
    )


@st.composite
def model_and_config(draw):
    model = draw(models())
    return model, draw(configs(model.vocab_size))


@st.composite
def model_and_rows(draw):
    """Rows of one model in sweep order: tree rows largest budget first, then chain, baseline.

    Two or more tree rows share one base config and differ only in budget, so
    a smaller row reads the drafts a larger one stored. The other rows, of
    any mode, change one of seed, prompt_len and temperature from the base,
    so they share a stream key with the base in all but that field.
    """
    model = draw(models())
    base = replace(draw(configs(model.vocab_size)), mode="tree")
    budgets = draw(st.lists(st.integers(1, 300), min_size=2, max_size=3, unique=True))
    rows = [replace(base, budget=b) for b in budgets]
    fields = {"seed": seeds(), "prompt_len": prompt_lens(),
              "temperature": st.sampled_from(TEMPERATURES)}
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from(sorted(fields)))
        rows.append(replace(
            base,
            mode=draw(st.sampled_from(MODES)),
            budget=draw(st.integers(1, 300)),
            **{field: draw(fields[field])},
        ))
    rows += [replace(base, mode="chain"), replace(base, mode="baseline")]
    rows.sort(key=lambda cfg: (MODES.index(cfg.mode), -cfg.budget))
    return model, rows


class TestReferenceEpisode:
    @settings(max_examples=100, deadline=None)
    @given(model_and_config())
    def test_engine_equals_reference(self, case):
        model, cfg = case
        assert run_episode(model, cfg) == reference_episode(model, cfg)

    @settings(max_examples=100, deadline=None)
    @given(model_and_rows())
    def test_rows_in_one_scope_equal_reference(self, case):
        # One store serves every row: stream keys and stored drafts are shared
        # wherever the rows' configs allow it, and must change nothing.
        model, rows = case
        with sweep_scope(model):
            results = [run_episode(model, cfg) for cfg in rows]
        assert results == [reference_episode(model, cfg) for cfg in rows]


GREEDY_MODEL = random_model(21, vocab_size=8, order=2, concentration=0.3)
GREEDY_BASE = EpisodeConfig(
    seed=7, max_new_tokens=48, prompt_len=6, budget=12, block_len=6, drafter_noise=0.25,
    collect_trace=True,
)


def greedy_scope(cfg, budgets=(4, 12, 40), episodes=3):
    """Every (config, result) of a T=0 budget sweep plus chain and baseline rows in one scope."""
    recorded = []
    real = engine.run_episode

    def recording(model, c):
        result = real(model, c)
        recorded.append((c, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "run_episode", recording)
        with sweep_scope(GREEDY_MODEL) as store:
            budget_sweep(GREEDY_MODEL, cfg, list(budgets), episodes)
            for mode in ("chain", "baseline"):
                run_episodes(GREEDY_MODEL, replace(cfg, mode=mode), episodes)
    return recorded, store


def repeated_rounds(recorded):
    """(tokens committed, tokens walked, EOS committed) of each round meeting an earlier pair.

    A pair is a round's (window, mode, budget), the memo's key at one block
    length and drafter noise.
    """
    seen, repeats = set(), []
    for cfg, result in recorded:
        seq = make_prompt(GREEDY_MODEL, cfg.seed, cfg.prompt_len) + result.tokens
        n = cfg.prompt_len + 1
        end = n + cfg.max_new_tokens
        for record in result.trace:
            pair = (seq[max(0, n - GREEDY_MODEL.order):n], cfg.mode, record["budget"])
            walked = record["acceptance_length"] + 1
            k = min(walked, end - n, len(seq) - n)
            if pair in seen:
                repeats.append((k, walked, cfg.eos_token in seq[n:n + k]))
            seen.add(pair)
            n += k
    return repeats


class TestGreedyRoundMemo:
    """At T=0 a scope plays each (window, mode, budget) once; every later round reuses that walk."""

    @pytest.mark.parametrize("overrides,cut", [
        ({}, None),
        ({"max_rounds": 3}, None),
        ({"eos_token": 4}, "eos"),  # an EOS inside a repeated round's walk
        ({"max_new_tokens": 14}, "budget"),  # the token budget cuts a repeated round
    ])
    def test_a_greedy_scope_equals_the_reference(self, overrides, cut):
        cfg = replace(GREEDY_BASE, **overrides)
        recorded, store = greedy_scope(cfg)
        assert len(recorded) == 3 * 5
        assert [result for _, result in recorded] == [
            reference_episode(GREEDY_MODEL, c) for c, _ in recorded]
        repeats = repeated_rounds(recorded)
        rounds = sum(result.stats.rounds for _, result in recorded)
        played = [memo for drafts in store.drafts.values() for memo in drafts.rounds.values()]
        assert sum(map(len, played)) == rounds - len(repeats) and repeats
        cut_short = [eos for k, walked, eos in repeats if k < walked]
        if cut == "eos":
            assert any(cut_short)
        elif cut == "budget":
            assert cut_short and not all(cut_short)
