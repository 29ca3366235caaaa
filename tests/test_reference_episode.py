"""The engine's episodes against the naive reference episode.

Every mode of the engine reads one target stream per episode, so comparing
modes with each other shows nothing; ``oracle.reference_episode`` redoes each
episode from the full history with no store, and the engine must equal it in
tokens, stats and trace.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from drafttree.engine import MODES, EpisodeConfig, run_episode, sweep_scope
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
        collect_trace=True,
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
