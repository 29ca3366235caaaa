"""Every public parameter's legal range, written once, and the tests that drive it.

A ``Row`` calls one callable with one argument varied; its kind is the range.
Any other value, a bool included, raises the row's error naming the parameter,
and a bad CLI flag exits 2 naming it. A public parameter or flag with neither a
row nor an exemption fails a completeness test.
"""

import argparse
import inspect
import math
import numbers
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drafttree
from drafttree import (
    CostModel, DrafterConfig, EpisodeConfig, EpisodeStats, FlattenedTree, NgramModel,
    budget_sweep, build_tree, deterministic_model, drafter_marginals, estimate_speedup,
    exact_marginals, flatten, log_prefix_mass, optimal_tree_exhaustive, prefix_mass,
    random_model, random_valid_tree, run_episode, run_episodes, sample_continuations,
    target_next, top_k_per_depth, tree_from_prefixes, validate_block,
)
from drafttree.cli import build_parser, main, run_oracle_check
from drafttree.distributions import NODE_GUARD
from drafttree.engine import MODES, NonPositiveCost, make_prompt, position_uniforms
from drafttree.models import drafter_chunks

from blocks import EXAMPLE_ROWS


@dataclass(frozen=True)
class Row:
    owner: Callable  # the callable whose parameter this is
    param: str
    kind: str  # count (from low), node (1..NODE_GUARD), token (an id), real or choice (MODES)
    call: Callable  # the owner, called with ``param`` set to the one argument
    low: float | None = None
    high: float | None = None
    name: str | None = None  # the name the messages give, when not ``param``
    strict: bool = False  # ``low`` itself is out of range
    optional: bool = False  # None is legal
    error: type = ValueError
    above: str = "{name} must be <= {high}, got {value}"
    variant: str = ""  # tells apart two rows of one parameter

    def __repr__(self):
        return f"{self.owner.__qualname__}.{self.param}{self.variant}"


def row(kind, owner, param, call, *bounds, **kw):
    """A node count runs from 1 to ``NODE_GUARD``; a token id runs from 0 unless ``low`` says."""
    if kind == "node":
        bounds = (1, NODE_GUARD)
    if kind == "token":
        bounds, kw["name"] = (kw.pop("low", 0), *bounds), kw.get("name", "token id")
    return Row(owner, param, kind, call, *bounds, **kw)


count, node, token, real, choice = (partial(row, k) for k in "count node token real choice".split())


def config(kind, field, *bounds, **kw):
    return kind(EpisodeConfig, field, lambda v: replace(CFG, **{field: v}), *bounds, **kw)


EXAMPLE = validate_block(EXAMPLE_ROWS)  # |V| = 3
MODEL = random_model(0, 4, 2)  # |V| = 4; at order 2 a context token sits in the window
CFG = EpisodeConfig(seed=0, max_new_tokens=2, prompt_len=2, budget=4, block_len=2)
DRAFTER = DrafterConfig(0.3, 2)
TREE = build_tree(EXAMPLE, 4)
RNG = np.random.default_rng

ROWS = [
    token(prefix_mass, "prefix", lambda t: prefix_mass(EXAMPLE, (t,)), 2),
    token(log_prefix_mass, "prefix", lambda t: log_prefix_mass(EXAMPLE, (t,)), 2),
    count(sample_continuations, "count", lambda n: sample_continuations(EXAMPLE, n, RNG(0)), 0),
    count(top_k_per_depth, "budget", lambda n: top_k_per_depth(EXAMPLE, n), 1),
    node(build_tree, "budget", lambda n: build_tree(EXAMPLE, n)),
    token(tree_from_prefixes, "prefixes", lambda t: tree_from_prefixes(EXAMPLE, [(t,)]), 2),
    count(optimal_tree_exhaustive, "budget", lambda n: optimal_tree_exhaustive(EXAMPLE, n), 1),
    count(random_valid_tree, "budget", lambda n: random_valid_tree(EXAMPLE, n, RNG(0)), 1),
    token(flatten, "bonus", lambda t: flatten(TREE, t), None, name="bonus"),
    count(NgramModel, "order", lambda n: NgramModel(n, 2, [[0.5, 0.5]] * 2), 1),
    count(NgramModel, "vocab_size", lambda n: NgramModel(1, n, [[0.5, 0.5]] * 2), 2),
    real(DrafterConfig, "noise", lambda x: DrafterConfig(x, 2), 0.0, 1.0),
    node(DrafterConfig, "block_len", lambda n: DrafterConfig(0.3, n)),
    *(count(make, p, lambda n, make=make, p=p: make(**{"seed": 0, "vocab_size": 4, "order": 1,
                                                        p: n}), low)
      for make in (random_model, deterministic_model)
      for p, low in [("seed", 0), ("vocab_size", 2), ("order", 1)]),
    real(random_model, "concentration", lambda x: random_model(0, 4, 1, x), 0.0, strict=True),
    token(target_next, "context", lambda t: target_next(MODEL, (t,)), 3),
    token(exact_marginals, "context", lambda t: exact_marginals(MODEL, (t,), 1, 2), 3),
    token(exact_marginals, "bonus", lambda t: exact_marginals(MODEL, (), t, 2), 3),
    node(exact_marginals, "block_len", lambda n: exact_marginals(MODEL, (), 1, n)),
    token(drafter_marginals, "context", lambda t: drafter_marginals(MODEL, (t,), 1, DRAFTER), 3),
    token(drafter_marginals, "bonus", lambda t: drafter_marginals(MODEL, (), t, DRAFTER), 3),
    # A context token older than the order-2 window is checked too.
    *(token(owner, "context", call, 3, variant=".older") for owner, call in [
        (target_next, lambda t: target_next(MODEL, (t, 1, 2))),
        (exact_marginals, lambda t: exact_marginals(MODEL, (t, 1), 1, 2)),
        (drafter_marginals, lambda t: drafter_marginals(MODEL, (t, 1), 1, DRAFTER)),
        (drafter_chunks, lambda t: next(drafter_chunks(MODEL, (t, 1), 1, DRAFTER))),
    ]),
    token(drafter_chunks, "bonus", lambda t: next(drafter_chunks(MODEL, (), t, DRAFTER)), 3),
    # Checked when the first chunk is drawn, as the window is.
    count(drafter_chunks, "first_rows", lambda n: next(drafter_chunks(MODEL, (), 1, DRAFTER, n)),
          1),
    *(real(CostModel, f, lambda x, f=f: CostModel(**{f: x}), 0.0,
           strict=f in ("t_target", "t_verify_base"), error=NonPositiveCost)
      for f in ("t_target", "t_draft", "t_verify_base", "kappa")),
    real(estimate_speedup, "mean_tau", lambda x: estimate_speedup(x, 4), 0.0),
    count(estimate_speedup, "budget", lambda n: estimate_speedup(2.0, n), 0),
    config(count, "seed", 0),
    config(count, "max_new_tokens", 1),
    config(count, "prompt_len", 1),
    config(real, "temperature", 0.0),
    config(node, "budget"),
    config(node, "block_len"),
    config(choice, "mode"),
    config(real, "drafter_noise", 0.0, 1.0),
    config(count, "max_rounds", 0, optional=True),
    # The config checks the floor; the episode checks the vocabulary.
    token(EpisodeConfig, "eos_token", lambda t: run_episode(MODEL, replace(CFG, eos_token=t)), 3,
          low=1, name="eos_token", optional=True,
          above="eos_token {value} is not below vocab_size 4"),
    choice(EpisodeStats, "mode", lambda m: EpisodeStats(m, 4, 1, (3, 1))),
    count(EpisodeStats, "budget", lambda n: EpisodeStats("tree", n, 1, (3, 1)), 0),
    count(EpisodeStats, "episodes", lambda n: EpisodeStats("tree", 4, n, (3, 1)), 1),
    count(EpisodeStats, "tau_histogram", lambda n: EpisodeStats("tree", 4, 1, (3, n)), 0,
          name="tau_histogram count"),
    count(run_episodes, "episodes", lambda n: run_episodes(MODEL, CFG, n), 1),
    count(run_episodes, "workers", lambda n: run_episodes(MODEL, CFG, 1, n), 1),
    node(budget_sweep, "budgets", lambda n: budget_sweep(MODEL, CFG, [n]), name="budget"),
    count(budget_sweep, "episodes", lambda n: budget_sweep(MODEL, CFG, [4], n), 1),
    count(budget_sweep, "workers", lambda n: budget_sweep(MODEL, CFG, [4], 1, n), 1),
    # Outside ``__all__``: the oracle check behind the CLI, the prompt, the position
    # uniforms and a stored view.
    count(run_oracle_check, "max_vocab", lambda n: run_oracle_check(n, 3, 8, 2, 0), 2),
    count(run_oracle_check, "max_len", lambda n: run_oracle_check(4, n, 8, 2, 0), 1),
    node(run_oracle_check, "max_budget", lambda n: run_oracle_check(4, 3, n, 2, 0)),
    count(run_oracle_check, "trials", lambda n: run_oracle_check(4, 3, 8, n, 0), 0),
    count(run_oracle_check, "seed", lambda n: run_oracle_check(4, 3, 8, 2, n), 0),
    count(make_prompt, "seed", lambda n: make_prompt(MODEL, n, 4), 0),
    count(make_prompt, "prompt_len", lambda n: make_prompt(MODEL, 0, n), 1),
    # Positions are one uint32 word each: the last one is 2**32 - 1.
    count(position_uniforms, "seed", lambda n: position_uniforms(n, 0, 1), 0),
    count(position_uniforms, "start", lambda n: position_uniforms(0, n, 1), 0, 2**32 - 1),
    count(position_uniforms, "count", lambda n: position_uniforms(0, 2**32 - 2, n), 0, 2),
    count(FlattenedTree.prefix, "size", lambda n: flatten(TREE, 0).prefix(n), 1),
]

EXEMPT = {
    **dict.fromkeys(["block", "tree", "flat", "model", "cfg", "base_cfg", "cost"],
                    "an object whose own values are checked where it is built"),
    **dict.fromkeys(["raw", "table"], "a table, whose content checks are in its module's tests"),
    "rng": "a numpy Generator", "rollout": "the target's tokens", "collect_trace": "a switch",
    "self": "the instance a method is called on",
    **dict.fromkeys(["MarginalBlock", "DraftTree", "TreeNode", "FlattenedTree", "RoundOutcome",
                     "EpisodeResult"], "a result type, built by callables that have rows"),
}


def message(row, value):
    """The message ``row`` must raise for ``value``, which it does not admit."""
    name = row.name or row.param
    if row.kind == "choice":
        return f"{name} must be one of {MODES}"
    integer = row.kind != "real"
    number = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number):
        return f"{name} must be {'an integer' if integer else 'a real number'}, got {value!r}"
    if not math.isfinite(value):
        return f"{name} must be finite, got {value}"
    if value < row.low or value == row.low and row.strict:
        return f"{name} must be {'>' if row.strict else '>='} {row.low}, got {value}"
    return row.above.format(name=name, high=row.high, value=value)


def edges(row):
    """Numbers just past the row's bounds, and -1; for a real, the non-finite ones too."""
    step = 0.5 if row.kind == "real" else 1
    values = [row.low - step, -1] + [row.low] * row.strict
    values += [math.nan, math.inf, -math.inf] if row.kind == "real" else []
    return list(dict.fromkeys(values + ([row.high + step] if row.high is not None else [])))


def bad_values(row):
    """Wrong types, then numbers past the bounds."""
    if row.kind == "choice":
        return ["warp", "Tree", None, 1]
    wrong = ["x", "0.5", 1j] if row.kind == "real" else [
        2.5, 3.0, np.float64(3.0), math.nan, math.inf, "3"]
    return wrong + [True] + [None] * (not row.optional) + edges(row)


@pytest.mark.parametrize("row", ROWS, ids=repr)
def test_every_legal_value_passes(row):
    assert NODE_GUARD == np.iinfo(np.int16).max - 1  # the root is an entry too
    if row.kind == "choice":
        legal = list(MODES)
    elif row.kind == "real":
        legal = [0.5, np.float64(0.5), row.high, None if row.strict else row.low]
    else:
        legal = [row.low, np.int64(row.low), row.high]
    for value in [v for v in legal if v is not None] + [None] * row.optional:
        row.call(value)


@pytest.mark.parametrize("row,value", [(r, v) for r in ROWS for v in bad_values(r)], ids=repr)
def test_a_value_out_of_range_raises_naming_the_parameter(row, value):
    with pytest.raises(row.error, match=re.escape(message(row, value))):
        row.call(value)


def outside(row):
    """Any value ``row`` does not admit: a listed one, any text, or a number past a bound."""
    drawn = [st.sampled_from(bad_values(row)), st.text().filter(lambda s: s not in MODES)]
    if row.kind != "choice":
        number = st.floats(allow_nan=False) if row.kind == "real" else st.integers()
        drawn.append(number.filter(lambda x: x < row.low or x == row.low and row.strict
                                   or row.high is not None and x > row.high))
    return st.one_of(*drawn, *[st.floats()] * (row.kind in ("count", "node", "token")))


@given(st.sampled_from(ROWS).flatmap(lambda row: st.tuples(st.just(row), outside(row))))
@settings(max_examples=200, deadline=None)
def test_any_value_a_row_does_not_admit_raises_naming_the_parameter(case):
    row, value = case
    with pytest.raises(row.error, match=re.escape(message(row, value))):
        row.call(value)


def test_every_public_parameter_has_a_row_or_an_exemption():
    rows = {(row.owner, row.param) for row in ROWS}
    missing = [f"{name}.{param}" for name in drafttree.__all__
               if name not in EXEMPT and callable(obj := getattr(drafttree, name))
               for param in inspect.signature(obj).parameters
               if param not in EXEMPT and (obj, param) not in rows]
    assert missing == []
    # A callable outside ``__all__`` that has a row has one for every parameter.
    owners = {row.owner for row in ROWS}
    missing = [f"{owner.__qualname__}.{param}" for owner in owners
               for param in inspect.signature(owner).parameters
               if param not in EXEMPT and (owner, param) not in rows]
    assert missing == []
    assert [str(r) for r in ROWS if r.param not in inspect.signature(r.owner).parameters] == []


SEED = ("1", [("-1", "argument {flag}: must be >= 0, got -1"),  # its own parser names the flag
              ("abc", "argument {flag}: expected an integer, got 'abc'")])
MODEL_FLAGS = {"--model-seed": SEED, "--seed": SEED, **{flag: (ok, rule) for flag, ok, rule in [
    ("--vocab-size", "4", "random_model.vocab_size"), ("--order", "1", "random_model.order"),
    ("--concentration", "1.0", "random_model.concentration"),
    ("--epsilon", "0.2", "EpisodeConfig.drafter_noise"),
    ("--block-len", "3", "EpisodeConfig.block_len"),
    ("--prompt-len", "2", "EpisodeConfig.prompt_len"),
    ("--temperature", "0.5", "EpisodeConfig.temperature"),
]}}
EPISODES = {"--episodes": ("1", "run_episodes.episodes"),
            "--max-new-tokens": ("4", "EpisodeConfig.max_new_tokens")}
# flag -> (in-range value, the row whose range it keeps, or (bad value, stderr fragment) pairs)
CLI_FLAGS = {
    "oracle-check": {"--seed": SEED, **{
        f"--{p.replace('_', '-')}": (ok, f"run_oracle_check.{p}")
        for p, ok in [("max_vocab", "3"), ("max_len", "2"), ("max_budget", "4"), ("trials", "2")]}},
    "sweep": {**MODEL_FLAGS, **EPISODES, "--budgets": ("2,4", [
        ("8,x", "argument --budgets: bad budget list '8,x'"),
        *((v, "argument --budgets: budgets must be positive and sorted ascending")
          for v in ("32,16", "0,4")),
        ("8,32767", "error: budget must be <= 32766, got 32767"),
    ]), **{f"--{p.replace('_', '-')}": (ok, f"CostModel.{p}") for p, ok in [
        ("t_target", "1.0"), ("t_draft", "0.1"), ("t_verify_base", "1.0"), ("kappa", "0.002")]}},
    "histogram": {**MODEL_FLAGS, **EPISODES, "--budget": ("4", "EpisodeConfig.budget")},
    "trace": {**MODEL_FLAGS, "--budget": ("4", "EpisodeConfig.budget"),
              "--rounds": ("2", [("-1", "error: --rounds must be >= 0")])},
}
CLI_EXEMPT = {"--out": "a path (test_cli checks unwritable ones)", "-h": "help", "--help": "help"}


def legal_argv(command, out):
    argv = [command, *(arg for flag, (ok, _) in CLI_FLAGS[command].items() for arg in (flag, ok))]
    return argv if command == "oracle-check" else [*argv, "--out", str(out)]


@pytest.mark.parametrize("command", CLI_FLAGS)
def test_each_subcommand_runs_at_its_legal_flag_values(tmp_path, command):
    assert main(legal_argv(command, tmp_path / "x.out")) == 0


def flag_cases(flag, rule):
    """(value, stderr fragment) pairs that exit 2; a value that does not parse names the flag."""
    if isinstance(rule, str):  # "inf" parses, "-inf" reads as an option
        row = next(row for row in ROWS if str(row) == rule)
        parse = float if row.kind == "real" else int
        rule = [(str(v), f"error: {message(row, parse(v))}") for v in edges(row) if v != -math.inf]
    return [(v, fragment.format(flag=flag)) for v, fragment in rule] + [("x", f"argument {flag}:")]


@pytest.mark.parametrize("command,flag,value,fragment", [
    (command, flag, *case) for command, flags in CLI_FLAGS.items()
    for flag, (_, rule) in flags.items() for case in flag_cases(flag, rule)])
def test_a_bad_flag_value_exits_2_naming_it(tmp_path, capsys, command, flag, value, fragment):
    out = tmp_path / "x.out"
    with pytest.raises(SystemExit) as err:
        main([*legal_argv(command, out), flag, value])
    assert err.value.code == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_every_cli_flag_has_a_row_or_an_exemption():
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subcommands.choices) == set(CLI_FLAGS)
    for command, sub in subcommands.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert flags - set(CLI_EXEMPT) == set(CLI_FLAGS[command]), command
