"""Command-line front end: oracle checks, budget sweeps, histograms, traces.

All file outputs start with a comment-prefixed JSON manifest recording the
subcommand, every flag value, and the tool version; re-running with the same
flags reproduces the file byte for byte. Exit codes: 0 on success, 1 when a
property check fails, 2 on usage errors (bad flags, unwritable paths).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, TextIO

import numpy as np

from . import __version__
from .engine import (
    CostModel,
    EpisodeConfig,
    budget_sweep,
    default_workers,
    run_episode,
    run_episodes,
    sweep_scope,
)
from .models import random_model
from .oracle import (
    expected_acceptance_exact,
    optimal_tree_exhaustive,
    random_valid_tree,
)
from .distributions import require_count, validate_block
from .treebuild import build_tree, check_ancestor_dominance, check_prefix_closed, node_prefixes

WORKERS_ENV = "DRAFTTREE_WORKERS"

ORACLE_PROPERTIES = (
    "optimal_value",
    "optimal_node_set",
    "additive_identity",
    "pop_monotonicity",
    "prefix_closure",
    "ancestor_dominance",
    "work_bound",
)


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    params: dict
    seed: int
    out: str | None
    version: str

    def to_line(self) -> str:
        return "# " + json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


@dataclass
class OracleCheckReport:
    trials: int
    failures: dict[str, int] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(count == 0 for count in self.failures.values())


def _random_instance(rng: np.random.Generator, max_vocab: int, max_len: int, max_budget: int):
    vocab = int(rng.integers(2, max_vocab + 1))
    block_len = int(rng.integers(1, max_len + 1))
    budget = int(rng.integers(1, max_budget + 1))
    concentration = float(rng.choice([0.2, 0.5, 1.0, 3.0]))
    raw = rng.gamma(concentration, 1.0, size=(block_len, vocab))
    return validate_block(raw), budget


def run_oracle_check(
    max_vocab: int, max_len: int, max_budget: int, trials: int, seed: int
) -> OracleCheckReport:
    """Check the heap builder against exhaustive enumeration on random instances.

    Per trial: the builder's tree must match the brute-force optimum in value
    (1e-12 relative) and node set, its pop sequence must be nonincreasing, the
    tree prefix-closed with strictly dominating ancestors, and the heap work
    within the pops <= B, pushes <= 2B bound. A random (not necessarily
    optimal) valid tree additionally checks the additive identity: exhaustive
    expected acceptance equals the sum of node masses (1e-9 relative).
    """
    require_count("max_vocab", max_vocab, 2)
    require_count("max_len", max_len, 1)
    require_count("max_budget", max_budget, 1)
    require_count("trials", trials, 0)
    require_count("seed", seed, 0)  # numpy's own error names no argument
    report = OracleCheckReport(trials=trials, failures={p: 0 for p in ORACLE_PROPERTIES})
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        block, budget = _random_instance(rng, max_vocab, max_len, max_budget)
        built = build_tree(block, budget)
        exhaustive = optimal_tree_exhaustive(block, budget)

        def fail(prop: str, detail: str) -> None:
            report.failures[prop] += 1
            if len(report.messages) < 10:
                report.messages.append(f"trial {trial}: {prop}: {detail}")

        best = exhaustive.surrogate_value
        if not math.isclose(built.surrogate_value, best, rel_tol=1e-12, abs_tol=0.0):
            fail("optimal_value", f"built {built.surrogate_value!r} vs oracle {best!r}")
        if set(node_prefixes(built)) != set(node_prefixes(exhaustive)):
            fail("optimal_node_set", "node sets differ")

        masses = [n.log_mass for n in built.nodes]
        if any(a < b for a, b in zip(masses, masses[1:])):
            fail("pop_monotonicity", "pop sequence increased")
        if not check_prefix_closed(built):
            fail("prefix_closure", "built tree not prefix-closed")
        if not check_ancestor_dominance(built):
            fail("ancestor_dominance", "parent mass not strictly larger")
        if built.heap_pops > budget or built.heap_pushes > 2 * budget:
            fail(
                "work_bound",
                f"pops={built.heap_pops} pushes={built.heap_pushes} budget={budget}",
            )

        probe = random_valid_tree(block, budget, rng)
        exact = expected_acceptance_exact(block, probe)
        additive = probe.surrogate_value
        if not math.isclose(exact, additive, rel_tol=1e-9, abs_tol=1e-15):
            fail("additive_identity", f"exhaustive {exact!r} vs additive {additive!r}")
    return report


def _print_oracle_report(report: OracleCheckReport) -> None:
    for prop in ORACLE_PROPERTIES:
        failures = report.failures[prop]
        status = "ok" if failures == 0 else "FAIL"
        print(f"{prop}: {report.trials} trials, {failures} failures [{status}]")
    for message in report.messages:
        print(message)
    print("RESULT: PASS" if report.passed else "RESULT: FAIL")


def _parse_budgets(text: str) -> list[int]:
    try:
        budgets = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad budget list {text!r}") from exc
    if not budgets or budgets != sorted(budgets) or budgets[0] < 1:
        raise argparse.ArgumentTypeError("budgets must be positive and sorted ascending")
    return budgets


def _parse_seed(text: str) -> int:
    """A seed flag's value: numpy seeds its generators from non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _workers_from_env(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return default_workers()
    try:
        workers = int(raw)
    except ValueError:
        parser.error(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    if workers < 1:
        parser.error(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")
    return workers


@contextmanager
def _output(path: str, parser: argparse.ArgumentParser) -> Iterator[TextIO]:
    """The output file; a failure to open, write or close it exits 2."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        parser.error(f"cannot write {path!r}: {exc}")


def _manifest(args: argparse.Namespace) -> RunManifest:
    params = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    return RunManifest(
        subcommand=args.subcommand,
        params=params,
        seed=getattr(args, "seed", 0),
        out=getattr(args, "out", None),
        version=__version__,
    )


def _episode_config(args: argparse.Namespace, **fields) -> EpisodeConfig:
    """A tree-mode episode config from the model flags every subcommand shares."""
    return EpisodeConfig(
        seed=args.seed,
        prompt_len=args.prompt_len,
        temperature=args.temperature,
        block_len=args.block_len,
        drafter_noise=args.epsilon,
        **fields,
    )


def cmd_oracle_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    if min(args.max_vocab, args.max_len, args.max_budget) < 1 or args.max_vocab < 2:
        parser.error("--max-vocab must be >= 2, --max-len and --max-budget >= 1")
    report = run_oracle_check(
        max_vocab=args.max_vocab,
        max_len=args.max_len,
        max_budget=args.max_budget,
        trials=args.trials,
        seed=args.seed,
    )
    _print_oracle_report(report)
    return 0 if report.passed else 1


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    workers = _workers_from_env(parser)
    model = random_model(args.model_seed, args.vocab_size, args.order, args.concentration)
    base = _episode_config(args, max_new_tokens=args.max_new_tokens)
    cost = CostModel(
        t_target=args.t_target,
        t_draft=args.t_draft,
        t_verify_base=args.t_verify_base,
        kappa=args.kappa,
    )
    with sweep_scope(model):
        rows = [r.stats for r in budget_sweep(model, base, args.budgets, args.episodes, workers)]
        for mode in ("chain", "baseline"):
            rows.append(run_episodes(model, replace(base, mode=mode), args.episodes, workers))

    with _output(args.out, parser) as fh:
        fh.write(_manifest(args).to_line() + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "budget",
                "mode",
                "temperature",
                "epsilon",
                "episodes",
                "rounds",
                "committed_tokens",
                "mean_tau",
                "est_speedup",
            ]
        )
        for stats in rows:
            writer.writerow(
                [
                    stats.budget,
                    stats.mode,
                    args.temperature,
                    args.epsilon,
                    stats.episodes,
                    stats.rounds,
                    stats.committed_tokens,
                    stats.mean_tau,
                    stats.speedup(cost),
                ]
            )
    return 0


def cmd_histogram(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    workers = _workers_from_env(parser)
    model = random_model(args.model_seed, args.vocab_size, args.order, args.concentration)
    tree = _episode_config(args, max_new_tokens=args.max_new_tokens, budget=args.budget)
    with sweep_scope(model):
        tree_stats = run_episodes(model, tree, args.episodes, workers)
        chain_stats = run_episodes(model, replace(tree, mode="chain"), args.episodes, workers)

    with _output(args.out, parser) as fh:
        fh.write(_manifest(args).to_line() + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin", "tree_count", "chain_count"])
        for i in range(args.block_len + 1):
            writer.writerow([i + 1, tree_stats.tau_histogram[i], chain_stats.tau_histogram[i]])
    return 0


def cmd_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.rounds < 0:
        parser.error("--rounds must be >= 0")
    model = random_model(args.model_seed, args.vocab_size, args.order, args.concentration)
    cfg = _episode_config(
        args,
        max_new_tokens=max(1, args.rounds * (args.block_len + 1)),
        budget=args.budget,
        max_rounds=args.rounds,
        collect_trace=True,
    )
    result = run_episode(model, cfg)
    with _output(args.out, parser) as fh:
        fh.write(_manifest(args).to_line() + "\n")
        for record in result.trace:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--model-seed", type=_parse_seed, default=0, help="seed for the synthetic target"
    )
    sub.add_argument("--vocab-size", type=int, default=16, help="target vocabulary size")
    sub.add_argument("--order", type=int, default=2, help="target context length")
    sub.add_argument(
        "--concentration", type=float, default=1.0, help="row concentration of the target"
    )
    sub.add_argument("--epsilon", type=float, default=0.3, help="drafter uniform-noise weight")
    sub.add_argument("--block-len", type=int, default=16, help="drafted block length L")
    sub.add_argument("--prompt-len", type=int, default=8, help="seeded prompt length")
    sub.add_argument("--temperature", type=float, default=0.0, help="target decoding temperature")
    sub.add_argument("--seed", type=_parse_seed, default=0, help="base episode seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drafttree",
        description="Draft-tree speculative decoding simulator over synthetic targets",
    )
    parser.add_argument("--version", action="version", version=f"drafttree {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    oracle = subparsers.add_parser(
        "oracle-check", help="verify the tree builder against exhaustive enumeration"
    )
    oracle.add_argument("--max-vocab", type=int, default=8, help="largest vocabulary tried")
    oracle.add_argument("--max-len", type=int, default=4, help="largest block length tried")
    oracle.add_argument("--max-budget", type=int, default=20, help="largest node budget tried")
    oracle.add_argument("--trials", type=int, default=500, help="number of random instances")
    oracle.add_argument("--seed", type=_parse_seed, default=0, help="instance-generator seed")
    oracle.set_defaults(func=cmd_oracle_check)

    sweep = subparsers.add_parser("sweep", help="budget sweep CSV (tree, chain, baseline rows)")
    _add_model_flags(sweep)
    sweep.add_argument(
        "--budgets",
        type=_parse_budgets,
        default="16,32,64,128,256,512,1024",
        help="comma-separated ascending node budgets",
    )
    sweep.add_argument("--episodes", type=int, default=20, help="episodes per row")
    sweep.add_argument("--max-new-tokens", type=int, default=512, help="round-committed tokens per episode")
    sweep.add_argument("--t-target", type=float, default=1.0, help="cost of one target pass")
    sweep.add_argument("--t-draft", type=float, default=0.1, help="cost of one drafter pass")
    sweep.add_argument("--t-verify-base", type=float, default=1.0, help="base cost of a verify pass")
    sweep.add_argument("--kappa", type=float, default=0.002, help="verify cost per tree node")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    hist = subparsers.add_parser("histogram", help="per-round committed-token histogram CSV")
    _add_model_flags(hist)
    hist.add_argument("--budget", type=int, default=256, help="tree-mode node budget")
    hist.add_argument("--episodes", type=int, default=20, help="episodes per mode")
    hist.add_argument("--max-new-tokens", type=int, default=512, help="round-committed tokens per episode")
    hist.add_argument("--out", required=True, help="output CSV path")
    hist.set_defaults(func=cmd_histogram)

    trace = subparsers.add_parser("trace", help="line-delimited per-round trace")
    _add_model_flags(trace)
    trace.add_argument("--budget", type=int, default=64, help="tree-mode node budget")
    trace.add_argument("--rounds", type=int, default=8, help="number of rounds to trace")
    trace.add_argument("--out", required=True, help="output path")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:
        # Bad flag combinations surface as ValueError from the library layer.
        parser.exit(2, f"error: {exc}\n")
        return 2  # unreachable; parser.exit raises SystemExit


if __name__ == "__main__":
    sys.exit(main())
