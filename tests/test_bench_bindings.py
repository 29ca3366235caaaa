"""Names in ``src/`` that only the benchmark needs; each test names the leftover to delete.

``perfbench/run.py``'s full trace rebinds ``engine`` and ``verify`` attributes
by name, ``cli_sweep`` sets ``cli.WORKERS_ENV``, and ``library_sweep`` reads
``SweepRow.budget`` and passes ``workers``. The tests only read ``perfbench/``.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from drafttree import engine

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_NODES = list(ast.walk(ast.parse(inspect.getsource(bench))))


def rebound(name):
    dt, (module, attr) = bench.load_drafttree(), name.split(".")
    return (getattr(dt, module), attr) in {(m, a) for m, a, _ in bench.full_bindings(Tracer(), dt)}


def read(name):
    return any(isinstance(n, ast.Attribute) and ast.unparse(n) == name for n in BENCH_NODES)


def passes_workers(name):
    signature = inspect.signature(getattr(engine, name))
    return any(
        "workers" in signature.bind(*n.args, **{k.arg: k.value for k in n.keywords}).arguments
        for n in BENCH_NODES if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == name
    )


# name as the benchmark writes it -> (its check, what to delete once the check fails)
KEPT_FOR_THE_BENCHMARK = {
    "engine.chain_tree": (rebound, "engine's import of chain_tree"),
    "engine.drafter_marginals": (rebound, "engine's import of drafter_marginals"),
    "verify.duplicate_child_guard": (rebound, "verify.duplicate_child_guard"),
    "dt.cli.WORKERS_ENV": (read, "cli.WORKERS_ENV"),
    "r.budget": (read, "engine.SweepRow (budget_sweep can return its stats)"),
    "run_episodes": (passes_workers, "run_episodes' workers parameter"),
    "budget_sweep": (passes_workers, "budget_sweep's workers parameter"),
}


@pytest.mark.parametrize("name", KEPT_FOR_THE_BENCHMARK)
def test_the_benchmark_still_uses_each_name_kept_for_it(name):
    check, leftover = KEPT_FOR_THE_BENCHMARK[name]
    assert check(name), f"perfbench/run.py no longer uses {leftover}: delete it"
