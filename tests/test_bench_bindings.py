"""Names in ``src/`` that no round uses, kept only because the benchmark rebinds them.

``perfbench/run.py``'s full trace rebinds ``engine`` attributes by name, so
``engine`` still imports ``drafter_marginals`` and ``chain_tree`` although no
round calls either. Once the benchmark stops binding one, this test fails and
names the import to delete with it. It only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
from spans import Tracer  # noqa: E402

KEPT_FOR_THE_BENCHMARK = ["chain_tree", "drafter_marginals"]


@pytest.mark.parametrize("name", KEPT_FOR_THE_BENCHMARK)
def test_the_benchmark_still_binds_each_name_kept_for_it(name):
    dt = bench.load_drafttree()
    bound = {attr for module, attr, _ in bench.full_bindings(Tracer(), dt) if module is dt.engine}
    assert name in bound, (
        f"perfbench/run.py no longer rebinds engine.{name}: delete its import from engine.py"
    )
