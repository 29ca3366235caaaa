"""The benchmark's pinned curves, checked with the tests.

Each workload in ``perfbench/run.py`` pins its sweep at the default seed to
``perfbench/reference.json``, bit for bit. A benchmark run checks that; this
module checks the same equality on every test run, so an output change shows
here before the benchmark sees it. It only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

WORKLOADS = dict(bench.WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_sweep_equals_the_reference(name, tmp_path):
    wl = WORKLOADS[name]
    rows, _ = bench.Runner(bench.load_drafttree(), wl, tmp_path).sweep(bench.DEFAULT_SEED)
    assert rows == bench.Gate(wl).reference()
