"""Smoke tests of the benchmark itself, at tiny workload sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402

TINY = {
    name: replace(wl, budgets=bench.REPORTED_BUDGETS, episodes=2, max_new_tokens=24)
    for name, wl in bench.WORKLOADS.items()
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny workloads with their own reference and output directory."""
    monkeypatch.setattr(bench, "WORKLOADS", TINY)
    monkeypatch.setattr(bench, "REFERENCE_PATH", tmp_path / "reference.json")
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    assert bench.main(["--write-reference"]) == 0
    return tmp_path


def run_bench(capsys, workload, trace, seed=bench.DEFAULT_SEED):
    capsys.readouterr()
    code = bench.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def declared_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert declared_metrics("end_to_end") == bench.END_TO_END_UNITS
    assert declared_metrics("per_layer") == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    code, lines, result = run_bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared_metrics("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert any(line.split() == [name, repr(value), unit] for line in lines), name
    assert any(line.startswith("rows_failed") for line in lines)
    meta = json.loads(next(line for line in lines if line.startswith("# meta "))[7:])
    assert meta["trace"] is bool(trace) and meta["workload"] == workload
    if trace:
        assert result["metrics"]["engine.lossless_mismatches"]["value"] == 0


def test_traced_and_untraced_runs_yield_identical_curves(tiny, capsys):
    for trace in (0, 1):
        assert run_bench(capsys, "sampled-wide", trace, seed=7)[0] == 0
    curves = [
        json.loads((tiny / "out" / f"sampled-wide-seed7-trace{t}.json").read_text())["curve"]
        for t in (0, 1)
    ]
    assert curves[0] == curves[1]


@pytest.mark.parametrize("seed", [bench.DEFAULT_SEED, 7])
def test_corrupted_reference_fails_the_gate(tiny, capsys, seed):
    reference = json.loads(bench.REFERENCE_PATH.read_text())
    reference["greedy-peaked"]["rows"][2]["mean_tau"] += 1e-12
    bench.REFERENCE_PATH.write_text(json.dumps(reference))
    code, _, result = run_bench(capsys, "greedy-peaked", 0, seed=seed)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_greedy_curve_is_the_acceptance_shape_sweep():
    """At the acceptance config the benchmark's sweep is budget_sweep's."""
    dt = bench.load_drafttree()
    from drafttree.engine import EpisodeConfig, budget_sweep, run_episodes
    from drafttree.models import random_model

    wl = replace(bench.WORKLOADS["greedy-peaked"], episodes=2, max_new_tokens=32)
    rows = bench.library_sweep(dt, bench.build_model(dt, wl), wl, 20260808)
    model = random_model(seed=13, vocab_size=16, order=2, concentration=0.008)
    base = EpisodeConfig(seed=20260808, max_new_tokens=32, prompt_len=8, temperature=0.0,
                         block_len=16, drafter_noise=0.3)
    expected = [bench._stats_row("tree", r.budget, r.stats)
                for r in budget_sweep(model, base, wl.budgets, episodes=2, workers=1)]
    expected.append(bench._stats_row(
        "chain", 16, run_episodes(model, replace(base, mode="chain"), 2, workers=1)))
    assert rows[:-1] == expected


def test_refuses_stripped_assertions():
    done = subprocess.run(
        [sys.executable, "-O", str(BENCH_DIR / "run.py"), "--workload", "greedy-peaked"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "assertions stripped" in done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "greedy-peaked", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
