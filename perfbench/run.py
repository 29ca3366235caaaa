#!/usr/bin/env python3
"""drafttree benchmark: simulator throughput beside the modelled acceptance curve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload greedy-peaked --seed 20260808 \\
        --seconds 30 --trace 0

A workload is one budget sweep -- every tree row, then the chain row, then the
baseline row -- repeated back to back in one process (a closed loop with one
client) until ``--seconds`` have passed. ``--seed`` is the base episode seed;
the synthetic target is fixed per workload.

``--trace 0`` measures with tracing off and prints the end-to-end metrics.
``--trace 1`` alternates lightly traced passes (row boundaries only) with
fully traced ones (every layer boundary, see ``spans.py``) and prints the
per-layer metrics. Either way the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` (sweep rows) and
``metrics``; the lines before it print every metric by name and unit, the
failed-row count and the run's metadata. The full result and, for traced
runs, the spans of the last traced pass go to ``.perfbench/`` in the
checkout.

Every run gates the outputs. Each row must satisfy sum(hist) = rounds,
sum(k * hist[k]) = committed tokens, committed = episodes * max_new_tokens,
and baseline mean_tau = 1. Every pass must repeat the first pass's curve (a
traced pass the untraced one's), the sweep at the default seed must equal
``reference.json`` bit for bit, ``cli-parallel``'s CSV rows must equal a
serial run's, and traced tree and chain token streams must equal the
baseline stream of the same episode. A failing row counts in ``failed`` and
the command exits 1.

``--write-reference`` regenerates ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
from spans import NO_SPAN, Tracer, percentile, rebound, summarize, write_tsv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".perfbench"

# Shared by every workload: the acceptance-gate shape of tests/test_acceptance.py.
MODEL_SEED = 13
ORDER = 2
EPSILON = 0.3
BLOCK_LEN = 16
PROMPT_LEN = 8
DEFAULT_SEED = 20260808

SETUP_REPEATS = 9
MIN_PASSES = 3
# Per-budget layer metrics cover the budgets every workload sweeps.
REPORTED_BUDGETS = (16, 32, 64, 128)
ROW_LABELS = tuple(f"B{b}" for b in REPORTED_BUDGETS) + ("chain", "baseline")


@dataclass(frozen=True)
class Workload:
    name: str
    vocab_size: int
    concentration: float
    temperature: float
    budgets: tuple[int, ...]
    episodes: int
    max_new_tokens: int
    # 1 drives drafttree.engine directly; more drives cli.main with a pool.
    workers: int


# Why these three: greedy-peaked spends its time in treebuild and verify and
# repeats almost every n-gram window; sampled-wide spends it in the models
# marginal DP, draws a uniform per target decision and repeats fewer windows;
# cli-parallel is the only path through engine's process pool and cli's
# manifest and CSV writing.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("greedy-peaked", 16, 0.008, 0.0, (16, 32, 64, 128, 256, 512, 1024), 32, 32, 1),
        Workload("sampled-wide", 32, 0.1, 1.0, (16, 32, 64, 128), 4, 128, 1),
        Workload("cli-parallel", 16, 0.1, 1.0, (16, 32, 64, 128), 8, 128, 2),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "rounds_per_ref": "1/ref",
    "peak_rss_mib": "MiB",
    "sim.tree_tau": "tokens/round",
    "sim.est_speedup_best": "x_cost_model",
    "sim.chain_tau": "tokens/round",
}


PER_LAYER_UNITS = {
    "treebuild.build_tree.calls": "count",
    "treebuild.build_tree.self_s": "s",
    "treebuild.build_tree.p50_us": "us",
    "treebuild.build_tree.p90_us": "us",
    **{f"treebuild.build_tree.p50_us.B{b}": "us" for b in REPORTED_BUDGETS},
    "treebuild.top_k_per_depth.total_s": "s",
    "treebuild.chain_tree.total_s": "s",
    "treebuild.heap_pops": "count",
    "treebuild.heap_pushes": "count",
    "treebuild.nodes": "count",
    "verify.flatten.calls": "count",
    "verify.flatten.self_s": "s",
    "verify.flatten.p50_us": "us",
    **{f"verify.flatten.p50_us.B{b}": "us" for b in REPORTED_BUDGETS},
    "verify.duplicate_child_guard.total_s": "s",
    "verify.mask_cells": "count",
    "verify.verifier_walk.self_s": "s",
    "verify.accepted_ratio": "ratio",
    "models.drafter_marginals.calls": "count",
    "models.drafter_marginals.self_s": "s",
    "models.drafter_marginals.p50_us": "us",
    "models.drafter_marginals.p90_us": "us",
    "models.target_next.calls": "count",
    "models.target_next.total_s": "s",
    "distributions.validate_block.calls": "count",
    "distributions.validate_block.total_s": "s",
    "models.distinct_windows": "count",
    "models.window_reuse": "ratio",
    "models.random_model.s": "s",
    "engine.run_episode.calls": "count",
    "engine.run_episode.self_s": "s",
    "engine.decode_next.calls": "count",
    "engine.decode_next.self_s": "s",
    "engine.rounds": "count",
    "engine.decode_per_round": "calls/round",
    "engine.pool.efficiency": "ratio",
    **{f"engine.run_episodes.s.{label}": "s" for label in ROW_LABELS},
    "engine.lossless_mismatches": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "sim.tau_best": "tokens/round",
    "sim.best_budget": "nodes",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or no reference for a workload)."""


class SweepFailed(Exception):
    """A sweep did not complete."""


@dataclass
class Drafttree:
    """The package's modules, imported from the checkout's ``src``."""

    engine: object
    models: object
    treebuild: object
    verify: object
    cli: object


def load_drafttree() -> Drafttree:
    src = ROOT / "src"
    if not (src / "drafttree" / "__init__.py").is_file():
        raise BenchError(f"no drafttree sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import drafttree.cli
    import drafttree.engine
    import drafttree.models
    import drafttree.treebuild
    import drafttree.verify

    return Drafttree(
        drafttree.engine, drafttree.models, drafttree.treebuild, drafttree.verify, drafttree.cli
    )


# ---------------------------------------------------------------- set-up


_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import {module}
from drafttree.models import random_model
random_model({seed}, {vocab}, {order}, {concentration!r})
print(time.perf_counter() - start)
"""


def setup_probe(wl: Workload) -> float:
    """Seconds a fresh interpreter takes to import drafttree and build the model."""
    code = _SETUP_PROBE.format(
        module="drafttree.cli" if wl.workers > 1 else "drafttree",
        seed=MODEL_SEED,
        vocab=wl.vocab_size,
        order=ORDER,
        concentration=wl.concentration,
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


# ---------------------------------------------------------------- sweeps


def row_label(cfg) -> str:
    return f"B{cfg.budget}" if cfg.mode == "tree" else cfg.mode


def _expected_rows(wl: Workload) -> list[tuple[str, int]]:
    return [("tree", b) for b in wl.budgets] + [("chain", BLOCK_LEN), ("baseline", 0)]


def _stats_row(mode: str, budget: int, stats) -> dict:
    return {
        "mode": mode,
        "budget": budget,
        "rounds": stats.rounds,
        "committed_tokens": stats.committed_tokens,
        "mean_tau": stats.mean_tau,
        "est_speedup": stats.est_speedup,
        "tau_histogram": list(stats.tau_histogram),
    }


def base_config(dt: Drafttree, wl: Workload, seed: int):
    return dt.engine.EpisodeConfig(
        seed=seed,
        max_new_tokens=wl.max_new_tokens,
        prompt_len=PROMPT_LEN,
        temperature=wl.temperature,
        block_len=BLOCK_LEN,
        mode="tree",
        drafter_noise=EPSILON,
    )


def build_model(dt: Drafttree, wl: Workload):
    return dt.models.random_model(MODEL_SEED, wl.vocab_size, ORDER, wl.concentration)


def library_sweep(dt: Drafttree, model, wl: Workload, seed: int) -> list[dict]:
    """One serial sweep through the engine, in the order cmd_sweep makes it.

    The engine functions are looked up at call time so traced passes see the
    rebound ones.
    """
    base = base_config(dt, wl, seed)
    rows = dt.engine.budget_sweep(model, base, wl.budgets, wl.episodes, 1)
    out = [_stats_row("tree", r.budget, r.stats) for r in rows]
    for mode, budget in _expected_rows(wl)[len(wl.budgets):]:
        stats = dt.engine.run_episodes(model, replace(base, mode=mode), wl.episodes, 1)
        out.append(_stats_row(mode, budget, stats))
    return out


@contextlib.contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def cli_argv(wl: Workload, seed: int, out: Path) -> list[str]:
    return [
        "sweep",
        "--model-seed", str(MODEL_SEED),
        "--vocab-size", str(wl.vocab_size),
        "--order", str(ORDER),
        "--concentration", repr(wl.concentration),
        "--epsilon", repr(EPSILON),
        "--block-len", str(BLOCK_LEN),
        "--prompt-len", str(PROMPT_LEN),
        "--temperature", repr(wl.temperature),
        "--seed", str(seed),
        "--budgets", ",".join(str(b) for b in wl.budgets),
        "--episodes", str(wl.episodes),
        "--max-new-tokens", str(wl.max_new_tokens),
        "--out", str(out),
    ]


def cli_sweep(dt: Drafttree, wl: Workload, seed: int, workers: int, tmp: Path, main=None):
    """``drafttree sweep`` in-process; returns the rows and the CSV lines after the manifest."""
    out = tmp / f"sweep-{seed}-w{workers}.csv"
    with _env(dt.cli.WORKERS_ENV, str(workers)):
        try:
            code = (main or dt.cli.main)(cli_argv(wl, seed, out))
        except SystemExit as exc:  # how cli.main reports bad flags and library errors
            code = exc.code
    if code != 0:
        raise SweepFailed(f"cli.main exited {code}")
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    rows = [
        {
            "mode": r["mode"],
            "budget": int(r["budget"]),
            "rounds": int(r["rounds"]),
            "committed_tokens": int(r["committed_tokens"]),
            "mean_tau": float(r["mean_tau"]),
            "est_speedup": float(r["est_speedup"]),
            "tau_histogram": None,  # the sweep CSV has no histogram
        }
        for r in csv.DictReader(lines)
    ]
    return rows, lines


# ---------------------------------------------------------------- gate


def row_problems(row: dict, wl: Workload, expected: dict | None) -> list[str]:
    problems = []
    hist = row["tau_histogram"]
    if hist is not None:
        if sum(hist) != row["rounds"]:
            problems.append("sum(hist) != rounds")
        if sum(k * c for k, c in enumerate(hist, start=1)) != row["committed_tokens"]:
            problems.append("sum(k * hist) != committed_tokens")
    if row["committed_tokens"] != wl.episodes * wl.max_new_tokens:
        problems.append("committed_tokens != episodes * max_new_tokens")
    if row["mode"] == "baseline" and row["mean_tau"] != 1.0:
        problems.append("baseline mean_tau != 1")
    if expected is not None and row != expected:
        problems.append(f"differs from expected {expected}")
    return problems


def count_failed(rows: list[dict], wl: Workload, expected: list[dict] | None, what: str) -> int:
    """Gate one sweep's rows; print each problem to stderr; return the failed-row count."""
    labels = _expected_rows(wl)
    if [(r["mode"], r["budget"]) for r in rows] != labels:
        print(f"gate [{what}]: rows {[(r['mode'], r['budget']) for r in rows]} != {labels}",
              file=sys.stderr)
        return len(labels)
    failed = 0
    for i, row in enumerate(rows):
        problems = row_problems(row, wl, expected[i] if expected is not None else None)
        if problems:
            failed += 1
            print(f"gate [{what}] {row['mode']} {row['budget']}: {'; '.join(problems)}",
                  file=sys.stderr)
    return failed


def count_line_mismatches(lines: list[str], serial: list[str], what: str) -> int:
    """CSV rows that differ from the serial run's (all of them if the count differs)."""
    if len(lines) != len(serial):
        print(f"gate [{what}]: {len(lines)} CSV lines vs {len(serial)} serial", file=sys.stderr)
        return max(len(lines), len(serial)) - 1  # minus the header
    bad = sum(a != b for a, b in zip(lines, serial))
    if bad:
        print(f"gate [{what}]: {bad} CSV lines differ from the serial run", file=sys.stderr)
    return bad


def workload_config(wl: Workload) -> dict:
    return {**asdict(wl), "budgets": list(wl.budgets), "model_seed": MODEL_SEED,
            "order": ORDER, "epsilon": EPSILON, "block_len": BLOCK_LEN,
            "prompt_len": PROMPT_LEN, "seed": DEFAULT_SEED}


def lossless_mismatches(episodes: list[list]) -> int:
    """Tree and chain episodes whose committed tokens differ from the baseline's."""
    baseline = {seed: tokens for label, seed, tokens in episodes if label == "baseline"}
    return sum(
        tokens != baseline.get(seed)
        for label, seed, tokens in episodes
        if label != "baseline"
    )


class Gate:
    """Running totals of attempted and failed rows for one run."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.attempted = 0
        self.failed = 0

    def check(self, rows: list[dict], expected: list[dict] | None, what: str) -> None:
        self.attempted += len(_expected_rows(self.wl))
        self.failed += count_failed(rows, self.wl, expected, what)

    def reference(self) -> list[dict]:
        """The stored default-seed curve of this workload's config."""
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            entry = json.load(fh).get(self.wl.name)
        if entry is None or entry["config"] != workload_config(self.wl):
            raise BenchError(f"{REFERENCE_PATH} has no curve for this {self.wl.name} config")
        return entry["rows"]

    def pinned(self, seed: int) -> list[dict] | None:
        """What every pass at ``seed`` must equal up front: the reference, at the default seed."""
        return self.reference() if seed == DEFAULT_SEED else None


# ---------------------------------------------------------------- passes


class Runner:
    """Runs one workload's sweep; ``sweep`` returns (rows, CSV lines or None)."""

    def __init__(self, dt: Drafttree, wl: Workload, tmp: Path):
        self.dt, self.wl, self.tmp = dt, wl, tmp
        self.model = None if wl.workers > 1 else build_model(dt, wl)

    def sweep(self, seed: int, workers: int | None = None, main=None):
        if self.wl.workers > 1:
            return cli_sweep(self.dt, self.wl, seed, workers or self.wl.workers, self.tmp, main)
        return library_sweep(self.dt, self.model, self.wl, seed), None


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def curve_metrics(rows: list[dict]) -> dict[str, float]:
    tree = [r for r in rows if r["mode"] == "tree"]
    chain = next(r for r in rows if r["mode"] == "chain")
    best = max(tree, key=lambda r: r["est_speedup"])
    return {
        "sim.tree_tau": sum(r["committed_tokens"] for r in tree) / sum(r["rounds"] for r in tree),
        "sim.est_speedup_best": best["est_speedup"],
        "sim.chain_tau": chain["mean_tau"],
        "sim.tau_best": best["mean_tau"],
        "sim.best_budget": best["budget"],
    }


def peak_rss_mib(wl: Workload) -> float:
    """Peak RSS of this process plus, with a pool, its largest child (KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.workers > 1:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def reference_work() -> None:
    """A fixed numpy computation, independent of drafttree, that gauges the host.

    Small-array calls (call overhead) and 256 x 256 outer products (memory
    traffic). On the host this benchmark was built on, their time tracked the
    sweeps' slowdowns better than pure-Python heap and dict work did.
    """
    row = np.linspace(0.0, 1.0, 32)
    for _ in range(3000):
        np.lexsort((row, -row))
        (row * 0.5).sum()
        np.cumsum(row)
    wide = np.linspace(0.0, 1.0, 256)
    for _ in range(750):
        wide[None, :] * wide[:, None]


def measure_end_to_end(runner: Runner, gate: Gate, seed: int, seconds: int):
    """Closed loop of untraced sweeps until ``seconds`` pass.

    The shared host's speed drifts by up to a quarter within minutes, and
    reference work slows with it, so each sweep is also expressed in units of
    the reference work timed just before and just after it (``wall_ref``).
    Set-up is probed once after each pass, so its median also spans the run.
    Returns the gated metrics, the host-time figures, the first curve and the
    pass count.
    """
    wl = runner.wl
    expected = gate.pinned(seed)
    times, ratios, setups, first, lines = [], [], [], None, None
    refs = [timed(reference_work)[0]]
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed, (rows, csv_lines) = timed(runner.sweep, seed)
        refs.append(timed(reference_work)[0])
        times.append(elapsed)
        ratios.append(elapsed / ((refs[-2] + refs[-1]) / 2))
        setups.append(setup_probe(wl))
        gate.check(rows, expected if expected is not None else first, f"pass {len(times)}")
        if first is None:
            first, lines = rows, csv_lines
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(wl))
    if wl.workers > 1:
        serial_rows, serial_lines = runner.sweep(seed, workers=1)
        gate.check(serial_rows, first, "serial run")
        gate.failed += count_line_mismatches(lines, serial_lines, "serial run")
    rounds = sum(r["rounds"] for r in first)
    wall_ref, wall_s = statistics.median(ratios), statistics.median(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": wall_ref,
        "rounds_per_ref": rounds / wall_ref,
    }
    host = {
        "wall_s": wall_s,
        "rounds_per_s": rounds / wall_s,
        "reference_s": statistics.median(refs),
        "pass_s": times,
    }
    return metrics, host, first, len(times)


def check_default_seed(runner: Runner, gate: Gate, seed: int) -> None:
    """Every run also proves the default-seed curve against reference.json."""
    if seed != DEFAULT_SEED:
        rows, _ = runner.sweep(DEFAULT_SEED)
        gate.check(rows, gate.reference(), "default seed")


# ---------------------------------------------------------------- traced passes


def light_bindings(t: Tracer, dt: Drafttree) -> list[tuple]:
    """Row boundaries only: what runs in the parent even when episodes are pooled."""
    engine, cli = dt.engine, dt.cli

    def cfg_label(model, cfg, *args, **kwargs):
        return row_label(cfg)

    return [
        (engine, "run_episodes",
         t.wrap("engine.run_episodes", engine.run_episodes, tag=cfg_label)),
        (cli, "budget_sweep", t.wrap("engine.budget_sweep", cli.budget_sweep)),
        (cli, "run_episodes", t.wrap("engine.run_episodes", cli.run_episodes, tag=cfg_label)),
        (cli, "random_model", t.wrap("models.random_model", cli.random_model)),
    ]


def full_bindings(t: Tracer, dt: Drafttree) -> list[tuple]:
    """Every layer boundary a round crosses, plus the row boundaries."""
    engine, models, treebuild, verify = dt.engine, dt.models, dt.treebuild, dt.verify
    pad = (models.PAD_TOKEN,) * ORDER

    def episode_start(model, cfg):
        t.episode = len(t.episodes)
        t.episodes.append([row_label(cfg), cfg.seed, None])

    def episode_end(result, model, cfg):
        t.episodes[t.episode][2] = result.tokens
        t.counts["rounds"] += result.stats.rounds
        t.episode = NO_SPAN

    def drafted(model, context, bonus, cfg):
        t.windows.add((pad + tuple(context[-ORDER:]) + (bonus,))[-ORDER:])

    def built(tree, block, budget):
        t.counts["heap_pops"] += tree.heap_pops
        t.counts["heap_pushes"] += tree.heap_pushes
        t.counts["nodes"] += len(tree)

    def flattened(flat, tree, bonus):
        t.counts["mask_cells"] += len(flat) ** 2

    def walked(outcome, flat, decode):
        t.counts["accepted"] += outcome.acceptance_length
        t.counts["verified"] += len(flat) - 1

    return light_bindings(t, dt) + [
        (engine, "run_episode", t.wrap("engine.run_episode", engine.run_episode,
                                       before=episode_start, after=episode_end)),
        (engine, "drafter_marginals",
         t.wrap("models.drafter_marginals", engine.drafter_marginals, before=drafted)),
        (engine, "build_tree", t.wrap("treebuild.build_tree", engine.build_tree, after=built)),
        (engine, "chain_tree", t.wrap("treebuild.chain_tree", engine.chain_tree)),
        (engine, "flatten", t.wrap("verify.flatten", engine.flatten, after=flattened)),
        (engine, "verifier_walk",
         t.wrap("verify.verifier_walk", engine.verifier_walk, after=walked)),
        (engine, "decode_next", t.wrap("engine.decode_next", engine.decode_next)),
        (engine, "target_next", t.wrap("models.target_next", engine.target_next)),
        (models, "validate_block",
         t.wrap("distributions.validate_block", models.validate_block)),
        (treebuild, "top_k_per_depth",
         t.wrap("treebuild.top_k_per_depth", treebuild.top_k_per_depth)),
        (verify, "duplicate_child_guard",
         t.wrap("verify.duplicate_child_guard", verify.duplicate_child_guard)),
    ]


def traced_sweep(runner: Runner, seed: int, full: bool, workers: int | None = None):
    """One sweep under a fresh tracer; returns (seconds, rows, CSV lines, tracer)."""
    t = Tracer()
    bindings = (full_bindings if full else light_bindings)(t, runner.dt)
    main = t.wrap("cli.main", runner.dt.cli.main)
    with rebound(bindings):
        elapsed, (rows, lines) = timed(runner.sweep, seed, workers, main)
    return elapsed, rows, lines, t


def row_seconds(t: Tracer) -> dict[str, float]:
    return {
        span[5]: (span[2] - span[1]) / 1e9
        for span in t.spans
        if span[0] == "engine.run_episodes"
    }


def full_pass_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one fully traced pass."""
    layers = summarize(t.spans)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "us": []}

    def layer(name):
        return layers.get(name, empty)

    per_row: dict[tuple[str, str], list[float]] = {}
    for name, start, end, _parent, episode, _tag in t.spans:
        if name in ("treebuild.build_tree", "verify.flatten") and episode != NO_SPAN:
            per_row.setdefault((name, t.episodes[episode][0]), []).append((end - start) / 1e3)

    def row_p50(name, budget):
        return percentile(sorted(per_row.get((name, f"B{budget}"), [])), 50)

    m: dict[str, float] = {}
    for name, fields in (
        ("treebuild.build_tree", ("calls", "self_s", "p50_us", "p90_us")),
        ("treebuild.top_k_per_depth", ("total_s",)),
        ("treebuild.chain_tree", ("total_s",)),
        ("verify.flatten", ("calls", "self_s", "p50_us")),
        ("verify.duplicate_child_guard", ("total_s",)),
        ("verify.verifier_walk", ("self_s",)),
        ("models.drafter_marginals", ("calls", "self_s", "p50_us", "p90_us")),
        ("models.target_next", ("calls", "total_s")),
        ("distributions.validate_block", ("calls", "total_s")),
        ("engine.run_episode", ("calls", "self_s")),
        ("engine.decode_next", ("calls", "self_s")),
    ):
        stats = layer(name)
        values = {
            "calls": stats["calls"],
            "self_s": stats["self_ns"] / 1e9,
            "total_s": stats["total_ns"] / 1e9,
            "p50_us": percentile(stats["us"], 50),
            "p90_us": percentile(stats["us"], 90),
        }
        for field in fields:
            m[f"{name}.{field}"] = values[field]
    for budget in REPORTED_BUDGETS:
        m[f"treebuild.build_tree.p50_us.B{budget}"] = row_p50("treebuild.build_tree", budget)
        m[f"verify.flatten.p50_us.B{budget}"] = row_p50("verify.flatten", budget)
    c = t.counts
    drafts = layer("models.drafter_marginals")["calls"]
    m.update({
        "treebuild.heap_pops": c["heap_pops"],
        "treebuild.heap_pushes": c["heap_pushes"],
        "treebuild.nodes": c["nodes"],
        "verify.mask_cells": c["mask_cells"],
        "verify.accepted_ratio": c["accepted"] / c["verified"] if c["verified"] else 0.0,
        "models.distinct_windows": len(t.windows),
        "models.window_reuse": 1.0 - len(t.windows) / drafts if drafts else 0.0,
        "engine.rounds": c["rounds"],
        "engine.decode_per_round":
            layer("engine.decode_next")["calls"] / c["rounds"] if c["rounds"] else 0.0,
        "engine.lossless_mismatches": lossless_mismatches(t.episodes),
    })
    return m


def measure_layers(runner: Runner, gate: Gate, seed: int, seconds: int):
    """Alternate lightly and fully traced sweeps until ``seconds`` pass.

    With a pool, each round of the loop is a pooled sweep traced at its row
    boundaries (which all run in the parent), then the same sweep serially,
    lightly and then fully traced: the serial light pass gives the pool
    efficiency and the tracing overhead, the full pass the layer split.
    """
    wl, dt = runner.wl, runner.dt
    expected = gate.pinned(seed)
    per_pass: list[dict[str, float]] = []
    light_s, full_s = [], []
    first = None
    deadline = time.perf_counter() + seconds
    model_s = None
    if wl.workers == 1:
        t = Tracer()
        runner.model = t.wrap("models.random_model", build_model)(dt, wl)
        model_s = (t.spans[0][2] - t.spans[0][1]) / 1e9
    while len(per_pass) < 1 or time.perf_counter() < deadline:
        m: dict[str, float] = {}
        if wl.workers > 1:
            pooled_s, rows, pooled_lines, pooled = traced_sweep(runner, seed, full=False)
            gate.check(rows, expected or first, "pooled pass")
            first = first or rows
            layers = summarize(pooled.spans)
            m["cli.main.self_s"] = layers["cli.main"]["self_ns"] / 1e9
            m["models.random_model.s"] = layers["models.random_model"]["total_ns"] / 1e9
            pooled_rows = row_seconds(pooled)
        serial_s, rows, serial_lines, light = traced_sweep(runner, seed, full=False, workers=1)
        gate.check(rows, expected or first, "light pass")
        first = first or rows
        traced_s, traced_rows, traced_lines, full = traced_sweep(runner, seed, full=True, workers=1)
        gate.check(traced_rows, rows, "traced pass")
        serial_rows = row_seconds(light)
        if wl.workers > 1:
            gate.failed += count_line_mismatches(pooled_lines, serial_lines, "serial run")
            m["engine.pool.efficiency"] = sum(serial_rows.values()) / (
                wl.workers * sum(pooled_rows.values()))
            m.update({f"engine.run_episodes.s.{k}": pooled_rows[k] for k in ROW_LABELS})
        else:
            m["cli.main.self_s"] = 0.0  # no cli layer on this path
            m["models.random_model.s"] = model_s
            m["engine.pool.efficiency"] = 1.0  # one worker: serial by definition
            m.update({f"engine.run_episodes.s.{k}": serial_rows[k] for k in ROW_LABELS})
        m.update(full_pass_metrics(full))
        if m["engine.lossless_mismatches"]:
            print(f"gate [lossless]: {m['engine.lossless_mismatches']} episodes differ "
                  "from the baseline stream", file=sys.stderr)
            gate.failed += 1
        per_pass.append(m)
        light_s.append(serial_s)
        full_s.append(traced_s)
    metrics = {}
    for name in per_pass[0]:
        # Counts repeat exactly from pass to pass; median_low keeps them integers.
        median = statistics.median_low if PER_LAYER_UNITS[name] == "count" else statistics.median
        metrics[name] = median(p[name] for p in per_pass)
    metrics["trace.overhead_s"] = statistics.median(full_s) - statistics.median(light_s)
    return metrics, first, full, len(per_pass)


# ---------------------------------------------------------------- output


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(wl: Workload, seed: int, trace: int, seconds: int, passes: int) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": wl.name,
        "seed": seed,
        "trace": bool(trace),
        "workers": wl.workers,
        "seconds": seconds,
        "passes": passes,
    }


def report(result: dict, host: dict | None, meta: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']!r:>24} {metric['unit']}")
    if host is not None:
        # Host seconds drift with the machine, so they are shown but not gated.
        for name, unit in (("wall_s", "s"), ("rounds_per_s", "1/s"), ("reference_s", "s")):
            print(f"{name:44s} {host[name]!r:>24} {unit} (host time, not gated)")
    print(f"{'rows_failed':44s} {result['failed']:>24} rows (of {result['attempted']})")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


def write_reference() -> int:
    dt = load_drafttree()
    entries = {}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for wl in WORKLOADS.values():
            # A pooled sweep must equal the serial one, so the serial curve is the reference.
            runner = Runner(dt, replace(wl, workers=1), Path(tmp))
            rows, _ = runner.sweep(DEFAULT_SEED)
            if count_failed(rows, wl, None, f"{wl.name} reference"):
                return 1
            if wl.workers > 1:
                for row in rows:
                    row["tau_histogram"] = None
            entries[wl.name] = {"config": workload_config(wl), "rows": rows}
    REFERENCE_PATH.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="base episode seed")
    parser.add_argument("--seconds", type=int, default=30, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json at the default seed and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def run(args: argparse.Namespace) -> int:
    wl = WORKLOADS[args.workload]
    dt = load_drafttree()
    gate = Gate(wl)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics, host, rows, passes = {}, None, None, 0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runner = Runner(dt, wl, Path(tmp))
        try:
            if args.trace:
                metrics, rows, full, passes = measure_layers(runner, gate, args.seed, args.seconds)
                write_tsv(OUT_DIR / f"{stem}-spans.tsv", full.spans)
            else:
                metrics, host, rows, passes = measure_end_to_end(
                    runner, gate, args.seed, args.seconds)
                metrics["peak_rss_mib"] = peak_rss_mib(wl)
            metrics.update(curve_metrics(rows))
            check_default_seed(runner, gate, args.seed)
        except BenchError:
            raise
        except Exception:
            # A sweep that raised fails all its rows; the run still reports.
            traceback.print_exc()
            gate.attempted += len(_expected_rows(wl))
            gate.failed += len(_expected_rows(wl))
    meta = metadata(wl, args.seed, args.trace, args.seconds, passes)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "result": result, "host": host, "curve": rows}, indent=1) + "\n",
        encoding="utf-8",
    )
    report(result, host, meta)
    return 0 if result["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    # build_tree's drift assert and flatten's parent-order assert are part of
    # the measured program; -O would strip them and flatter every timing.
    if sys.flags.optimize:
        print("refusing to run with assertions stripped (python -O or PYTHONOPTIMIZE)",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    try:
        return write_reference() if args.write_reference else run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
