import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import drafttree.cli as cli
import drafttree.engine as engine
import drafttree.treebuild as treebuild
from drafttree.cli import main, run_oracle_check
from drafttree.engine import CostModel, EpisodeConfig, budget_sweep, run_episodes
from drafttree.models import random_model


def run(argv):
    return main(argv)


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestOracleCheckCommand:
    def test_default_bounds_small_run_passes(self, capsys):
        assert run(["oracle-check", "--trials", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "RESULT: PASS" in out
        assert out.count("40 trials, 0 failures") == len(cli.ORACLE_PROPERTIES)

    def test_zero_trials_vacuous_pass(self, capsys):
        assert run(["oracle-check", "--trials", "0"]) == 0
        assert "RESULT: PASS" in capsys.readouterr().out

    def test_corrupted_builder_fails_loudly(self, capsys, monkeypatch):
        # Negative control: drop the last node from every built tree.
        real = treebuild.build_tree

        def corrupted(block, budget):
            tree = real(block, budget)
            return treebuild.DraftTree(nodes=tree.nodes[:-1], heap_pushes=tree.heap_pushes)

        monkeypatch.setattr(cli, "build_tree", corrupted)
        assert run(["oracle-check", "--trials", "10", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        # The value is derived from the nodes, so every trial sees the loss.
        assert "optimal_value: 10 trials, 10 failures [FAIL]" in out
        assert "RESULT: FAIL" in out

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--trials", "-1", "trials must be >= 0, got -1"),
            ("--max-vocab", "1", "max_vocab must be >= 2, got 1"),
            ("--max-len", "0", "max_len must be >= 1, got 0"),
            ("--max-budget", "0", "max_budget must be >= 1, got 0"),
            ("--max-budget", "32767", "max_budget must be <= 32766, got 32767"),
        ],
    )
    def test_a_bound_out_of_range_exits_2_naming_it(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as err:
            run(["oracle-check", flag, value])
        assert err.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_negative_seed_usage_error_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["oracle-check", "--seed", "-1"])
        assert err.value.code == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err

    def test_negative_seed_raises_naming_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_oracle_check(max_vocab=4, max_len=3, max_budget=8, trials=5, seed=-1)

    @pytest.mark.parametrize(
        "field,value,floor",
        [("trials", -3, 0), ("max_vocab", 1, 2), ("max_len", 0, 1), ("max_budget", 0, 1)],
    )
    def test_a_bound_below_its_floor_raises_naming_it(self, field, value, floor):
        # Before, -3 trials returned a passing report and max_vocab=1 failed inside numpy.
        bounds = dict(max_vocab=4, max_len=3, max_budget=8, trials=5, seed=1)
        with pytest.raises(ValueError, match=f"{field} must be >= {floor}, got {value}"):
            run_oracle_check(**{**bounds, field: value})

    def test_report_counts_trials(self):
        report = run_oracle_check(max_vocab=4, max_len=3, max_budget=8, trials=5, seed=1)
        assert report.passed
        assert all(report.failures[p] == 0 for p in cli.ORACLE_PROPERTIES)


MODEL_FLAGS = [
    "--model-seed", "4", "--vocab-size", "8", "--order", "2",
    "--block-len", "6", "--epsilon", "0.2", "--seed", "11",
]
SWEEP_FLAGS = MODEL_FLAGS + ["--episodes", "2", "--max-new-tokens", "40"]


class TestSweepCommand:
    def test_single_budget_yields_three_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", *SWEEP_FLAGS, "--budgets", "16", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0].startswith("# {")
        header = lines[1].split(",")
        assert header == [
            "budget", "mode", "temperature", "epsilon", "episodes",
            "rounds", "committed_tokens", "mean_tau", "est_speedup",
        ]
        rows = [line.split(",") for line in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("16", "tree"), ("6", "chain"), ("0", "baseline"),
        ]

    def test_multi_budget_rows_and_monotone_tree_tau(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            ["sweep", *SWEEP_FLAGS, "--budgets", "4,8,16,32", "--out", str(out)]
        ) == 0
        with out.open(encoding="utf-8") as fh:
            fh.readline()  # manifest
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        tree_taus = [float(r["mean_tau"]) for r in rows if r["mode"] == "tree"]
        assert tree_taus == sorted(tree_taus)
        baseline = [r for r in rows if r["mode"] == "baseline"][0]
        assert float(baseline["mean_tau"]) == 1.0
        assert float(baseline["est_speedup"]) == 1.0

    def test_full_budget_grid_yields_nine_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(
            ["sweep", "--vocab-size", "4", "--block-len", "2", "--episodes", "1",
             "--max-new-tokens", "8", "--seed", "2",
             "--budgets", "16,32,64,128,256,512,1024", "--out", str(out)]
        ) == 0
        with out.open(encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert [r["mode"] for r in rows] == ["tree"] * 7 + ["chain", "baseline"]

    def test_reproducible_byte_for_byte(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", *SWEEP_FLAGS, "--budgets", "8,16", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_manifest_replay_reproduces_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", *SWEEP_FLAGS, "--budgets", "8", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        manifest = json.loads(read_lines(out)[0][2:])
        assert manifest["subcommand"] == "sweep"
        assert manifest["version"]
        # Rebuild the command line from the manifest params and rerun.
        params = manifest["params"]
        rebuilt = ["sweep"]
        for key, value in params.items():
            flag = "--" + key.replace("_", "-")
            if key == "budgets":
                rebuilt += [flag, ",".join(str(b) for b in value)]
            else:
                rebuilt += [flag, str(value)]
        assert run(rebuilt) == 0
        assert out.read_bytes() == first

    def test_csv_is_locale_independent(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", *SWEEP_FLAGS, "--budgets", "8", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert b"," in raw and b";" not in raw.split(b"\n")[1]
        raw.decode("utf-8")

    def test_cost_flags_apply_to_library_stats(self, tmp_path):
        out = tmp_path / "sweep.csv"
        costs = ["--kappa", "0.05", "--t-draft", "0.3",
                 "--t-target", "1.5", "--t-verify-base", "0.8"]
        assert run(["sweep", *SWEEP_FLAGS, *costs, "--budgets", "4,16",
                    "--out", str(out)]) == 0
        with out.open(encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        model = random_model(4, vocab_size=8, order=2, concentration=1.0)
        base = EpisodeConfig(seed=11, max_new_tokens=40, block_len=6, drafter_noise=0.2)
        library = [r.stats for r in budget_sweep(model, base, [4, 16], episodes=2)]
        library += [run_episodes(model, replace(base, mode=m), 2) for m in ("chain", "baseline")]
        cost = CostModel(t_target=1.5, t_draft=0.3, t_verify_base=0.8, kappa=0.05)
        assert [(int(r["budget"]), r["mode"]) for r in rows] == [
            (s.budget, s.mode) for s in library
        ]
        for row, stats in zip(rows, library):
            assert float(row["mean_tau"]) == stats.mean_tau
            assert float(row["est_speedup"]) == stats.speedup(cost)
        assert rows[-1]["mode"] == "baseline" and float(rows[-1]["est_speedup"]) == 1.0
        # The library's own est_speedup keeps the default cost.
        assert float(rows[0]["est_speedup"]) != library[0].est_speedup

    def test_unsorted_budgets_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "32,16",
                 "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_unwritable_path_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8",
                 "--out", "/nonexistent-dir/sweep.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--temperature", "--epsilon", "--kappa"])
    def test_non_finite_float_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8", flag, value, "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e-4"])
    def test_bad_concentration_exits_2_with_the_model_message(
        self, tmp_path, capsys, value
    ):
        # At 1e-4 every gamma draw of some rows underflows to 0.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8", "--concentration", value,
                 "--out", str(out)])
        assert err.value.code == 2
        assert "error: concentration" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_model_table_exits_2_with_the_guard_message(
        self, tmp_path, capsys
    ):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8", "--vocab-size", "64",
                 "--order", "3", "--out", str(out)])
        assert err.value.code == 2
        assert "16777216 table entries exceed the guard" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seed", "--model-seed"])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8", flag, "-1", "--out", str(out)])
        assert err.value.code == 2
        assert f"argument {flag}: must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestHistogramCommand:
    def test_bins_and_totals(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert run(
            ["histogram", *SWEEP_FLAGS, "--budget", "16", "--out", str(out)]
        ) == 0
        with out.open(encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert [int(r["bin"]) for r in rows] == list(range(1, 8))
        tree_total = sum(int(r["tree_count"]) for r in rows)
        chain_total = sum(int(r["chain_count"]) for r in rows)
        weighted_tree = sum(int(r["bin"]) * int(r["tree_count"]) for r in rows)
        # Both modes committed the full token budget across 2 episodes.
        assert weighted_tree == 2 * 40
        assert tree_total >= 1 and chain_total >= 1

    def test_single_round_single_bin(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert run(
            ["histogram", *MODEL_FLAGS, "--episodes", "1",
             "--max-new-tokens", "1", "--budget", "16", "--out", str(out)]
        ) == 0
        with out.open(encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert sum(int(r["tree_count"]) for r in rows) == 1
        nonzero = [r for r in rows if int(r["tree_count"]) > 0]
        assert len(nonzero) == 1 and nonzero[0]["bin"] == "1"


class TestTraceCommand:
    def test_single_round_single_line(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert run(["trace", *MODEL_FLAGS, "--budget", "8",
                    "--rounds", "1", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert len(lines) == 2
        record = json.loads(lines[1])
        assert set(record) == {
            "round_index", "budget", "tree_size",
            "acceptance_length", "next_bonus", "kept_indices",
        }

    def test_zero_rounds_header_only(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        assert run(["trace", *MODEL_FLAGS, "--budget", "8",
                    "--rounds", "0", "--out", str(out)]) == 0
        lines = read_lines(out)
        assert len(lines) == 1 and lines[0].startswith("# {")

    def test_replay_is_byte_identical(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        argv = ["trace", *MODEL_FLAGS, "--budget", "8",
                "--rounds", "4", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first


class TestNodeGuard:
    @pytest.mark.parametrize("argv,count", [
        (["trace", *MODEL_FLAGS, "--budget", "32767"], "budget"),
        (["trace", *MODEL_FLAGS, "--block-len", "32767"], "block_len"),
        (["histogram", *SWEEP_FLAGS, "--budget", "32767"], "budget"),
        (["sweep", *SWEEP_FLAGS, "--budgets", "8,32767"], "budget"),
    ])
    def test_a_node_count_past_the_guard_exits_2_before_any_draft(
        self, tmp_path, monkeypatch, capsys, argv, count
    ):
        # Unguarded, trace --budget 10000000 ran for seconds toward gigabytes.
        calls = []
        for name in ("drafter_chunks", "drafter_marginals", "build_tree", "chain_tree"):
            monkeypatch.setattr(engine, name, lambda *args, name=name: calls.append(name))
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as err:
            run([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert f"error: {count} must be <= 32766, got 32767" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


def test_importing_the_cli_loads_no_process_machinery():
    # pytest itself imports concurrent.futures, so a fresh interpreter looks.
    code = (
        "import sys, drafttree.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["sweep", *SWEEP_FLAGS, "--budgets", "8"],
    ["histogram", *SWEEP_FLAGS, "--budget", "8"],
    ["trace", *MODEL_FLAGS, "--budget", "8", "--rounds", "2"],
])
def test_failed_write_exits_2_naming_the_path(capsys, argv):
    # /dev/full opens, then fails every write with ENOSPC.
    with pytest.raises(SystemExit) as err:
        run([*argv, "--out", "/dev/full"])
    assert err.value.code == 2
    assert "error: cannot write '/dev/full': [Errno 28]" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        run(["--version"])
    assert err.value.code == 0


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2
