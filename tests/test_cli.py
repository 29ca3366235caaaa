import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
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

    def test_negative_trials_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["oracle-check", "--trials", "-1"])
        assert err.value.code == 2

    def test_negative_seed_usage_error_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["oracle-check", "--seed", "-1"])
        assert err.value.code == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err

    def test_negative_seed_raises_naming_it(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run_oracle_check(max_vocab=4, max_len=3, max_budget=8, trials=5, seed=-1)

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
    def test_single_budget_yields_three_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_multi_budget_rows_and_monotone_tree_tau(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_full_budget_grid_yields_nine_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_reproducible_byte_for_byte(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        out = tmp_path / "sweep.csv"
        argv = ["sweep", *SWEEP_FLAGS, "--budgets", "8,16", "--out", str(out)]
        assert run(argv) == 0
        first = out.read_bytes()
        assert run(argv) == 0
        assert out.read_bytes() == first

    def test_manifest_replay_reproduces_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_csv_is_locale_independent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        out = tmp_path / "sweep.csv"
        assert run(["sweep", *SWEEP_FLAGS, "--budgets", "8", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert b"," in raw and b";" not in raw.split(b"\n")[1]
        raw.decode("utf-8")

    def test_cost_flags_apply_to_library_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_unwritable_path_exits_2(self, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8",
                 "--out", "/nonexistent-dir/sweep.csv"])
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--temperature", "--epsilon", "--kappa"])
    def test_non_finite_float_exits_2(self, tmp_path, monkeypatch, flag, value):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8", flag, value, "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e-4"])
    def test_bad_concentration_exits_2_with_the_model_message(
        self, tmp_path, monkeypatch, capsys, value
    ):
        # At 1e-4 every gamma draw of some rows underflows to 0.
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8", "--concentration", value,
                 "--out", str(out)])
        assert err.value.code == 2
        assert "error: concentration" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_model_table_exits_2_with_the_guard_message(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_bad_workers_env_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "zero")
        with pytest.raises(SystemExit) as err:
            run(["sweep", *SWEEP_FLAGS, "--budgets", "8",
                 "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2


class TestHistogramCommand:
    def test_bins_and_totals(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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

    def test_single_round_single_bin(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
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


class TestOnePoolPerCommand:
    ARGVS = [
        ["sweep", *SWEEP_FLAGS, "--budgets", "4,8,16"],
        ["histogram", *SWEEP_FLAGS, "--budget", "16"],
    ]

    def helpers_started(self, tmp_path, monkeypatch, argv, workers):
        """Run ``argv`` with ``workers`` real processes, check its rows equal a
        serial run's, and return the worker count of each helper started."""
        pools = []

        def recording(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", recording)
        monkeypatch.setenv(cli.WORKERS_ENV, str(workers))
        pooled = tmp_path / "pooled.csv"
        assert run([*argv, "--out", str(pooled)]) == 0
        started = list(pools)
        monkeypatch.setenv(cli.WORKERS_ENV, "1")
        serial = tmp_path / "serial.csv"
        assert run([*argv, "--out", str(serial)]) == 0
        assert pools == started  # a serial run starts no helper
        assert read_lines(pooled)[1:] == read_lines(serial)[1:]
        return started

    @pytest.mark.parametrize("argv", ARGVS)
    def test_rows_share_one_pool_and_match_serial(self, tmp_path, monkeypatch, argv):
        assert self.helpers_started(tmp_path, monkeypatch, argv, 2) == [1]

    @pytest.mark.parametrize("argv", ARGVS)
    def test_three_workers_share_two_helpers_and_match_serial(self, tmp_path, monkeypatch, argv):
        argv = [*argv, "--episodes", "3"]  # one episode per slice
        assert self.helpers_started(tmp_path, monkeypatch, argv, 3) == [1, 1]


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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["sweep", *SWEEP_FLAGS, "--budgets", "8"],
    ["histogram", *SWEEP_FLAGS, "--budget", "8"],
    ["trace", *MODEL_FLAGS, "--budget", "8", "--rounds", "2"],
])
def test_failed_write_exits_2_naming_the_path(monkeypatch, capsys, argv):
    # /dev/full opens, then fails every write with ENOSPC.
    monkeypatch.setenv(cli.WORKERS_ENV, "1")
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
