"""Byte-identity regression for the CLI's file outputs.

Each case runs one subcommand with fixed flags from inside a scratch
directory, writing to a bare file name, so the manifest records the same
``--out`` as the golden copy in ``tests/golden/`` and every byte of the file
must match. The cases cover non-default cost flags and temperatures 0, 0.7
and 1. After an intended output change, rewrite the golden files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import os
import sys
from pathlib import Path

import pytest

from drafttree import cli

GOLDEN = Path(__file__).parent / "golden"

MODEL = [
    "--model-seed", "4", "--vocab-size", "8", "--order", "2",
    "--block-len", "6", "--epsilon", "0.2", "--seed", "11",
]
EPISODES = ["--episodes", "3", "--max-new-tokens", "48"]
COSTS = ["--kappa", "0.05", "--t-draft", "0.3", "--t-target", "1.5", "--t-verify-base", "0.8"]
T07 = ["--temperature", "0.7"]

# file name -> (DRAFTTREE_WORKERS, argv without --out)
CASES = {
    "sweep_greedy.csv": ("1", ["sweep", *MODEL, *EPISODES, "--budgets", "4,16,64"]),
    "sweep_t07_costs.csv": (
        "2", ["sweep", *MODEL, *EPISODES, *T07, *COSTS, "--budgets", "4,16,64"]
    ),
    "sweep_t1_order3.csv": (
        "1",
        ["sweep", "--model-seed", "9", "--vocab-size", "12", "--order", "3",
         "--concentration", "0.3", "--block-len", "5", "--temperature", "1.0",
         "--seed", "5", *EPISODES, "--budgets", "8,32", "--kappa", "0.01"],
    ),
    "histogram_greedy.csv": ("1", ["histogram", *MODEL, *EPISODES, "--budget", "16"]),
    "histogram_t07.csv": ("1", ["histogram", *MODEL, *EPISODES, *T07, "--budget", "16"]),
    "trace_greedy.jsonl": ("1", ["trace", *MODEL, "--budget", "16", "--rounds", "6"]),
    "trace_t07.jsonl": ("1", ["trace", *MODEL, *T07, "--budget", "16", "--rounds", "6"]),
}


def generate(name: str, directory: Path) -> bytes:
    """Run one case inside ``directory`` and return the file it wrote."""
    workers, argv = CASES[name]
    cwd, env = os.getcwd(), os.environ.get(cli.WORKERS_ENV)
    os.chdir(directory)
    os.environ[cli.WORKERS_ENV] = workers
    try:
        assert cli.main([*argv, "--out", name]) == 0
        return (directory / name).read_bytes()
    finally:
        os.chdir(cwd)
        if env is None:
            del os.environ[cli.WORKERS_ENV]
        else:
            os.environ[cli.WORKERS_ENV] = env


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical_to_golden(tmp_path, name):
    assert generate(name, tmp_path) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        generate(case, GOLDEN)
        print(f"wrote {GOLDEN / case}", file=sys.stderr)
