"""Mutants the tests are known to kill, kept as a standing check.

Each row of ``MUTANTS`` breaks the program in one place. It names a file
under ``src/drafttree/``, an exact snippet that occurs once in it, the
snippet's replacement, the test node ids of which at least one must fail once
the replacement is made, and the passage of ``CHANGES.md`` that recorded the
mutant. ``tests/test_mutants.py`` checks that every snippet still occurs
exactly once in its file, so a refactor that moves the code fails naming the
mutant: re-express the row in the new code, or retire it with a CHANGES line
saying why.

    python tests/mutants.py --run

copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory
(``pyproject.toml`` puts its own directory's ``src`` first on pytest's path,
so a mutated copy needs its own), runs every row's tests there unmutated,
then applies each mutant in turn and runs its tests with ``-x``; a test
module that fails to import counts as a failed test. It exits 1
naming each mutant that survived, and 2 if a test fails unmutated.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # under src/drafttree/
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # node ids under tests/; at least one must fail
    source: str  # the CHANGES.md passage that recorded it


MUTANTS = (
    Mutant(
        "heap-seeded-from-rank-2", "treebuild.py",
        "heap = [(-logq[0][0], 1, 0, 0, ROOT_PARENT, 0.0)]",
        "heap = [(-logq[0][min(2, k - 1)], 1, min(2, k - 1), min(2, k - 1), ROOT_PARENT, 0.0)]",
        ("tests/test_treebuild.py::TestBuildTree::test_matches_exhaustive_optimum",
         "tests/test_treebuild.py::TestBuilderIdentity"),
        "with `build_tree`'s heap seeded from rank `(2,)`",
    ),
    Mutant(
        "drift-assert-deleted", "treebuild.py",
        "assert -tol <= neg_score + direct <= tol",
        "pass",
        ("tests/test_treebuild.py::TestBuildTree::test_drift_assert_runs_on_every_pop",),
        "deleting the drift assert fails the new drift test",
    ),
    Mutant(
        "sibling-takes-the-popped-sum", "treebuild.py",
        "(sibling_score, depth, code + 1, sibling, parent, parent_sum)",
        "(sibling_score, depth, code + 1, sibling, parent, direct)",
        ("tests/test_treebuild.py::TestBuilderIdentity",),
        "giving a sibling the popped node's sum fails 54 `test_treebuild.py` tests",
    ),
    Mutant(
        "rank-without-a-block-check", "treebuild.py",
        "if not isinstance(block, MarginalBlock):",
        "if False:",
        ("tests/test_treebuild.py::TestChunkedBuild::"
         "test_no_chunk_or_a_chunk_of_another_vocabulary_raises_naming_the_block",),
        "no `MarginalBlock` check in `rank`",
    ),
    Mutant(
        "missing-parent-not-checked", "treebuild.py",
        "        if parent is None:\n"
        "            raise ValueError(f\"prefix {prefix} is missing its parent; "
        "set is not prefix-closed\")\n",
        "",
        ("tests/test_treebuild.py::TestTreeFromPrefixes::test_a_parent_after_its_child_is_missing",
         "tests/test_treebuild.py::TestTreeFromPrefixes::test_rejects_non_closed_set"),
        "dropping `_tree_of_prefixes`' missing-parent check",
    ),
    Mutant(
        "child-without-its-lower-bound", "verify.py",
        "if not (0 <= index < self.size and",
        "if not (index < self.size and",
        ("tests/test_verify.py::TestPrefixView::test_an_entry_outside_the_view_has_no_child",),
        "`child` without the `0 <=` bound",
    ),
    Mutant(
        "all-pad-row-accepted", "models.py",
        "if padded.size:",
        "if False:",
        ("tests/test_models.py::TestRandomModel::"
         "test_a_row_with_mass_only_on_the_pad_is_rejected_naming_it",),
        "dropping the all-pad guard",
    ),
    Mutant(
        "decide-with-bisect-left", "engine.py",
        "from bisect import bisect_right",
        "from bisect import bisect_left as bisect_right",
        ("tests/test_engine.py::TestDecisionRows::test_a_uniform_on_a_step_takes_the_next_token",),
        "`bisect_left` in `_decide`",
    ),
    Mutant(
        "decide-past-the-last-read", "engine.py",
        "reach, last = cfg.block_len + 1, end + cfg.block_len",
        "reach, last = cfg.block_len + 1, end + cfg.block_len + 1",
        ("tests/test_engine.py::TestDecidedSequence::"
         "test_a_stored_sequence_is_decode_next_s_position_by_position",),
        "deciding past `end + block_len` in the first span or in the loop's",
    ),
    Mutant(
        "sequence-keyed-without-prompt-len", "engine.py",
        "seq_key = (cfg.seed, cfg.prompt_len, cfg.temperature)",
        "seq_key = (cfg.seed, cfg.temperature)",
        ("tests/test_engine.py::TestDecidedSequence::"
         "test_a_stored_sequence_is_decode_next_s_position_by_position",
         "tests/test_reference_episode.py::TestReferenceEpisode::test_rows_in_one_scope_equal_reference"),
        "a stream keyed by `(seed, temperature)`",
    ),
    Mutant(
        "walk-the-whole-stored-tree", "engine.py",
        "flat = entry[1].prefix(budget + 1)",
        "flat = entry[1]",
        ("tests/test_engine.py::TestDraftCache::test_scoped_rows_equal_unscoped_rows",
         "tests/test_reference_episode.py::TestGreedyRoundMemo",
         "tests/test_golden.py::test_output_is_byte_identical_to_golden"),
        "a walk of the whole stored tree instead of `prefix(budget + 1)`",
    ),
    Mutant(
        "chain-path-written-unconditionally", "engine.py",
        "if len(tree.row_argmax) > len(paths.get(window, ())):",
        "if True:",
        ("tests/test_engine.py::TestDraftCache::test_a_tree_never_shortens_a_stored_path",),
        "writing the tree's path unconditionally in `tree_round` fails the guard test",
    ),
    Mutant(
        "stop-read-at-the-cursor", "engine.py",
        "while n < end and seq[n - 1] != cfg.eos_token",
        "while n < end and seq[n] != cfg.eos_token",
        ("tests/test_engine.py::TestStatsBookkeeping::test_eos_stops_episode",
         "tests/test_reference_episode.py::TestReferenceEpisode::test_engine_equals_reference"),
        "reading `seq[n]` for the stop",
    ),
    Mutant(
        "greedy-memo-without-the-budget", "engine.py",
        "greedy_rounds[cfg.mode, budget]",
        "greedy_rounds[cfg.mode, 0]",
        ("tests/test_reference_episode.py::TestGreedyRoundMemo",
         "tests/test_engine.py::TestDraftCache::test_any_rows_in_a_scope_equal_the_rows_unscoped"),
        "the greedy memo keyed without the budget, or without the mode",
    ),
    Mutant(
        "episode-seeds-not-kept", "engine.py",
        "seed=store.episode_seed(cfg.seed, i)",
        "seed=episode_seed(cfg.seed, i)",
        ("tests/test_engine.py::TestDecidedSequence::test_a_scope_derives_each_episode_seed_once",),
        "`run_episodes` calling the module's `episode_seed`",
    ),
)


def _pytest(root: Path, tests: list[str], *options: str) -> int:
    """Run pytest on ``tests`` in ``root``, reading ``root``'s sources only; return its exit code."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests]
    return subprocess.run(command, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutants: list[Mutant]) -> int:
    """Apply each mutant in a copy of the checkout; 0 if every one is killed."""
    with tempfile.TemporaryDirectory(prefix="drafttree-mutants-") as tmp:
        root = Path(tmp)
        shutil.copytree(ROOT / "src", root / "src")
        shutil.copytree(ROOT / "tests", root / "tests")
        shutil.copy2(ROOT / "pyproject.toml", root / "pyproject.toml")
        if _pytest(root, sorted({t for m in mutants for t in m.tests})) != 0:
            print("the mutants' tests fail on the unmutated sources", file=sys.stderr)
            return 2
        survivors = []
        for mutant in mutants:
            path = root / "src" / "drafttree" / mutant.file
            text = path.read_text()
            if text.count(mutant.snippet) != 1:
                print(f"{mutant.id}: snippet does not occur exactly once", file=sys.stderr)
                return 2
            path.write_text(text.replace(mutant.snippet, mutant.replacement))
            try:
                code = _pytest(root, list(mutant.tests), "-x", "--continue-on-collection-errors")
            finally:
                path.write_text(text)
            killed = code == 1  # a test failed, or a test module failed to import
            print(f"{'killed' if killed else 'SURVIVED'}  {mutant.id}")
            if not killed:
                survivors.append(mutant.id)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--run", action="store_true", help="apply and test every mutant")
    args = parser.parse_args(argv)
    if not args.run:
        parser.print_help()
        return 0
    return run(list(MUTANTS))


if __name__ == "__main__":
    sys.exit(main())
