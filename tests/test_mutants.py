import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_each_mutant_s_snippet_occurs_once_in_its_file(mutant):
    # A refactor that moves the snippet re-expresses the mutant or retires it.
    source = (ROOT / "src" / "drafttree" / mutant.file).read_text()
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


def test_mutant_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
