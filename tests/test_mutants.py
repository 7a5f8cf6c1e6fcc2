"""The mutant catalogue (``tests/mutants.py``) stays applicable: each
snippet occurs exactly once in today's source.  Running the mutants is a
separate step (``python tests/mutants.py``)."""

from collections import Counter

from mutants import MUTANTS, PACKAGE


def test_every_snippet_occurs_exactly_once():
    for mutant in MUTANTS:
        text = (PACKAGE / mutant.path).read_text()
        assert text.count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet and mutant.select, mutant.name


def test_names_are_distinct():
    names = Counter(mutant.name for mutant in MUTANTS)
    assert len(MUTANTS) >= 8 and max(names.values()) == 1, names
