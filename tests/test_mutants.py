"""The soundness mutants' table (``mutants.MUTANTS``) matches the code:
each replaced text occurs exactly once in ``src/``, in its file, so a
refactor that moves it updates the table; ``python tests/mutants.py`` runs
the mutants themselves."""

from pathlib import Path

from mutants import MUTANTS, PACKAGE, occurrences

TESTS = Path(__file__).parent


def test_each_replaced_text_occurs_once_in_its_file():
    for m in MUTANTS:
        assert occurrences(m.text) == 1, m.name
        assert m.text in (PACKAGE / m.file).read_text(), m.name
        assert m.replacement != m.text, m.name


def test_each_soundness_mutant_names_its_killing_tests():
    """A soundness mutant names tests that exist and a level; an
    equivalent one names none and says why."""
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.level in ("claim", "digit", "equivalent"), m.name
        assert m.note, m.name
        assert bool(m.tests) == (m.level != "equivalent"), m.name
        for test in m.tests:
            file, _, function = test.partition("::")
            assert f"def {function.partition('[')[0]}(" in (TESTS.parent / file).read_text(), test
