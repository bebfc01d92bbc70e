"""The mutant catalogue stays applicable: every snippet occurs exactly once
in its file, and every killing test exists.  Running the mutants is a CI
step (``python tests/mutants.py``), not a tier-1 test."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_snippet_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 8
    for m in MUTANTS:
        assert (ROOT / m.file).read_text().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet and m.tests, m.name


def test_each_killing_test_exists():
    for m in MUTANTS:
        for test in m.tests:
            path, name = test.split("::")
            name = name.split("[")[0]
            assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), (m.name, test)
