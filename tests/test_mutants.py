"""tools/mutants.py lists textual mutants of the kernels; each must still apply,
and each mutant's kill set is read from pytest's JUnit XML."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once():
    mutants = _tool().MUTANTS
    assert mutants
    for m in mutants:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, (m.path, m.note)
        assert m.new != m.old, m.note
    assert len({m.note for m in mutants}) == len(mutants)


def test_kill_sets_name_tests_and_uncollected_modules(tmp_path):
    report = tmp_path / "junit.xml"
    report.write_text(
        '<testsuites><testsuite name="pytest">'
        '<testcase classname="tests.test_a" name="test_ok" />'
        '<testcase classname="tests.test_a" name="test_bad[1]"><failure /></testcase>'
        '<testcase classname="" name="tests.test_b"><error /></testcase>'
        '</testsuite></testsuites>')
    assert _tool()._failed(report) == (
        ["tests.test_a::test_ok", "tests.test_a::test_bad[1]", "::tests.test_b"],
        ["tests.test_a::test_bad[1]", "::tests.test_b"])
