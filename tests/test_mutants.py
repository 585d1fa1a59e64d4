"""tools/mutants.py lists textual mutants of the kernels; each must still apply."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once():
    mutants = _mutants()
    assert mutants
    for m in mutants:
        text = (ROOT / m.path).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, (m.path, m.note)
        assert m.new != m.old, m.note
    assert len({m.note for m in mutants}) == len(mutants)
