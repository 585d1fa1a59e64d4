"""Result records and the balanced-complex type: immutability, equality,
reprs, what `import dehnsom.cli` leaves out of a fresh process, the README's
library example, and the README's lists of identities and generators."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dehnsom.balanced import BalancedComplex, FlagVector
from dehnsom.complexes import FaceError, FVector, HVector, SingularityProfile, h_vector
from dehnsom.generators import _CATALOG, GeneratorSpec, boolean_lattice, generate_from_string
from dehnsom.posets import PosetClassification, order_complex
from dehnsom.reports import Row, VerificationReport
from dehnsom.suite import IDENTITIES, Identity
from dehnsom.toric import DefectSequence, ToricPair

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def test_cli_import_leaves_out_slow_modules():
    # -S skips site and its .pth files, so only src/ and the stdlib are seen
    code = ("import sys, dehnsom.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'pathlib'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "[]\n"


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    stated = []
    # a line `expr  # literal` states the value of expr
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == value, line
        stated.append(value)
    assert stated == [(1, 4, 10, -1), 1, True]
    assert "result: PASS" in capsys.readouterr().out


def test_readme_lists_every_identity_and_generator():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    identities = readme.split("Identities:", 1)[1].split(".", 1)[0]
    assert [k for k in IDENTITIES if f"`{k}`" not in identities] == []
    catalog = readme.split("\nCatalog:", 1)[1].split("\n\n", 1)[0]
    assert [k for k in _CATALOG if f"`{k}`" not in catalog and f"`{k}(" not in catalog] == []


@pytest.mark.parametrize("record, fields", [
    (FVector, ("entries",)),
    (HVector, ("entries", "impure")),
    (FaceError, ("face", "epsilon")),
    (SingularityProfile, ("eulerian", "semi_eulerian", "min_singular_j", "error_set")),
    (FlagVector, ("d", "values")),
    (GeneratorSpec, ("name", "params")),
    # explicit ids keep each case's name when an entry before it is removed
    pytest.param(PosetClassification, ("eulerian", "semi_eulerian", "lower_eulerian",
                                       "simplicial", "min_j_sing", "max_lower_simplicial_k"),
                 id="PosetClassification-fields7"),
    pytest.param(ToricPair, ("h_poly", "g_poly", "h_indexed"), id="ToricPair-fields8"),
    pytest.param(DefectSequence, ("j", "entries"), id="DefectSequence-fields9"),
    pytest.param(Row, ("index", "lhs", "rhs", "asserted", "note"), id="Row-fields11"),
    pytest.param(VerificationReport, ("identity", "parameters", "rows"),
                 id="VerificationReport-fields12"),
    pytest.param(Identity, ("kinds", "run"), id="Identity-fields13"),
])
def test_record_fields_keep_their_order(record, fields):
    assert record._fields == fields


def test_record_reprs_and_indexing():
    h = h_vector(generate_from_string("torus_7"))
    assert repr(h) == "HVector(entries=(1, 4, 10, -1), impure=False)"
    assert h[3] == -1 and h._replace(impure=True).impure
    f = FVector((1, 3, 3))
    assert (f[-1], f[1], f.d) == (1, 3, 2)  # indexed by dimension
    assert DefectSequence(0, (2, 0, -2))[2] == -2
    assert FlagVector(2, {0b11: 5})[[1, 2]] == 5
    assert repr(Row("k=0", 1, 1)) == "Row(index='k=0', lhs=1, rhs=1, asserted=True, note='')"
    assert repr(GeneratorSpec("torus_7")) == "GeneratorSpec(name='torus_7', params=())"
    with pytest.raises(AttributeError):
        h.impure = True


def test_balanced_complex_is_immutable(hexagon):
    for name in ("complex", "kappa", "color_relabeling", "face_colors", "other"):
        with pytest.raises(AttributeError):
            setattr(hexagon, name, None)
    with pytest.raises(TypeError):
        hash(hexagon)


def test_balanced_complex_equality_ignores_face_colors(hexagon):
    twin = BalancedComplex(hexagon.complex, dict(hexagon.kappa))
    assert twin == hexagon and not twin != hexagon
    object.__setattr__(twin, "face_colors", ())
    assert twin == hexagon
    assert BalancedComplex(hexagon.complex, hexagon.kappa, {1: 1}) != hexagon
    assert hexagon != hexagon.complex


def test_balanced_complex_repr():
    assert repr(order_complex(boolean_lattice(2))) == (
        "BalancedComplex(complex=SimplicialComplex(dim=0, f=(1, 2)), "
        "kappa={'1': 1, '2': 1}, color_relabeling=None)")
