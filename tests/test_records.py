"""Result records and the balanced-complex type: immutability, equality,
reprs, and what `import dehnsom.cli` leaves out of a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from dehnsom.balanced import BalancedComplex, FlagVector
from dehnsom.complexes import FaceError, FVector, HVector, SingularityProfile, h_vector
from dehnsom.generators import GeneratorSpec, boolean_lattice, generate_from_string
from dehnsom.posets import IntervalError, PosetClassification, order_complex
from dehnsom.reports import Row, VerificationReport
from dehnsom.suite import Identity
from dehnsom.toric import CCoefficient, DefectSequence, ToricPair

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_leaves_out_slow_modules():
    # -S skips site and its .pth files, so only src/ and the stdlib are seen
    code = ("import sys, dehnsom.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == "[]\n"


@pytest.mark.parametrize("record, fields", [
    (FVector, ("entries",)),
    (HVector, ("entries", "impure")),
    (FaceError, ("face", "epsilon")),
    (SingularityProfile, ("eulerian", "semi_eulerian", "min_singular_j", "error_set")),
    (FlagVector, ("d", "values")),
    (GeneratorSpec, ("name", "params", "seed")),
    (IntervalError, ("s", "t", "e")),
    (PosetClassification, ("eulerian", "semi_eulerian", "lower_eulerian", "simplicial",
                           "min_j_sing", "max_lower_simplicial_k")),
    (ToricPair, ("h_poly", "g_poly", "h_indexed")),
    (DefectSequence, ("j", "entries")),
    (CCoefficient, ("T", "u", "v", "value")),
    (Row, ("index", "lhs", "rhs", "asserted", "note")),
    (VerificationReport, ("identity", "parameters", "rows")),
    (Identity, ("kinds", "min_rho", "applies", "run")),
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
    assert repr(GeneratorSpec("torus_7")) == "GeneratorSpec(name='torus_7', params=(), seed=None)"
    with pytest.raises(AttributeError):
        h.impure = True


@pytest.fixture(scope="module")
def hexagon():
    return order_complex(boolean_lattice(3))


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
