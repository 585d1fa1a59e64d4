"""The identity table behind `dehnsom verify`, and the built-in catalog.

Each identity is listed once, with the inputs it takes. Its least rank and
its hypothesis are stated only by its verifier, which refuses an input that
misses either with an `Inapplicable` error; `verify all` passes over those
refusals. Nothing is hard-coded beyond the generator specs of the catalog.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import balanced as bl
from . import complexes as cx
from . import posets as ps
from . import toric as tc
from .errors import Inapplicable, ParseError
from .generators import GeneratorSpec, built, parse_spec
from .reports import VerificationReport


class Identity(NamedTuple):
    kinds: tuple[str, ...]
    """Input kinds the identity takes: "complex", "balanced" or "poset"."""
    run: Callable[[object, str], VerificationReport]
    """(object of the first kind, name) -> report; looks its function up at call time."""


# input kinds; `as_kind` turns the others into the first
COMPLEX, BALANCED, POSET = ("complex", "balanced"), ("balanced", "poset"), ("poset",)

# `verify all` runs the entries that take its input, in this order
IDENTITIES: dict[str, Identity] = {
    "ds": Identity(COMPLEX, lambda X, name: cx.verify_pure_ds(X, name)),
    "flag-poset": Identity(POSET, lambda P, name: ps.verify_flag_poset(P, name)),
    "generalized": Identity(POSET, lambda P, name: tc.verify_generalized(P, name)),
    "euler-rel": Identity(POSET, lambda P, name: tc.verify_euler_relation(P, name=name)),
    "dual": Identity(POSET, lambda P, name: tc.dual_defect_report(P, name)),
    "flag-ds": Identity(BALANCED, lambda B, name: bl.verify_flag_ds(B, name)),
    "simplicial-ds": Identity(POSET, lambda P, name: ps.verify_simplicial_ds(P, name)),
    "stanley": Identity(POSET, lambda P, name: tc.verify_stanley(P, name)),
    "swartz": Identity(POSET, lambda P, name: tc.verify_swartz(P, name)),
    "1sing": Identity(POSET, lambda P, name: tc.verify_1sing(P, name)),
    "main": Identity(POSET, lambda P, name: tc.verify_main(P, name)),
    "lower-eulerian": Identity(POSET, lambda P, name: tc.verify_lower_eulerian(P, name)),
}


def _kind(obj) -> str:
    if isinstance(obj, ps.GradedPoset):
        return "poset"
    if isinstance(obj, bl.BalancedComplex):
        return "balanced"
    return "complex"


def as_kind(obj, kinds, what: str, name: str = ""):
    """``(obj, name)`` as the first of ``kinds``: a balanced complex serves as
    its complex, a poset as its order complex, named ``O(name)``. A kind not
    in ``kinds`` is a ParseError."""
    kind = _kind(obj)
    if kind not in kinds:
        hint = " (give --colors)" if kind == "complex" and "balanced" in kinds else ""
        raise ParseError(f"{what} needs a {' or '.join(kinds)} input, got a {kind}{hint}")
    if kind == kinds[0]:
        return obj, name
    if kind == "balanced":
        return obj.complex, name
    return ps.order_complex(obj), f"O({name})"


def verify(identity: str, obj, name: str) -> VerificationReport:
    """Run one identity; an input it does not take is a ParseError, and the
    verifier refuses a rank below its minimum or an unmet hypothesis."""
    entry = IDENTITIES[identity]
    return entry.run(*as_kind(obj, entry.kinds, identity, name))


def verify_all(obj, name: str, identities=IDENTITIES) -> list[VerificationReport]:
    """Every identity of ``identities`` that takes the object's kind and does
    not refuse it, in table order."""
    kind = _kind(obj)
    reports = []
    for identity, entry in IDENTITIES.items():
        if identity in identities and kind in entry.kinds:
            try:
                reports.append(verify(identity, obj, name))
            except Inapplicable:
                pass
    return reports


COMPLEX_DS_SPECS = [
    "simplex_boundary(3)",
    "simplex_boundary(4)",
    "cross_polytope(3)",
    "cycle(5)",
    "torus_7",
    "rp2_6",
    "suspension(torus_7)",
    "cone(torus_7)",
    "circle_join(3,torus_7)",
    "circle_join(4,torus_7)",
    "circle_join(5,torus_7)",
    "circle_join(6,torus_7)",
    "suspension(suspension(torus_7))",
]

ORDER_COMPLEX_SPECS = [
    "boolean_lattice(2)",
    "boolean_lattice(3)",
    "boolean_lattice(4)",
    "face_poset(torus_7,true)",
    "face_poset(rp2_6,true)",
    "face_poset(cross_polytope(3),true)",
]

POSET_SPECS = [
    "boolean_lattice(2)",
    "boolean_lattice(3)",
    "boolean_lattice(4)",
    "chain(2)",
    "chain(3)",
    "chain(4)",
    "polygon_lattice(3)",
    "polygon_lattice(5)",
    "polygon_lattice(8)",
    "face_poset(simplex_boundary(3),true)",
    "face_poset(cross_polytope(3),true)",
    "face_poset(torus_7,true)",
    "face_poset(rp2_6,true)",
    "face_poset(suspension(torus_7),true)",
    "face_poset(suspension(suspension(torus_7)),true)",
]

DUALIZED_SPECS = [
    "face_poset(torus_7,true)",
    "face_poset(suspension(torus_7),true)",
    "boolean_lattice(4)",
    "polygon_lattice(5)",
]

TORIC = tuple(n for n in IDENTITIES if n not in ("flag-poset", "flag-ds"))

# (spec, identities)
CATALOG = (
    [(spec, ("ds",)) for spec in COMPLEX_DS_SPECS]
    + [(spec, (identity,)) for spec in ORDER_COMPLEX_SPECS
       for identity in ("flag-ds", "flag-poset")]
    + [(spec, TORIC) for spec in POSET_SPECS]
    + [(f"dual({spec})", ("generalized", "main")) for spec in DUALIZED_SPECS]
)


def _nested(spec: GeneratorSpec):
    """``spec`` and every generator spec among its parameters, at any depth."""
    yield spec
    for value in spec.params:
        if isinstance(value, GeneratorSpec):
            yield from _nested(value)


def run_catalog() -> list[VerificationReport]:
    """The reports of `dehnsom verify all` without an input: the whole catalog.
    Every distinct spec, nested ones included, is generated once into one
    memo, and dropped after the last entry whose spec holds it."""
    specs = [parse_spec(text) for text, _ in CATALOG]
    last = {repr(sub): i for i, spec in enumerate(specs) for sub in _nested(spec)}
    memo, reports = {}, []
    for i, ((text, identities), spec) in enumerate(zip(CATALOG, specs)):
        reports += verify_all(built(spec, memo), text, identities)
        for key in [key for key in memo if last[key] == i]:
            del memo[key]
    return reports
