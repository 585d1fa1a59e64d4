"""The identity table behind `dehnsom verify`, and the built-in catalog.

Each identity is listed once, with the inputs it takes, the least poset rank
it is defined for and the hypothesis under which `verify all` runs it. The
hypotheses are re-derived from each object's classification; nothing is
hard-coded beyond the generator specs of the catalog.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import balanced as bl
from . import complexes as cx
from . import posets as ps
from . import toric as tc
from .errors import ParseError, RangeViolation
from .generators import generate_from_string
from .reports import VerificationReport


class Identity(NamedTuple):
    kinds: tuple[str, ...]
    """Input kinds the identity takes: "complex", "balanced" or "poset"."""
    min_rho: int
    """Least rank of a poset input; below it the identity is undefined."""
    applies: Callable[[ps.PosetClassification, int], bool] | None
    """Hypothesis on (classification, rank) for `verify all` on a poset; None if none."""
    run: Callable[[object, str], VerificationReport]
    """(object, name) -> report; looks its function up in the module at call time."""


def _flag_ds(obj, name: str) -> VerificationReport:
    if isinstance(obj, ps.GradedPoset):
        obj, name = ps.order_complex(obj), f"O({name})"
    return bl.verify_flag_ds(obj, name)


POSET = ("poset",)

# `verify all` runs the applicable entries in this order
IDENTITIES: dict[str, Identity] = {
    "ds": Identity(("complex", "balanced"), 0, None,
                   lambda X, name: cx.verify_pure_ds(getattr(X, "complex", X), name)),
    "flag-poset": Identity(POSET, 1, None, lambda P, name: ps.verify_flag_poset(P, name)),
    "generalized": Identity(POSET, 1, None,
                            lambda P, name: tc.verify_generalized(P, name)),
    "euler-rel": Identity(POSET, 0, None,
                          lambda P, name: tc.verify_euler_relation(P, name=name)),
    "dual": Identity(POSET, 0, None, lambda P, name: tc.dual_defect_report(P, name)),
    "flag-ds": Identity(("balanced", "poset"), 1, None, _flag_ds),
    "simplicial-ds": Identity(POSET, 0, lambda c, rho: c.simplicial,
                              lambda P, name: ps.verify_simplicial_ds(P, name)),
    "stanley": Identity(POSET, 1, lambda c, rho: c.eulerian,
                        lambda P, name: tc.verify_stanley(P, name)),
    "swartz": Identity(POSET, 0, lambda c, rho: c.min_j_sing <= 0,
                       lambda P, name: tc.verify_swartz(P, name)),
    "1sing": Identity(POSET, 2, lambda c, rho: c.min_j_sing <= 1,
                      lambda P, name: tc.verify_1sing(P, name)),
    "main": Identity(POSET, 0, lambda c, rho: rho - 1 > 2 * c.min_j_sing,
                     lambda P, name: tc.verify_main(P, name)),
    "lower-eulerian": Identity(POSET, 0, lambda c, rho: c.lower_eulerian,
                               lambda P, name: tc.verify_lower_eulerian(P, name)),
}


def _kind(obj) -> str:
    if isinstance(obj, ps.GradedPoset):
        return "poset"
    if isinstance(obj, bl.BalancedComplex):
        return "balanced"
    return "complex"


def verify(identity: str, obj, name: str) -> VerificationReport:
    """Run one identity; an input it does not take or a rank below its
    minimum is a validation error, as is a failed hypothesis inside it."""
    entry = IDENTITIES[identity]
    kind = _kind(obj)
    if kind not in entry.kinds:
        hint = " (give --colors)" if kind == "complex" and "balanced" in entry.kinds else ""
        raise ParseError(f"{identity} needs a {' or '.join(entry.kinds)} input, "
                         f"got a {kind}{hint}")
    if kind == "poset" and obj.rho < entry.min_rho:
        raise RangeViolation(f"{identity} needs rank >= {entry.min_rho}, got rank {obj.rho}")
    return entry.run(obj, name)


def verify_all(obj, name: str, identities=IDENTITIES) -> list[VerificationReport]:
    """Every identity of ``identities`` whose input kind, minimum rank and
    hypothesis the object meets, in table order."""
    kind = _kind(obj)
    reports = []
    for identity, entry in IDENTITIES.items():
        if identity not in identities or kind not in entry.kinds:
            continue
        if kind == "poset":
            if obj.rho < entry.min_rho:
                continue
            if entry.applies and not entry.applies(ps.classify_poset(obj), obj.rho):
                continue
        reports.append(entry.run(obj, name))
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

# (spec, identities); "dual(X)" names the dual of the poset X
CATALOG = (
    [(spec, ("ds",)) for spec in COMPLEX_DS_SPECS]
    + [(spec, (identity,)) for spec in ORDER_COMPLEX_SPECS
       for identity in ("flag-ds", "flag-poset")]
    + [(spec, TORIC) for spec in POSET_SPECS]
    + [(f"dual({spec})", ("generalized", "main")) for spec in DUALIZED_SPECS]
)


def _build(spec: str):
    if spec.startswith("dual("):
        return ps.dual(generate_from_string(spec[len("dual("):-1]))
    return generate_from_string(spec)


def run_catalog() -> list[VerificationReport]:
    """The reports of `dehnsom verify all` without an input: the whole catalog."""
    reports = []
    for spec, identities in CATALOG:
        reports += verify_all(_build(spec), spec, identities)
    return reports
