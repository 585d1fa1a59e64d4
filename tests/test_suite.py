"""The identity table: input kinds, and the refusals that only the verifiers
state. Each verifier refuses a rank below its minimum or an unmet hypothesis
with an `Inapplicable` error before it builds any table, and `verify all`
runs exactly the identities that do not refuse."""

import itertools
import json

import pytest

from dehnsom.cli import main
from dehnsom.complexes import SimplicialComplex
from dehnsom import generators, suite
from dehnsom import toric as tc
from dehnsom.errors import Inapplicable, InternalError, ParseError, RangeViolation
from dehnsom.generators import (GeneratorSpec, boolean_lattice, chain, generate_from_string,
                                parse_spec, random_graded_poset, torus_7)
from dehnsom.posets import (classify_poset, dual, flag_alpha_beta, order_complex,
                            verify_flag_poset)
from dehnsom.reports import VerificationReport
from dehnsom.suite import (BALANCED, CATALOG, COMPLEX, IDENTITIES, ORDER_COMPLEX_SPECS,
                           POSET, POSET_SPECS, as_kind, verify, verify_all)
from dehnsom.toric import verify_1sing, verify_generalized, verify_stanley


def test_as_kind_converts_to_the_first_kind(torus_poset):
    torus = torus_7()
    assert as_kind(torus, COMPLEX, "ds", "T") == (torus, "T")
    bal = order_complex(torus_poset)
    assert as_kind(bal, COMPLEX, "ds", "B") == (bal.complex, "B")
    assert as_kind(bal, BALANCED, "flag-ds", "B") == (bal, "B")
    assert as_kind(torus_poset, BALANCED, "flag-ds", "P") == (bal, "O(P)")
    assert as_kind(torus_poset, POSET, "main", "P") == (torus_poset, "P")
    with pytest.raises(ParseError, match="main needs a poset input, got a complex$"):
        as_kind(torus, POSET, "main")


SHAPES = [(1,), (2,), (3,), (1, 1), (2, 2), (2, 3), (3, 2), (1, 2, 1), (2, 1, 2),
          (2, 2, 2), (3, 3), (2, 3, 2, 2)]


def _catalog_posets():
    return [generate_from_string(s) for s in dict.fromkeys(ORDER_COMPLEX_SPECS + POSET_SPECS)]


CORPORA = {
    "catalog": _catalog_posets,
    "duals": lambda: [dual(P) for P in _catalog_posets()],
    "random": lambda: [random_graded_poset(shape, density, seed) for shape, density, seed
                       in itertools.product(SHAPES, (0.3, 0.6, 1.0), range(1, 6))],
    "low-rank": lambda: [chain(0), chain(1), boolean_lattice(0), boolean_lattice(1)],
}
ON_POSETS = [name for name, entry in IDENTITIES.items() if "poset" in entry.kinds]

# the functions that build the tables a verifier reads; a refusal reads none
BUILDERS = ["toric_table", "end_errors", "_alpha_table", "_chain_error_buckets",
            "defect_sequence", "mobius_row", "dual"]


class Built(Exception):
    """A builder ran where only a refusal was expected."""


def _outcome(name, P):
    """The report of ``verify``, or its refusal as (class, message)."""
    try:
        return verify(name, P, "P")
    except Inapplicable as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module", params=list(CORPORA))
def corpus(request):
    """The posets of one corpus, and for each the outcome of every identity
    on posets."""
    posets = CORPORA[request.param]()
    return posets, [[_outcome(name, P) for name in ON_POSETS] for P in posets]


def test_verify_all_skips_exactly_the_refusals(corpus):
    refused = 0
    for P, outcomes in zip(*corpus):
        ran = [o for o in outcomes if isinstance(o, VerificationReport)]
        refused += len(outcomes) - len(ran)
        assert verify_all(P, "P") == ran
    assert refused  # every corpus has posets that some identity refuses


def test_refusals_come_before_any_table(corpus, tripwire):
    posets, outcomes = corpus
    expected = [[(name, o) for name, o in zip(ON_POSETS, row)
                 if not isinstance(o, VerificationReport)] for row in outcomes]
    for P in posets:
        classify_poset(P)  # cached before the Möbius rows it reads stop working

    assert tripwire(Built, BUILDERS) >= len(BUILDERS)
    assert tripwire(Built, ["from_masks"], SimplicialComplex) == 1
    for P, refusals in zip(posets, expected):
        assert [(name, _outcome(name, P)) for name, _ in refusals] == refusals


@pytest.mark.parametrize("call, identity, spec", [
    (verify_flag_poset, "flag-poset", "chain(0)"),
    (lambda P: flag_alpha_beta(P, []), "flag-poset", "chain(0)"),
    (verify_generalized, "generalized", "chain(0)"),
    (verify_stanley, "stanley", "chain(0)"),
    (verify_1sing, "1sing", "chain(1)"),
], ids=["verify_flag_poset", "flag_alpha_beta", "verify_generalized", "verify_stanley",
        "verify_1sing"])
def test_library_calls_below_the_minimum_rank_refuse_as_the_cli_does(call, identity, spec,
                                                                     capsys):
    assert main(["verify", identity, "--gen", spec]) == 2
    diag = json.loads(capsys.readouterr().err)
    with pytest.raises(RangeViolation) as refusal:
        call(generate_from_string(spec))
    assert {"error": "RangeViolation", "message": str(refusal.value)} == diag


def test_verify_all_lets_other_errors_through(monkeypatch):
    def tripwire(P, name=""):
        raise InternalError("tripwire")

    monkeypatch.setattr(tc, "verify_swartz", tripwire)
    with pytest.raises(InternalError, match="tripwire"):
        verify_all(chain(2), "P")


def _nested_specs(text):
    """The spec strings of ``text`` and of every generator call inside it."""
    stack, found = [parse_spec(text)], []
    while stack:
        spec = stack.pop()
        found.append(repr(spec))
        stack += [p for p in spec.params if isinstance(p, GeneratorSpec)]
    return found


def test_run_catalog_builds_each_spec_once(monkeypatch):
    built, served = [], []
    generate = generators.generate

    def counting_generate(spec, memo=None):
        built.append(repr(spec))
        return generate(spec, memo)

    def recording_verify_all(obj, name, identities=IDENTITIES):
        served.append((obj, name))  # holds every object, so no id is reused
        return verify_all(obj, name, identities)

    monkeypatch.setattr(generators, "generate", counting_generate)
    monkeypatch.setattr(suite, "verify_all", recording_verify_all)
    suite.run_catalog()
    assert len(CATALOG) == len(served) == 44
    # nested specs are shared too: one generate call per distinct spec at any
    # depth (56 calls when each entry built its own inner objects)
    assert len(built) == len(set(built)) == 32
    assert set(built) == {s for text, _ in CATALOG for s in _nested_specs(text)}
    assert [name for _, name in served] == [spec for spec, _ in CATALOG]
    # one object per spec string, and never one object for two of them
    spec_of = {}
    for obj, name in served:
        assert spec_of.setdefault(id(obj), name) == name
    assert len(spec_of) == 32
