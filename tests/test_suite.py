"""The identity table: input kinds, and each hypothesis written twice (as the
table's `applies` predicate and as the refusal inside the verifier)."""

import itertools

import pytest

from dehnsom.errors import DehnsomError, ParseError, RangeViolation
from dehnsom.generators import generate_from_string, random_graded_poset, torus_7
from dehnsom.posets import classify_poset, dual, order_complex
from dehnsom.suite import (BALANCED, COMPLEX, IDENTITIES, ORDER_COMPLEX_SPECS, POSET,
                           POSET_SPECS, as_kind, verify)


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
    with pytest.raises(RangeViolation, match="1sing needs rank >= 5, got rank 4"):
        as_kind(torus_poset, POSET, "1sing", min_rho=5)


CATALOG_POSETS = [generate_from_string(s) for s in dict.fromkeys(ORDER_COMPLEX_SPECS
                                                                  + POSET_SPECS)]
SHAPES = [(1,), (2,), (3,), (1, 1), (2, 2), (2, 3), (3, 2), (1, 2, 1), (2, 1, 2),
          (2, 2, 2), (3, 3), (2, 3, 2, 2)]
RANDOM_POSETS = [random_graded_poset(shape, density, seed) for shape, density, seed
                 in itertools.product(SHAPES, (0.3, 0.6, 1.0), range(1, 6))]
HYPOTHESES = {name: entry for name, entry in IDENTITIES.items() if entry.applies}


@pytest.mark.parametrize("posets", [CATALOG_POSETS, [dual(P) for P in CATALOG_POSETS],
                                    RANDOM_POSETS], ids=["catalog", "duals", "random"])
def test_applies_agrees_with_the_verifier_refusal(posets):
    disagree = []
    for P, (name, entry) in itertools.product(posets, HYPOTHESES.items()):
        assert P.rho >= entry.min_rho
        applies = entry.applies(classify_poset(P), P.rho)
        try:
            verify(name, P, "")
            refused = False
        except DehnsomError:
            refused = True
        if applies == refused:
            disagree.append((name, repr(P), applies))
    assert disagree == []
