"""The toric recursion and the f→h transform against sympy's exact polynomials.

Every ĥ(q) and ĝ(q) is recomputed here from the definition (Stanley,
"Generalized h-vectors, intersection cohomology of toric varieties, and
related results", 1987) with ``sympy.Poly``: ĥ(0̂) = ĝ(0̂) = 1, and for
ρ(q) ≥ 1

    ĥ(q) = Σ_{u<q} ĝ(u)·(x−1)^{ρ(q)−1−ρ(u)},

with ĝ(q) the degree-⌊(ρ(q)−1)/2⌋ truncation of (1−x)·ĥ(q). The order
relation is read through ``GradedPoset.leq_i`` alone. sympy is a test extra;
nothing in the package imports it.
"""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st

from dehnsom.complexes import f_vector, h_from_f
from dehnsom.generators import (
    generate_from_string,
    random_graded_poset,
    random_pure_complex,
)
from dehnsom.posets import dual
from dehnsom.suite import POSET_SPECS
from dehnsom.toric import toric_table

x = sympy.Symbol("x")
RANKS = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2), (1, 3, 1, 3, 1))


def _coeffs(poly) -> tuple:
    """Int coefficients of a sympy polynomial, lowest degree first, trailing
    zeros trimmed (the zero polynomial gives ())."""
    cs = [int(c) for c in reversed(poly.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def sympy_toric(P):
    """(ĥ, ĝ) of every lower interval [0̂, q] of P, from the definition."""
    one = sympy.Poly(1, x)
    power = [one]  # power[k] = (x−1)^k
    for _ in range(P.rho):
        power.append(power[-1] * sympy.Poly(x - 1, x))
    h, g = {}, {}
    for q in sorted(range(P.n), key=lambda i: P.rank_of[i]):
        rq = P.rank_of[q]
        if rq == 0:
            h[q] = g[q] = one
            continue
        hq = sympy.Poly(0, x)
        for u in range(P.n):
            if u != q and P.leq_i(u, q):
                hq += g[u] * power[rq - 1 - P.rank_of[u]]
        h[q] = hq
        shifted = sympy.Poly(1 - x, x) * hq
        g[q] = sympy.Poly(sum((c * x**k for (k,), c in shifted.terms()
                               if k <= (rq - 1) // 2), sympy.Integer(0)), x)
    return [_coeffs(h[q]) for q in range(P.n)], [_coeffs(g[q]) for q in range(P.n)]


def _assert_table_matches_sympy(P):
    table = toric_table(P)
    assert (table.h, table.g) == sympy_toric(P)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9),
       density=st.sampled_from((0.3, 0.5, 0.8)))
def test_toric_table_matches_sympy_on_random_posets(seed, density):
    P = random_graded_poset(RANKS[seed % len(RANKS)], density, seed)
    _assert_table_matches_sympy(P)
    _assert_table_matches_sympy(dual(P))


@pytest.mark.parametrize("n", range(2, 6))
def test_toric_table_matches_sympy_on_boolean_lattices(n):
    _assert_table_matches_sympy(generate_from_string(f"boolean_lattice({n})"))


@pytest.mark.parametrize("spec", [s for s in POSET_SPECS if s.startswith("face_poset(")])
def test_toric_table_matches_sympy_on_catalog_face_posets(spec):
    _assert_table_matches_sympy(generate_from_string(spec))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_h_from_f_matches_sympy(seed):
    # Σ_i h_i x^{d−i} = Σ_i f_{i−1} (x−1)^{d−i}
    cx = random_pure_complex(1 + seed % 4, 5 + seed % 4, 0.5, seed)
    f = f_vector(cx).entries
    d = len(f) - 1
    expansion = sympy.Poly(sum((f[i] * (x - 1) ** (d - i) for i in range(d + 1)),
                               sympy.Integer(0)), x)
    assert h_from_f(f, d) == tuple(int(expansion.coeff_monomial(x ** (d - i)))
                                   for i in range(d + 1))
