"""The toric recursion and the f→h transform against sympy's exact polynomials.

Every ĥ(q) and ĝ(q) is recomputed here from the definition (Stanley,
"Generalized h-vectors, intersection cohomology of toric varieties, and
related results", 1987) with ``sympy.Poly``: ĥ(0̂) = ĝ(0̂) = 1, and for
ρ(q) ≥ 1

    ĥ(q) = Σ_{u<q} ĝ(u)·(x−1)^{ρ(q)−1−ρ(u)},

with ĝ(q) the degree-⌊(ρ(q)−1)/2⌋ truncation of (1−x)·ĥ(q). The order
relation is read through ``GradedPoset.leq_i`` alone. Both polynomials of
``verify_generalized`` (the j-Sing identity and the graded-poset lemma) are
rebuilt from those ĥ and ĝ, the Möbius values of ``oracles.naive_mobius`` and
the formula for Σ* in the docstring of ``toric.star_sum``. sympy is a test
extra; nothing in the package imports it.
"""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st

from dehnsom.complexes import f_vector, h_from_f
from dehnsom.generators import (
    generate_from_string,
    random_pure_complex,
)
from dehnsom.posets import dual
from dehnsom.suite import POSET_SPECS
from dehnsom.toric import toric_table, verify_generalized

from conftest import seeded_poset
from oracles import naive_mobius

x = sympy.Symbol("x")


def _coeffs(poly) -> tuple:
    """Int coefficients of a sympy polynomial, lowest degree first, trailing
    zeros trimmed (the zero polynomial gives ())."""
    cs = [int(c) for c in reversed(poly.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _toric_polys(P):
    """ĥ(q) and ĝ(q) as ``sympy.Poly`` for every element q, from the definition."""
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
    return h, g


def sympy_toric(P):
    """(ĥ, ĝ) of every lower interval [0̂, q] of P, from the definition."""
    h, g = _toric_polys(P)
    return [_coeffs(h[q]) for q in range(P.n)], [_coeffs(g[q]) for q in range(P.n)]


def _assert_table_matches_sympy(P):
    table = toric_table(P)
    assert (table.h, table.g) == sympy_toric(P)


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9),
       density=st.sampled_from((0.3, 0.5, 0.8)))
def test_toric_table_matches_sympy_on_random_posets(seed, density):
    P = seeded_poset(seed, density)
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


def _reversed(poly, r):
    """x^r·p(1/x) for a polynomial p of degree at most r."""
    return sympy.Poly(sum((c * x**(r - k) for (k,), c in poly.terms()), sympy.Integer(0)), x)


def _starred_sum(hq, r):
    """Σ*(q) for an interval of rank r + 1 with toric h-polynomial ``hq``:
    Σ_{k=⌊(r+1)/2⌋+1}^{r+1} (A_{k−1} − A_k) x^k, with A_k = ĥ_{r−k} − ĥ_k
    and A_{r+1} = 0, plus (A_{k−1} − A_k)/2·x^k at k = (r+1)/2 for odd r."""
    def a(k):
        return hq.coeff_monomial(x**k) - hq.coeff_monomial(x**(r - k)) if k <= r else 0

    total = sum(((a(k - 1) - a(k)) * x**k for k in range((r + 1) // 2 + 1, r + 2)),
                sympy.Integer(0))
    if r % 2:
        k = (r + 1) // 2
        total += sympy.Rational(a(k - 1) - a(k), 2) * x**k
    return sympy.Poly(total, x)


def sympy_generalized(P):
    """(j, lhs, rhs, lemma) of ``verify_generalized``, the polynomials as ``sympy.Poly``:

    lhs = ĥ(P) − x^d ĥ(P, 1/x),
    rhs = −Σ_{ρ(q)≤d} (x−1)^{d−ρ(q)}·([ρ(q)≤j]·e(q,1̂)·x^{ρ(q)}ĝ(q,1/x)
          + [d−j<ρ(q)]·μ(q,1̂)·Σ*(q)),
    lemma = −e(0̂,1̂)(x−1)^d − Σ_{1≤ρ(q)≤d} (x−1)^{d−ρ(q)}·(μ(q,1̂)(ĝ(q) + (x−1)ĥ(q))
            + (−1)^{d−ρ(q)} x^{ρ(q)}ĝ(q,1/x)),

    with e(s,t) = μ(s,t) − (−1)^{ρ(t)−ρ(s)} and j = d + 1 − the length of the
    shortest interval with e ≠ 0 (−1 when there is none)."""
    labels, rank = P.labels, P.rank_of
    d = P.rho - 1
    _, mu = naive_mobius(list(labels), P.covers())
    index = {v: i for i, v in enumerate(labels)}
    bad = [rank[index[t]] - rank[index[s]] for (s, t), m in mu.items()
           if m != (-1) ** (rank[index[t]] - rank[index[s]])]
    j = d + 1 - min(bad) if bad else -1
    h, g = _toric_polys(P)
    top = labels[P.top_i]
    mu_top = [mu[(v, top)] for v in labels]
    e_top = [mu_top[q] - (-1) ** (d + 1 - rank[q]) for q in range(P.n)]

    def y(k):
        return sympy.Poly((x - 1)**k, x)

    lhs = h[P.top_i] - _reversed(h[P.top_i], d)
    rhs = sympy.Poly(0, x)
    lemma = -e_top[P.bottom_i] * y(d)
    for q in range(P.n):
        r = rank[q]
        if r > d:
            continue
        term = sympy.Poly(0, x)
        if r <= j:
            term += e_top[q] * _reversed(g[q], r)
        if d - j < r:
            term += mu_top[q] * _starred_sum(h[q], r - 1)
        rhs -= y(d - r) * term
        if r >= 1:
            lemma -= y(d - r) * (mu_top[q] * (g[q] + y(1) * h[q])
                                 + (-1) ** (d - r) * _reversed(g[q], r))
    return j, lhs, rhs, lemma


def _assert_generalized_matches_sympy(P):
    j, lhs, rhs, lemma = sympy_generalized(P)
    report = verify_generalized(P)
    assert report.parameters["j"] == j
    rows = {row.index: (row.lhs, row.rhs) for row in report.rows}
    for prefix, other in (("x^", rhs), ("lemma x^", lemma)):
        n = sum(1 for index in rows if index.startswith(prefix))
        assert n == max(lhs.degree(), other.degree(), P.rho - 1) + 1
        for k in range(n):
            assert rows[f"{prefix}{k}"] == (lhs.coeff_monomial(x**k), other.coeff_monomial(x**k))


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9),
       density=st.sampled_from((0.3, 0.5, 0.8)))
def test_generalized_matches_sympy_on_random_posets(seed, density):
    P = seeded_poset(seed, density)
    _assert_generalized_matches_sympy(P)
    _assert_generalized_matches_sympy(dual(P))


# Eulerian (j = −1), semi-Eulerian (j = 0) and j = 1 inputs, which the random
# posets above (j = d − 1) never reach
@pytest.mark.parametrize("spec", [
    "boolean_lattice(3)",
    "polygon_lattice(5)",
    "face_poset(torus_7,true)",
    "face_poset(rp2_6,true)",
    "dual(face_poset(torus_7,true))",
    "face_poset(suspension(torus_7),true)",
])
def test_generalized_matches_sympy_on_fixed_posets(spec):
    _assert_generalized_matches_sympy(generate_from_string(spec))
