from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.complexes import h_vector
from dehnsom.errors import (
    BadArguments,
    InternalError,
    NotLowerEulerian,
    NotOneSing,
    ParityNotApplicable,
    RangeViolation,
)
from dehnsom.generators import (
    boolean_lattice,
    chain,
    cycle,
    face_poset,
    polygon_lattice,
    random_graded_poset,
    simplex_boundary,
    cross_polytope,
    generate_from_string,
)
from dehnsom.polynomial import ExactPolynomial, binom, sign
from dehnsom.posets import chain_error, classify_poset, dual, min_j_sing_flat
from dehnsom.suite import POSET_SPECS
from dehnsom.toric import (
    coeff_C,
    defect_sequence,
    dual_defect_report,
    lower_eulerian_defect,
    star_sum,
    toric_pair,
    toric_table,
    verify_1sing,
    verify_euler_relation,
    verify_generalized,
    verify_lower_eulerian,
    verify_main,
    verify_stanley,
    verify_swartz,
)

from oracles import iter_chains, naive_toric, p_trim, pairwise_toric


def _assert_toric_matches_naive(p):
    pair = toric_pair(p)
    naive_h, naive_g = naive_toric(list(p.labels), p.covers())
    assert list(pair.h_poly.coeffs) == naive_h
    assert list(pair.g_poly.coeffs) == naive_g


def test_trivial_poset():
    pair = toric_pair(chain(0))
    assert pair.h_poly == ExactPolynomial.one()
    assert pair.g_poly == ExactPolynomial.one()


def test_b2_hand_unrolled_and_naive():
    b2 = boolean_lattice(2)
    pair = toric_pair(b2)
    assert pair.h_poly == ExactPolynomial((1, 1))  # 1 + x
    assert pair.h_indexed == {0: 1, 1: 1}
    naive_h, naive_g = naive_toric(list(b2.labels), b2.covers())
    assert list(pair.h_poly.coeffs) == naive_h
    assert list(pair.g_poly.coeffs) == naive_g


@pytest.mark.parametrize("maker", [
    lambda: boolean_lattice(3), lambda: chain(3), lambda: polygon_lattice(4),
    lambda: chain(4),
])
def test_toric_against_naive_recursion(maker):
    _assert_toric_matches_naive(maker())


@pytest.mark.parametrize("spec", POSET_SPECS)
def test_toric_coefficients_are_ints(spec):
    P = generate_from_string(spec)
    for Q in (P, dual(P)):
        table = toric_table(Q)
        assert all(type(c) is int for poly in table.h + table.g for c in poly.coeffs)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_toric_against_naive_recursion_on_random_posets(seed):
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3))[seed % 4]
    _assert_toric_matches_naive(random_graded_poset(ranks, 0.5, seed))


def _assert_table_matches_pairwise_and_naive(P):
    table = toric_table(P)
    assert P._mu == {}  # the table reads no Möbius value
    h, g = pairwise_toric(P)
    assert [list(p.coeffs) for p in table.h] == h
    assert [list(p.coeffs) for p in table.g] == g
    for q in range(P.n):
        lower = P.interval_i(P.bottom_i, q)
        assert naive_toric(list(lower.labels), lower.covers()) == (h[q], g[q])


@pytest.mark.parametrize("maker", [
    lambda: chain(0), lambda: chain(1), lambda: chain(2), lambda: boolean_lattice(2),
    lambda: random_graded_poset((3,), 0.5, 4), lambda: dual(random_graded_poset((4,), 0.5, 5)),
])
def test_horner_table_low_ranks(maker):
    _assert_table_matches_pairwise_and_naive(maker())


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_horner_table_matches_pairwise_products(seed):
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3), (2, 3, 2, 3, 2))[seed % 5]
    P = random_graded_poset(ranks, 0.5, seed)
    _assert_table_matches_pairwise_and_naive(P)
    _assert_table_matches_pairwise_and_naive(dual(P))


def test_polygon_lattice_matches_cycle_h():
    for n in range(3, 9):
        pair = toric_pair(polygon_lattice(n))
        assert [pair.h_indexed[k] for k in range(3)] == [1, n - 2, 1]
        assert list(h_vector(cycle(n)).entries) == [1, n - 2, 1]


def test_simplex_face_lattice_toric_equals_h():
    for d in (2, 3, 4):
        p = face_poset(simplex_boundary(d), True)
        pair = toric_pair(p)
        assert [pair.h_indexed[k] for k in range(d + 1)] == list(h_vector(simplex_boundary(d)).entries)


def test_stanley_symmetry_catalog():
    posets = [boolean_lattice(n) for n in range(2, 7)]
    posets += [polygon_lattice(n) for n in range(3, 9)]
    posets += [face_poset(simplex_boundary(d), True) for d in (2, 3)]
    posets += [face_poset(cross_polytope(d), True) for d in (2, 3)]
    for p in posets:
        rep = verify_stanley(p)
        assert rep.passed


def test_stanley_rejects_non_eulerian(torus_poset):
    with pytest.raises(BadArguments):
        verify_stanley(torus_poset)


def test_ghat_degree_bound_and_h0():
    for p in (boolean_lattice(4), polygon_lattice(6), chain(4)):
        pair = toric_pair(p)
        d = p.rho - 1
        assert pair.g_poly.degree <= d // 2
        assert pair.h_indexed[0] == 1


def test_defect_antisymmetry_and_swartz(torus_poset, rp2_poset):
    seq = defect_sequence(torus_poset)
    assert seq.entries == (-2, 6, -6, 2)
    for k in range(4):
        assert seq[k] == sign(4 - k) * binom(3, k) * (-2)
    assert verify_swartz(torus_poset).passed
    assert verify_swartz(rp2_poset).passed
    mid = defect_sequence(boolean_lattice(4))
    assert all(a == 0 for a in mid.entries)


def test_swartz_rejects_one_sing(susp_poset):
    with pytest.raises(BadArguments):
        verify_swartz(susp_poset)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_defect_A0_is_top_interval_error(seed):
    ranks = ((2, 2), (2, 3, 2), (3, 2, 2, 3))[seed % 3]
    p = random_graded_poset(ranks, 0.6, seed)
    d = p.rho - 1
    seq = defect_sequence(p)
    e = p.mobius_i(p.bottom_i, p.top_i) - sign(p.rho)
    assert seq[0] == sign(d + 1) * e
    if d % 2 == 0:
        assert seq[d // 2] == 0


def test_g_reversal_defect_identity_every_interval(torus_poset, susp_poset):
    # ghat(Q) + (x-1) hhat(Q) = x^rho ghat(Q,1/x) + starred defect sum, any Q
    for P in (torus_poset, susp_poset, dual(susp_poset), boolean_lattice(4),
              polygon_lattice(5)):
        table = toric_table(P)
        y = ExactPolynomial((-1, 1))
        for q in range(P.n):
            rq = P.rank_of[q]
            if rq == 0:
                continue
            lhs = table.g[q] + y * table.h[q]
            rhs = table.g[q].reversed_at(rq) + star_sum(table.defect(q), rq - 1)
            assert lhs == rhs, (P, P.labels[q])


def test_star_sum_half_term_structure():
    # r odd: extra half-weighted summand at k = (r+1)/2, equal to -A_{(r+1)/2} x^k
    a = [3, 5, -5, -3]  # antisymmetric, r = 3
    s = star_sum(a, 3)
    assert s.coeff(2) == Fraction(5 - (-5), 2) == 5 == -a[2]
    assert s.coeff(3) == -5 - (-3) == -2
    assert s.coeff(4) == -3 - 0
    # r even: no half term below the cutoff
    b = [2, 0, -2]
    t = star_sum(b, 2)
    assert t.coeff(1) == 0
    assert t.coeff(2) == 0 - (-2)
    assert t.coeff(3) == -2


def test_star_sum_odd_middle_difference_is_internal_error():
    # r = 3: the half term is (A_1 − A_2)/2, an integer only if A is antisymmetric
    with pytest.raises(InternalError):
        star_sum([0, 1, 0, 0], 3)


def test_coeff_C_trivial_is_binomial():
    one = chain(0)
    for u in range(0, 8):
        for v in range(-1, 9):
            assert coeff_C(one, u, v) == binom(u, v)


def test_coeff_C_b3_against_symbolic_expansion():
    b3 = boolean_lattice(3)
    _, g = naive_toric(list(b3.labels), b3.covers())
    assert p_trim(g) == [1]  # ghat = 1 + 0x
    for u in range(3, 9):
        for v in range(0, 9):
            expected = sum(sign(l) * int(c) * binom(u - 3, v - l) for l, c in enumerate(g))
            assert coeff_C(b3, u, v) == expected == binom(u - 3, v)


def test_coeff_C_bad_arguments():
    with pytest.raises(BadArguments):
        coeff_C(boolean_lattice(3), 2, 1)


def test_pascal_recurrence_catalog():
    ts = [chain(0), boolean_lattice(1), boolean_lattice(2), boolean_lattice(3),
          boolean_lattice(4)] + [polygon_lattice(n) for n in range(3, 9)]
    for t in ts:
        lo = t.rho
        for u in range(lo, 11):
            for v in range(0, u + 1):
                assert coeff_C(t, u, v) + coeff_C(t, u, v + 1) == coeff_C(t, u + 1, v + 1)


def test_verify_1sing(torus_poset, susp_poset):
    rep = verify_1sing(boolean_lattice(4))
    assert rep.passed and all(r.lhs == 0 for r in rep.rows)
    rep = verify_1sing(torus_poset)  # semi-Eulerian reduces to the Swartz values
    assert rep.passed
    rep = verify_1sing(susp_poset, "susp")
    assert rep.passed
    asserted = [r for r in rep.rows if r.asserted]
    assert [r.index for r in asserted] == ["i=3", "i=4"]
    assert any(r.rhs != 0 for r in asserted)


def test_verify_1sing_rejects_higher_j(susp2_poset):
    with pytest.raises(NotOneSing):
        verify_1sing(susp2_poset)


def test_euler_relations(torus_poset, susp_poset, susp2_poset):
    assert verify_euler_relation(boolean_lattice(4)).passed
    assert verify_euler_relation(torus_poset).passed     # odd d
    rep = verify_euler_relation(susp_poset)              # even d, incl. 5.7 and 6.9
    assert rep.passed
    assert {r.index for r in rep.rows} == {"interval-sums even d", "vertex-links",
                                           "face-sums even d"}
    rep2 = verify_euler_relation(susp2_poset)            # odd d with j = 2
    assert rep2.passed
    assert {r.index for r in rep2.rows} == {"interval-sums odd d"}


def test_euler_relation_cone_like_join(torus):
    # joining with a full edge pushes singularities into every dimension
    from dehnsom.complexes import build_complex, join
    cx = join(torus, build_complex([(0, 1)]))
    P = face_poset(cx, True)
    assert (min_j_sing_flat(P) + P.rho - 1) % 2 == 1
    assert verify_euler_relation(P).passed
    assert verify_generalized(P).passed


def test_euler_relation_parity_errors(torus_poset, susp_poset, susp2_poset):
    with pytest.raises(ParityNotApplicable):
        verify_euler_relation(torus_poset, which="vertex-links")  # d odd
    assert verify_euler_relation(susp_poset, which="face-sums").passed
    with pytest.raises(ParityNotApplicable):
        verify_euler_relation(susp2_poset, which="face-sums")  # j = 2 not < d//2 = 2
    assert verify_euler_relation(susp_poset, which="vertex-links").passed
    assert verify_euler_relation(torus_poset, which="interval-sums").passed


def test_generalized_eulerian_lhs_zero():
    rep = verify_generalized(boolean_lattice(4))
    assert rep.passed
    assert all(r.lhs == 0 for r in rep.rows if not r.index.startswith("lemma"))


def test_generalized_semi_eulerian_single_term(torus_poset):
    # j = 0: the right side is -e(0,1) (x-1)^d
    rep = verify_generalized(torus_poset)
    assert rep.passed
    d = torus_poset.rho - 1
    e = -2
    expected = ExactPolynomial.x_minus_one_power(d).scale(-e)
    pair = toric_pair(torus_poset)
    assert pair.h_poly - pair.h_poly.reversed_at(d) == expected


def test_generalized_one_sing_matches_1sing_formula(susp_poset):
    assert verify_generalized(susp_poset).passed
    assert verify_main(susp_poset).passed
    rep = verify_1sing(susp_poset)
    seq = defect_sequence(susp_poset)
    for r in rep.rows:
        if r.asserted:
            k = int(r.index.split("=")[1])
            assert seq[k] == r.rhs


def test_generalized_on_duals_and_susp2(susp_poset, susp2_poset):
    assert verify_generalized(dual(susp_poset)).passed
    assert verify_generalized(susp2_poset).passed
    assert verify_generalized(dual(susp2_poset)).passed


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_generalized_random_posets(seed):
    ranks = ((2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 3, 3))[seed % 4]
    p = random_graded_poset(ranks, 0.55, seed)
    assert verify_generalized(p).passed


def test_verify_main_cases(susp_poset, susp2_poset):
    rep = verify_main(susp_poset)
    assert rep.passed
    asserted = [r for r in rep.rows if r.asserted]
    assert [r.index for r in asserted] == ["k=3", "k=4"]
    rep2 = verify_main(susp2_poset)  # j = 2, d = 5
    assert rep2.passed
    assert [r.index for r in rep2.rows if r.asserted] == ["k=4", "k=5"]


def test_verify_main_j0_reduces_to_swartz(torus_poset):
    rep = verify_main(torus_poset)
    sw = verify_swartz(torus_poset)
    by_index = {r.index: r for r in sw.rows}
    for r in rep.rows:
        if r.asserted:
            assert by_index[r.index].rhs == r.rhs


def test_verify_main_range_violation(oct_torus_poset):
    with pytest.raises(RangeViolation):
        verify_main(oct_torus_poset)  # d = 6 = 2j


def test_lower_eulerian_all_k(torus_poset, susp_poset, susp2_poset, oct_torus_poset):
    # the ghat-weighted form holds at every k once P is lower Eulerian
    for P in (torus_poset, susp_poset, susp2_poset, oct_torus_poset):
        seq = defect_sequence(P)
        d = P.rho - 1
        for k in range(d + 1):
            assert lower_eulerian_defect(P, k) == seq[k], (P, k)
        assert verify_lower_eulerian(P).passed


def test_lower_eulerian_rejected(susp_poset):
    with pytest.raises(NotLowerEulerian):
        lower_eulerian_defect(dual(susp_poset), 0)


def test_lower_simplicial_binomial_form(susp_poset, susp2_poset, oct_torus_poset):
    # Boolean lower intervals collapse the ghat weights to plain binomials
    for P in (susp_poset, susp2_poset, oct_torus_poset):
        cls = classify_poset(P)
        assert cls.simplicial and cls.lower_eulerian
        j, d = cls.min_j_sing, P.rho - 1
        assert cls.max_lower_simplicial_k >= j
        seq = defect_sequence(P)
        from dehnsom.toric import _e_to_top
        e_top = _e_to_top(P)
        for k in range(d // 2 + 1, d + 1):
            rhs = sign(d - k + 1) * sum(
                binom(d - P.rank_of[q], k - P.rank_of[q]) * e_top[q]
                for q in range(P.n) if P.rank_of[q] <= j)
            assert seq[k] == rhs, (P, k)


def test_three_way_agreement(torus_poset, susp_poset, susp2_poset):
    # toric recursion vs C-weighted error sum vs lower-Eulerian ghat form
    for P in (torus_poset, susp_poset, susp2_poset):
        cls = classify_poset(P)
        j, d = cls.min_j_sing, P.rho - 1
        assert d > 2 * j
        seq = defect_sequence(P)
        main = {r.index: r for r in verify_main(P).rows}
        for k in range(d + 1):
            if 2 * k > d + j:
                assert seq[k] == main[f"k={k}"].rhs == lower_eulerian_defect(P, k)


def test_cube_torus_poset_heart_term(cube_torus_poset):
    # square rank-3 lower intervals make the l=1 ghat weight kick in (f_1 = 4)
    P = cube_torus_poset
    cls = classify_poset(P)
    assert cls.min_j_sing == 3 and cls.lower_eulerian and not cls.simplicial
    assert cls.max_lower_simplicial_k == 2
    table = toric_table(P)
    squares = [q for q in range(P.n)
               if P.rank_of[q] == 3 and list(table.g[q].coeffs) == [1, 1]]
    assert squares, "expected square 2-cells with ghat = 1 + x"
    seq = defect_sequence(P)
    d = P.rho - 1
    for k in range(d + 1):
        assert lower_eulerian_defect(P, k) == seq[k]
    # per-interval heart structure: binomial C(d-3,k-3) minus (f_1-3) C(d-3,k-2)
    for q in squares:
        for k in range(d + 1):
            inner = sum(sign(d - k - l + 1) * int(c) * binom(d - 3, k - 3 + l)
                        for l, c in enumerate(table.g[q].coeffs))
            heart = sign(d - k + 1) * (binom(d - 3, k - 3) - (4 - 3) * binom(d - 3, k - 2))
            assert inner == heart


def test_heart_term_collapses_for_boolean_interval(oct_torus_poset):
    P = oct_torus_poset
    table = toric_table(P)
    d = P.rho - 1
    rank3 = [q for q in range(P.n) if P.rank_of[q] == 3]
    assert rank3
    for q in rank3[:5]:
        assert list(table.g[q].coeffs) == [1]  # Boolean: f_1 = 3, ghat = 1
        for k in range(d + 1):
            inner = sum(sign(d - k - l + 1) * int(c) * binom(d - 3, k - 3 + l)
                        for l, c in enumerate(table.g[q].coeffs))
            assert inner == sign(d - k + 1) * binom(d - 3, k - 3)


def test_dual_defect_reports(torus_poset, susp_poset):
    rep = dual_defect_report(boolean_lattice(4))
    assert rep.passed and all(r.lhs == 0 == r.rhs for r in rep.rows if r.index != "min_j_sing")

    rep = dual_defect_report(torus_poset)  # j = 0: sequences equal
    assert rep.passed
    assert all(r.asserted for r in rep.rows)

    rep = dual_defect_report(susp_poset, "susp")  # j = 1, d = 4: difference formula
    assert rep.passed
    asserted = [r for r in rep.rows if r.asserted and r.index.startswith("k=")]
    assert [r.index for r in asserted] == ["k=3", "k=4"]
    minj_row = next(r for r in rep.rows if r.index == "min_j_sing")
    assert minj_row.lhs == minj_row.rhs == 1


def test_eulerian_interval_reversal_identity():
    # -(x-1)^{d-rho} x^rho ghat(T,1/x) + sum_{u<t} (x-1)^{d-rho(u)} ghat(U)
    #   = -(x-1)^{d-rho} ghat(T)
    for T in (boolean_lattice(2), boolean_lattice(3), boolean_lattice(4),
              polygon_lattice(5)):
        table = toric_table(T)
        rho = T.rho
        for d in (rho, rho + 1, rho + 3):
            lhs = -ExactPolynomial.x_minus_one_power(d - rho) * table.g[T.top_i].reversed_at(rho)
            for u in range(T.n - 1):
                lhs = lhs + ExactPolynomial.x_minus_one_power(d - T.rank_of[u]) * table.g[u]
            rhs = -ExactPolynomial.x_minus_one_power(d - rho) * table.g[T.top_i]
            assert lhs == rhs


def test_toric_table_cached(torus_poset):
    assert toric_table(torus_poset) is toric_table(torus_poset)


def test_c_coefficient_record():
    from dehnsom.toric import c_coefficient
    b2 = boolean_lattice(2)
    rec = c_coefficient(b2, 5, 2)
    assert rec.u == 5 and rec.v == 2 and rec.value == coeff_C(b2, 5, 2)
    assert isinstance(rec.value, int)


def test_1sing_and_main_on_dual_exercise_lower_errors(susp_poset):
    # the dual has its nonzero e(0,t) sums on the rank-d side
    q = dual(susp_poset)
    from dehnsom.toric import _e_from_bottom
    d = q.rho - 1
    e_bot = _e_from_bottom(q)
    assert any(e_bot[t] != 0 and q.rank_of[t] == d for t in range(q.n))
    assert verify_1sing(q).passed
    assert verify_main(q).passed


def test_star_half_term_keyed_on_interval_parity(susp_poset):
    # the "rank d with even d" phrasing and the "r odd" phrasing coincide:
    # a rank-d interval inside an even-d poset has its own r = d-1 odd
    P = dual(susp_poset)
    d = P.rho - 1
    assert d % 2 == 0
    table = toric_table(P)
    hit = 0
    for q in range(P.n):
        rq = P.rank_of[q]
        if rq != d:
            continue
        defects = table.defect(q)
        s = star_sum(defects, rq - 1)
        k_half = rq // 2
        assert s.coeff(k_half) == -defects[k_half]
        if defects[k_half]:
            hit += 1
    assert hit > 0  # the half-weighted term fired with nonzero content


def _face_sums_per_chain(P, j):
    """The face-sum row (lhs, rhs) with one chain_error per chain."""
    d = P.rho - 1

    def err(c):
        return chain_error(P, [P.labels[i] for i in c])

    if d % 2 == 0:
        small = sum(err(c) for c in iter_chains(P, max_size=max(j, 0)) if c)
        return 2 * (P.mobius(P.bottom, P.top) - sign(P.rho)), -small
    top = sum(err(c) for c in iter_chains(P, allowed_ranks=set(range(1, j + 1))) if c)
    bot = sum(err(c) for c in iter_chains(P, allowed_ranks=set(range(d - j + 1, d + 1))) if c)
    return top, bot


@pytest.mark.parametrize("ranks", [(3, 2, 3, 2), (2, 3, 3, 2), (2, 2, 2, 2, 2), (3, 2, 2, 3, 2),
                                   (2,) * 6, (2,) * 7])
@pytest.mark.parametrize("seed", range(3))
def test_face_sums_match_per_chain_errors(ranks, seed):
    # the relation only runs for j < floor(d/2); pinning min_j_sing to each
    # such j checks the rank-set sums on both parities of d, whatever P's own j
    P = random_graded_poset(ranks, 0.5, seed)
    d = P.rho - 1
    cls = classify_poset(P)
    for j in range(-1, d // 2):
        object.__setattr__(P, "_cls", cls._replace(min_j_sing=j))
        (row,) = verify_euler_relation(P, which="face-sums").rows
        assert row.index == ("face-sums even d" if d % 2 == 0 else "face-sums odd d")
        assert (row.lhs, row.rhs) == _face_sums_per_chain(P, j)
