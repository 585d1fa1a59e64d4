"""Classical theorems that tie two constructions together, on seeded inputs.

Each test names its theorem and reads only public entry points, so an
agreement checks the link sweep, the closure pass and the f→h transform
against mathematics rather than against an earlier version of themselves.
"""

from functools import cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.balanced import flag_f_vector, verify_flag_ds
from dehnsom.complexes import (
    SimplicialComplex,
    f_vector,
    h_vector,
    join,
    join_with_mapping,
    link_euler_table,
    link_euler_values,
    verify_pure_ds,
)
from dehnsom.generators import (
    face_poset,
    generate,
    parse_spec,
    random_graded_poset,
    random_pure_complex,
    suspension,
    torus_7,
)
from dehnsom.posets import (
    dual,
    flag_alpha_beta,
    order_complex,
    verify_flag_poset,
    verify_simplicial_ds,
)
from dehnsom.suite import COMPLEX_DS_SPECS, DUALIZED_SPECS, ORDER_COMPLEX_SPECS, POSET_SPECS
from dehnsom.toric import toric_pair

from conftest import seeded_poset


@cache
def _generated(spec):
    """(P, O(P)) of a poset spec, built once per pytest session: O(B_8), with
    545,835 faces, serves the link sums and the flag rows below."""
    P = generate(parse_spec(spec))
    return P, order_complex(P)


def _random_complex(seed):
    """A seeded pure complex, or the union of two (often impure)."""
    n = 4 + seed % 4
    a = random_pure_complex(1 + seed % 3, n, 0.4, seed)
    if seed % 2:
        return a
    return SimplicialComplex(a.faces | random_pure_complex(1 + seed % 2, n, 0.3, seed + 1).faces)


def _chi_by_face(cx):
    return {cx.face_of(m): c for m, c in link_euler_table(cx).items()}


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9), density=st.sampled_from((0.3, 0.5, 0.8)))
def test_hall_reduced_euler_characteristic_of_order_complex_is_mobius(seed, density):
    # Hall: χ̃(O(P)) = μ(0̂, 1̂), read as the empty face's entry of the sweep
    P = seeded_poset(seed, density)
    assert link_euler_values(order_complex(P).complex)[0] == P.mobius(P.bottom, P.top)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_links_in_a_join_multiply(seed):
    # lk_{Δ*Γ}(F ⊔ G) = lk_Δ F * lk_Γ G, and χ̃(Δ*Γ) = −χ̃(Δ)·χ̃(Γ)
    a, b = _random_complex(seed), _random_complex(seed // 7 + 3)
    joined, left, right = join_with_mapping(a, b)
    chi_a, chi_b, chi_j = _chi_by_face(a), _chi_by_face(b), _chi_by_face(joined)
    assert len(chi_j) == len(chi_a) * len(chi_b)
    for f, x in chi_a.items():
        for g, y in chi_b.items():
            fg = frozenset(left[v] for v in f) | frozenset(right[v] for v in g)
            assert chi_j[fg] == -x * y


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_suspension_multiplies_h_by_one_plus_x(seed):
    # h(susp Δ) = (1 + x)·h(Δ), the h-polynomial of the join with two points
    cx = _random_complex(seed)
    h = h_vector(cx).entries
    expected = tuple(a + b for a, b in zip(h + (0,), (0,) + h))
    assert h_vector(suspension(cx)).entries == expected


def _surjections(i, k):
    """k!·S(i, k), the number of maps from an i-set onto a k-set, by inclusion-exclusion."""
    return sum((-1) ** j * comb(k, j) * (k - j) ** i for j in range(k + 1))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_toric_h_of_a_face_poset_is_the_h_vector(seed):
    # Stanley 1987: ĝ of a Boolean interval is 1, so a simplicial poset's toric
    # ĥ is the h-vector of its complex
    cx = random_pure_complex(1 + seed % 4, 5 + seed % 4, 0.4, seed)
    h = h_vector(cx).entries
    assert toric_pair(face_poset(cx, True)).h_indexed == dict(enumerate(h))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_barycentric_subdivision_f_vector(seed):
    # Brenti–Welker 2008: f_{k−1}(sd Δ) = Σ_i f_{i−1}(Δ)·k!·S(i, k), where
    # sd Δ = O(face_poset(Δ)) counts chains of nonempty faces
    cx = random_pure_complex(1 + seed % 4, 5 + seed % 4, 0.4, seed)
    f = f_vector(cx).entries
    sd = f_vector(order_complex(face_poset(cx, True)).complex).entries
    assert sd == tuple(sum(f[i] * _surjections(i, k) for i in range(len(f)))
                       for k in range(len(f)))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_join_multiplies_h_polynomials(seed):
    # h(Δ * Γ) = h(Δ)·h(Γ): the f-polynomials multiply, and so do the h-polynomials
    a, b = _random_complex(seed), _random_complex(seed // 5 + 11)
    ha, hb = h_vector(a).entries, h_vector(b).entries
    product = [0] * (len(ha) + len(hb) - 1)
    for i, x in enumerate(ha):
        for j, y in enumerate(hb):
            product[i + j] += x * y
    assert h_vector(join(a, b)).entries == tuple(product)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9), density=st.sampled_from((0.3, 0.5, 0.8)))
def test_flag_beta_of_the_dual_reverses_ranks(seed, density):
    # duality: rank r of P is rank ρ − r of P*, so β_{P*}(S) = β_P(ρ − S)
    P = seeded_poset(seed, density)
    Q, rho = dual(P), P.rho
    for m in range(1 << (rho - 1)):
        S = [r for r in range(1, rho) if m >> (r - 1) & 1]
        assert flag_alpha_beta(Q, S)[1] == flag_alpha_beta(P, [rho - r for r in S])[1]


def _flag_rows_by_rank_set(P):
    """(lhs, rhs) of every row of verify_flag_poset(P), keyed by its rank set S."""
    return {frozenset(int(r) for r in row.index[len("S={"):-1].split(",") if r):
            (row.lhs, row.rhs) for row in verify_flag_poset(P).rows}


def _assert_dual_flag_rows_reverse_ranks(P):
    # duality: β_{P*}(S) = β_P(ρ − S), and a chain of P* is a chain of P with
    # the same Möbius product and ε, its rank set reversed
    rho = P.rho
    rows, dual_rows = _flag_rows_by_rank_set(P), _flag_rows_by_rank_set(dual(P))
    assert len(dual_rows) == 1 << (rho - 1)
    assert dual_rows == {frozenset(rho - r for r in S): v for S, v in rows.items()}


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9), density=st.sampled_from((0.3, 0.5, 0.8)))
def test_flag_poset_rows_of_the_dual_reverse_ranks(seed, density):
    _assert_dual_flag_rows_reverse_ranks(seeded_poset(seed, density))


def test_flag_poset_rows_of_the_dual_reverse_ranks_on_the_torus_face_poset():
    _assert_dual_flag_rows_reverse_ranks(face_poset(torus_7(), True))


# --- the link sweep's sums against face counts (double counting) -------------
# χ̃(lk F) = Σ_{H ⊇ F} (−1)^{|H∖F|−1} over the faces H, so summing it over a
# class of faces F counts pairs F ⊆ H. These sums read f and must stay out of
# src/: there they would give ds and flag-ds an f on both sides.

def _assert_link_sums_by_size(sizes, chi, f):
    # Σ_{|F|=k} χ̃(lk F) = Σ_s (−1)^{s−k−1} C(s, k) f_s: a face with s vertices
    # has C(s, k) faces of k vertices below it, each at distance s − k
    by_size = [0] * len(f)
    for k, x in zip(sizes, chi):
        by_size[k] += x
    assert by_size == [sum((-1) ** (s - k - 1) * comb(s, k) * f[s] for s in range(k, len(f)))
                       for k in range(len(f))]


def _assert_link_sums_of_balanced(bal):
    # and, by color set, Σ_{col F=T} χ̃(lk F) = Σ_{U⊇T} (−1)^{|U∖T|−1} f_U: a
    # face with colors U ⊇ T has exactly one face with colors T below it
    chi, colors, d = link_euler_values(bal.complex), bal.face_colors, bal.d
    _assert_link_sums_by_size(map(int.bit_count, colors), chi, f_vector(bal.complex).entries)
    by_colors = [0] * (1 << d)
    for c, x in zip(colors, chi):
        by_colors[c] += x
    f = flag_f_vector(bal)
    assert by_colors == [sum((-1) ** ((U ^ T).bit_count() - 1) * f.by_mask(U)
                             for U in range(1 << d) if U & T == T) for T in range(1 << d)]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9), density=st.sampled_from((0.3, 0.5, 0.8)))
def test_link_sums_count_faces_on_seeded_inputs(seed, density):
    cx = _random_complex(seed)
    table = link_euler_table(cx)
    _assert_link_sums_by_size(map(int.bit_count, table), table.values(), f_vector(cx).entries)
    P = seeded_poset(seed, density)
    _assert_link_sums_of_balanced(order_complex(P))
    _assert_link_sums_of_balanced(order_complex(dual(P)))


@pytest.mark.parametrize("spec", ["chain(1)", "chain(2)", "boolean_lattice(2)", "chain(3)",
                                  "boolean_lattice(7)", "boolean_lattice(8)"])
def test_link_sums_count_faces_on_order_complexes(spec):
    # ranks 1 and 2 (O(P) only ∅, one vertex, two points), then O(B_7) and
    # O(B_8), with 47,293 and 545,835 faces, where no per-face reference runs
    _assert_link_sums_of_balanced(_generated(spec)[1])


@pytest.mark.parametrize("spec", ["chain(1)", "chain(2)", "boolean_lattice(2)",
                                  "boolean_lattice(7)"])
def test_hall_product_per_face_of_order_complexes(spec):
    # P. Hall (Stanley, EC I, Prop. 3.8.5): a chain F = {c_1 < ... < c_k} of
    # P∖{0̂,1̂} has χ̃(lk F) = (−1)^k μ(0̂,c_1)μ(c_1,c_2)···μ(c_k,1̂) in O(P); on
    # O(B_7), all 47,293 faces
    P = generate(parse_spec(spec))
    cx = order_complex(P).complex
    for mask, chi in link_euler_table(cx).items():
        # P's index order is by rank, so it orders a chain
        walk = [P.bottom_i, *sorted(map(P.index, cx.face_of(mask))), P.top_i]
        product = (-1) ** (len(walk) - 2)
        for s, t in zip(walk, walk[1:]):
            product *= P.mobius_i(s, t)
        assert chi == product, cx.face_of(mask)


# --- flag-ds on O(P) against flag-poset on P ----------------------------------
# The faces of O(P) with color set S are the chains of P with rank set S, so
# the flag h of O(P) is β_P; and ε of a face of O(P) is its chain's ε (P.
# Hall). So the S rows of the two reports agree, lhs to lhs and rhs to rhs,
# although flag-ds builds and sweeps O(P) and flag-poset reads P's Möbius
# values and never builds O(P). Each report keeps its own two paths: a wrong
# O(P) that is still a balanced complex passes flag-ds, and only here do its
# rows meet the poset's.

def _assert_flag_rows_of_order_complex(P, bal):
    complex_rows = [(r.index, r.lhs, r.rhs) for r in verify_flag_ds(bal).rows
                    if r.index.startswith("S=")]
    poset_rows = [(r.index, r.lhs, r.rhs) for r in verify_flag_poset(P).rows]
    assert len(poset_rows) == 1 << (P.rho - 1)
    assert complex_rows == poset_rows


@pytest.mark.parametrize("spec", sorted({*ORDER_COMPLEX_SPECS, *POSET_SPECS,
                                         *(f"dual({s})" for s in DUALIZED_SPECS),
                                         "boolean_lattice(8)"}))
def test_flag_ds_rows_of_order_complex_are_flag_poset_rows(spec):
    # every poset of the catalog, and O(B_8) (Eulerian: all its rows are zero)
    _assert_flag_rows_of_order_complex(*_generated(spec))


@pytest.mark.parametrize("layers, seed", [((3,) * 9, 7), ((3,) * 9, 12), ((4,) * 8, 7),
                                          ((4,) * 8, 11)])
def test_flag_ds_rows_of_order_complex_at_deep_poset_shapes(layers, seed):
    # the two shapes of the deep-poset files, where most rhs are nonzero
    P = random_graded_poset(layers, 0.5, seed)
    _assert_flag_rows_of_order_complex(P, order_complex(P))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9), density=st.sampled_from((0.3, 0.5, 0.8)))
def test_flag_ds_rows_of_order_complex_on_seeded_posets(seed, density):
    P = seeded_poset(seed, density)
    for Q in (P, dual(P)):
        _assert_flag_rows_of_order_complex(Q, order_complex(Q))


# --- ds on X against simplicial-ds on its face poset --------------------------
# The face poset of X with 1̂ adjoined has one element of rank k per face of
# k − 1 vertices, and μ(F, 1̂) = χ̃(lk F) for a face F, so its h and its
# upper-interval errors are X's h and ε. The rows agree although ds reads X's
# face sizes and the link sweep, and simplicial-ds P's rank counts and its
# μ(·, 1̂) column; they share only the f→h transform.

def _assert_ds_rows_of_face_poset(x):
    complex_rows = [(r.index, r.lhs, r.rhs) for r in verify_pure_ds(x).rows]
    poset_rows = [(r.index, r.lhs, r.rhs) for r in verify_simplicial_ds(face_poset(x, True)).rows]
    assert len(complex_rows) == x.dim + 2
    assert complex_rows == poset_rows


@pytest.mark.parametrize("spec", COMPLEX_DS_SPECS)
def test_ds_rows_of_a_complex_are_simplicial_ds_rows_of_its_face_poset(spec):
    _assert_ds_rows_of_face_poset(generate(parse_spec(spec)))


# --- the refinement rows of flag-ds against ds ----------------------------------
# Σ_{|S|=i} (h_S − h_{S^c}) = h_i − h_{d−i}, and the refinement's rhs is the ds
# rhs at j = i with the sign (−1)^{i−1}, so the `refine |S|=i` rows of flag-ds
# are minus the ds rows j = i. Both rhs read the sweep: this pair checks the
# flag-h path against the f→h path.

def _assert_refine_rows_are_minus_ds_rows(bal):
    refine = {int(r.index[len("refine |S|="):]): (r.lhs, r.rhs)
              for r in verify_flag_ds(bal).rows if r.index.startswith("refine ")}
    ds = {int(r.index[len("j="):]): (-r.lhs, -r.rhs) for r in verify_pure_ds(bal.complex).rows}
    assert len(refine) == bal.d + 1
    assert refine == ds


@pytest.mark.parametrize("spec", [*(s for s in ORDER_COMPLEX_SPECS if s.startswith("face_poset")),
                                  "random_graded_poset([3,3,3,3,3],0.5,7)"])
def test_refine_rows_of_order_complex_are_minus_its_ds_rows(spec):
    _assert_refine_rows_are_minus_ds_rows(_generated(spec)[1])
