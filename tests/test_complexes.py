import random

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.complexes import (
    SimplicialComplex,
    build_complex,
    f_vector,
    face_error,
    face_sort_key,
    face_error_table,
    h_vector,
    join,
    join_with_mapping,
    label_sort_key,
    link,
    link_euler_table,
    parse_facets,
    reduced_euler_characteristic,
    serialize_facets,
    short_h_vector,
    singularity_profile,
    subset_transform,
    verify_pure_ds,
)
from dehnsom.errors import EmptyInput, FaceNotInComplex, InternalError, NotPure
from dehnsom.generators import (
    cross_polytope,
    cycle,
    random_graded_poset,
    random_pure_complex,
    rp2_6,
    simplex_boundary,
    suspension,
    torus_7,
)
from dehnsom.polynomial import binom, sign
from dehnsom.suite import COMPLEX_DS_SPECS

from oracles import (
    closure_of_facets,
    euler_from_faces,
    face_masks,
    frozenset_complex,
    h_closed_form,
    link_faces,
    mask_of,
    short_h_by_links,
    submask_sum,
    subset_walk_link_euler,
)


def test_build_complex_two_edges():
    cx = build_complex([(1, 2), (2, 3)])
    assert cx.faces == closure_of_facets([(1, 2), (2, 3)])
    assert cx.dim == 1 and cx.pure


def test_build_complex_triangle():
    cx = build_complex([(1, 2, 3)])
    assert f_vector(cx).entries == (1, 3, 3, 1)


def test_build_complex_bowtie_oracle(bowtie):
    expected = closure_of_facets([(1, 2, 3), (1, 2, 4)])
    assert bowtie.faces == expected
    assert len(bowtie.faces) == 12
    assert bowtie.dim == 2 and bowtie.pure


def test_build_complex_absorbs_duplicates():
    cx = build_complex([(1, 2, 3), (1, 2), (1, 2, 3)])
    assert cx == build_complex([(1, 2, 3)])


def test_build_complex_empty_input():
    with pytest.raises(EmptyInput):
        build_complex([])


def test_closure_validated_on_construction():
    with pytest.raises(InternalError):
        SimplicialComplex([frozenset(), frozenset({1, 2})])


def test_f_vector_examples(torus, bowtie):
    assert f_vector(simplex_boundary(3)).entries == (1, 4, 6, 4)
    assert f_vector(torus).entries == (1, 7, 21, 14)
    assert f_vector(bowtie).entries == (1, 4, 5, 2)


def test_h_vector_examples(torus, bowtie):
    assert h_vector(simplex_boundary(3)).entries == (1, 1, 1, 1)
    assert h_vector(torus).entries == (1, 4, 10, -1)
    assert h_vector(bowtie).entries == (1, 1, 0, 0)


@pytest.mark.parametrize("maker", [
    lambda: simplex_boundary(4), lambda: cross_polytope(3), lambda: cycle(6),
    torus_7, rp2_6, lambda: build_complex([(1, 2, 3), (1, 2, 4)]),
])
def test_h_vector_against_closed_form(maker):
    cx = maker()
    f = f_vector(cx).entries
    assert h_vector(cx).entries == h_closed_form(f, cx.dim + 1)


def test_h_vector_impure_flagged():
    cx = build_complex([(1, 2, 3), (4, 5)])
    assert not cx.pure
    assert cx.facets() == [frozenset({4, 5}), frozenset({1, 2, 3})]
    h = h_vector(cx)
    assert h.impure
    assert h.entries == h_closed_form(f_vector(cx).entries, cx.dim + 1)


def test_euler_characteristic(torus):
    for i in range(1, 5):
        assert reduced_euler_characteristic(simplex_boundary(i)) == sign(i - 1)
    assert reduced_euler_characteristic(torus) == -1
    assert reduced_euler_characteristic(build_complex([()])) == -1


def test_link_examples(bowtie):
    c4 = cycle(4)
    lk = link(c4, [0])
    assert f_vector(lk).entries == (1, 2)
    assert link(c4, []) == c4
    lk_edge = link(bowtie, [1, 2])
    assert lk_edge.faces == link_faces(bowtie.faces, [1, 2])
    assert reduced_euler_characteristic(lk_edge) == 1
    with pytest.raises(FaceNotInComplex):
        link(c4, [0, 2])


def test_link_dimension_bound(torus):
    d = torus.dim + 1
    for f in torus.faces:
        assert link(torus, f).dim == d - 1 - len(f)  # equality: torus is pure


def test_join_with_empty_complex(torus):
    empty = build_complex([()])
    joined = join(torus, empty)
    assert f_vector(joined).entries == f_vector(torus).entries


def test_join_of_two_spheres_is_four_cycle():
    s0 = build_complex([("N",), ("S",)])
    j = join(s0, s0)
    assert f_vector(j).entries == (1, 4, 4)
    assert all(f_vector(link(j, [v])).entries == (1, 2) for v in j.vertices)
    assert reduced_euler_characteristic(j) == -1


def test_join_euler_identity(torus):
    for n in (3, 5):
        j = join(cycle(n), torus)
        lhs = reduced_euler_characteristic(j)
        assert lhs == -reduced_euler_characteristic(cycle(n)) * reduced_euler_characteristic(torus)
        assert lhs == -1
    assert euler_from_faces(join(cycle(4), torus).faces) == -1


def test_join_records_mapping(torus):
    j, left, right = join_with_mapping(cycle(3), torus)
    assert set(left.values()) | set(right.values()) == set(j.vertices)
    assert len(left) == 3 and len(right) == 7


def test_face_error_examples(torus, bowtie):
    sb = simplex_boundary(3)
    assert all(face_error(sb, f) == 0 for f in sb.faces)
    assert face_error(torus, []) == -2
    assert face_error(bowtie, [1]) == 1


def test_face_error_table_matches_per_face(torus, bowtie):
    for cx in (torus, bowtie, cross_polytope(3)):
        table = face_error_table(cx)
        assert table == {f: face_error(cx, f) for f in cx.faces}


def test_face_error_requires_pure():
    cx = build_complex([(1, 2, 3), (4, 5)])
    with pytest.raises(NotPure):
        face_error(cx, [])


def test_short_h_examples():
    assert short_h_vector(simplex_boundary(3)) == (4, 4, 4)
    assert short_h_vector(cycle(4)) == (4, 4)
    assert short_h_vector(build_complex([(1, 2)])) == (2, 0)


@pytest.mark.parametrize("maker", [
    lambda: simplex_boundary(3), lambda: cross_polytope(3), lambda: cycle(7),
    torus_7, rp2_6, lambda: suspension(torus_7()),
])
def test_short_h_identity(maker):
    # h*_{i-1} = i h_i + (d-i+1) h_{i-1} for 1 <= i <= d
    cx = maker()
    d = cx.dim + 1
    h = h_vector(cx).entries
    hs = short_h_vector(cx)
    for i in range(1, d + 1):
        assert hs[i - 1] == i * h[i] + (d - i + 1) * h[i - 1]


def test_singularity_profile_cases(torus, susp_torus):
    prof = singularity_profile(cross_polytope(3))
    assert prof.eulerian and prof.min_singular_j == -1 and not prof.error_set

    prof = singularity_profile(torus)
    assert not prof.eulerian and prof.semi_eulerian
    assert prof.min_singular_j == 0
    assert [(set(fe.face), fe.epsilon) for fe in prof.error_set] == [(set(), -2)]

    prof = singularity_profile(susp_torus)
    assert not prof.semi_eulerian and prof.min_singular_j == 1
    by_dim = sorted((len(fe.face) - 1, fe.epsilon) for fe in prof.error_set)
    assert by_dim == [(-1, 2), (0, -2), (0, -2)]


def test_verify_pure_ds_sphere_and_torus(torus):
    rep = verify_pure_ds(simplex_boundary(3), "simplex")
    assert rep.passed and all(r.rhs == 0 for r in rep.rows)

    rep = verify_pure_ds(torus, "torus")
    assert rep.passed
    row = next(r for r in rep.rows if r.index == "j=1")
    assert row.lhs == 6 and row.rhs == 6


def test_verify_pure_ds_bowtie_sweep(bowtie):
    table = face_error_table(bowtie)
    summary = sorted((len(f), e) for f, e in table.items() if e != 0)
    assert summary == [(0, -1)] + [(1, 1)] * 4 + [(2, -1)] * 4
    rep = verify_pure_ds(bowtie, "bowtie")
    assert rep.passed
    assert rep.rows[0].lhs == -1 and rep.rows[0].rhs == -1


def test_verify_pure_ds_rejects_impure():
    with pytest.raises(NotPure):
        verify_pure_ds(build_complex([(1, 2, 3), (4, 5)]))


def test_klee_specialization(torus, rp2):
    # semi-Eulerian: h_{d-j} - h_j = (-1)^j C(d,j) [chi - (-1)^{d-1}]
    for cx in (torus, rp2):
        d = cx.dim + 1
        h = h_vector(cx).entries
        gap = reduced_euler_characteristic(cx) - sign(d - 1)
        for j in range(d + 1):
            assert h[d - j] - h[j] == sign(j) * binom(d, j) * gap


def test_circle_join_closed_form(torus):
    from dehnsom.generators import circle_join
    for n in (3, 4, 5, 6):
        cx = circle_join(n, torus)
        h = h_vector(cx).entries
        for j in range(6):
            assert h[5 - j] - h[j] == sign(j) * (-2) * (binom(5, j) - n * binom(3, j - 1))


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_pure_ds_property_random(seed):
    cx = random_pure_complex(3 + seed % 3, 7 + seed % 4, 0.35, seed)
    assert verify_pure_ds(cx).passed


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_downward_closure_after_link_and_join(seed):
    cx = random_pure_complex(3, 7, 0.4, seed)
    v = cx.vertices[seed % len(cx.vertices)]
    link(cx, [v])  # constructor re-validates closure
    join(cx, build_complex([(0, 1)]))


def test_parse_serialize_round_trip(torus):
    text = serialize_facets(torus)
    again = parse_facets(text)
    assert again == torus
    assert serialize_facets(again) == text


def test_parse_comments_and_blanks():
    cx = parse_facets("# a triangle\n\n1 2 3\n  # trailing\n1 4\n")
    assert f_vector(cx).entries == (1, 4, 4, 1)


def test_serialize_is_canonical():
    a = serialize_facets(build_complex([(3, 2, 1), (4, 2, 1)]))
    b = serialize_facets(build_complex([(1, 2, 4), (1, 3, 2)]))
    assert a == b


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_simplex_boundary_all_ones(d):
    cx = simplex_boundary(d)
    assert h_vector(cx).entries == (1,) * (d + 1)
    assert all(e == 0 for e in face_error_table(cx).values())


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("d", range(7))
def test_subset_transform_matches_submask_loop(d, signed):
    rng = random.Random(1000 * d + signed)
    for _ in range(5):
        table = [rng.randint(-50, 50) for _ in range(1 << d)]
        expected = [submask_sum(table, m, signed) for m in range(1 << d)]
        assert subset_transform(table, d, signed) == expected


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_mask_construction_matches_frozenset_oracle(seed):
    # the union of two closed families is closed; with two facet sizes it is
    # often impure
    n = 6 + seed % 4
    a = random_pure_complex(2 + seed % 3, n, 0.3, seed)
    b = random_pure_complex(1 + seed % 4, n, 0.2, seed + 1)
    fam = a.faces | b.faces
    cx = SimplicialComplex(fam)
    dim, pure, facets = frozenset_complex(fam)
    assert (cx.dim, cx.pure) == (dim, pure)
    assert cx.facets() == sorted(facets, key=face_sort_key)
    assert cx.vertices == tuple(sorted({v for f in fam for v in f}, key=label_sort_key))
    assert cx._masks == face_masks(fam, cx.vertices)
    assert all(cx.face_of(mask_of(cx, f)) == f for f in fam)
    # dropping a face some other face covers leaves a family that is not closed
    covered = sorted(fam - facets, key=face_sort_key)[1:]  # not the empty face
    dropped = covered[seed % len(covered)]
    with pytest.raises(ValueError):
        frozenset_complex(fam - {dropped})
    with pytest.raises(InternalError, match="not closed under inclusion"):
        SimplicialComplex(fam - {dropped})


@pytest.mark.parametrize("spec", COMPLEX_DS_SPECS)
def test_short_h_matches_link_oracle(spec):
    from dehnsom.generators import generate_from_string
    cx = generate_from_string(spec)
    assert short_h_vector(cx) == short_h_by_links(cx)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_link_euler_table_matches_subset_walk(seed):
    from dehnsom.posets import order_complex
    # unions of two seeded pure complexes, often impure, and seeded order complexes
    n = 6 + seed % 4
    a = random_pure_complex(2 + seed % 3, n, 0.3, seed)
    b = random_pure_complex(1 + seed % 4, n, 0.2, seed + 1)
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2))[seed % 4]
    for cx in (SimplicialComplex(a.faces | b.faces),
               order_complex(random_graded_poset(ranks, 0.5, seed)).complex):
        expected = subset_walk_link_euler(cx)
        got = link_euler_table(cx)
        assert got == expected and list(got) == list(expected)


def test_from_masks_rejects_bad_families():
    verts = ("a", "b", "c")
    assert SimplicialComplex.from_masks(verts, [0, 1, 2, 3]).vertices == ("a", "b")
    with pytest.raises(InternalError, match="not closed under inclusion"):
        SimplicialComplex.from_masks(verts, [0, 1, 2, 0b111])
    with pytest.raises(InternalError, match="not closed under inclusion"):
        SimplicialComplex.from_masks(verts, [0, 1, 0b11])
    with pytest.raises(InternalError, match="empty face"):
        SimplicialComplex.from_masks(verts, [1])
    with pytest.raises(InternalError, match="past the 3 vertices"):
        SimplicialComplex.from_masks(verts, [0, 0b1000])
    with pytest.raises(InternalError, match="label order"):
        SimplicialComplex.from_masks(("b", "a"), [0, 1, 2])
    with pytest.raises(EmptyInput):
        SimplicialComplex.from_masks(verts, [])
