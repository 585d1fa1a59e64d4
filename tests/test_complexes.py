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
    parse_facets,
    reduced_euler_characteristic,
    serialize_facets,
    short_h_vector,
    singularity_profile,
    subset_transform,
    verify_pure_ds,
)
from dehnsom.errors import EmptyInput, FaceNotInComplex, InternalError, NotPure, ParseError
from dehnsom.generators import (
    cross_polytope,
    cycle,
    face_poset,
    generate_from_string,
    random_pure_complex,
    rp2_6,
    simplex_boundary,
    suspension,
    torus_7,
)
from dehnsom.polynomial import binom, sign
from dehnsom.posets import dual, order_complex, serialize_poset_json
from dehnsom.suite import CATALOG, COMPLEX_DS_SPECS

from conftest import seeded_poset
from oracles import (
    closure_of_facets,
    euler_from_faces,
    frozenset_singularity_profile,
    h_closed_form,
    link_faces,
    short_h_by_links,
    submask_sum,
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


def test_h_vector_examples(bowtie):
    assert h_vector(simplex_boundary(3)).entries == (1, 1, 1, 1)
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
    with pytest.raises(NotPure, match="^short h-numbers need a pure complex$"):
        short_h_vector(build_complex([(1, 2, 3), (3, 4)]))
    with pytest.raises(EmptyInput, match="^short h-vector needs d >= 1$"):
        short_h_vector(SimplicialComplex([()]))  # only the empty face


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


@pytest.mark.parametrize("spec", COMPLEX_DS_SPECS)
def test_singularity_profile_matches_frozenset_reference_on_catalog(spec):
    cx = generate_from_string(spec)
    assert singularity_profile(cx) == frozenset_singularity_profile(cx)


def test_singularity_profile_orders_mixed_labels_like_face_sort_key():
    # 10 sorts after 2 as an int and before it as a string; "a" after every int
    cx = build_complex([(1, 2, 10), (2, 10, "a"), (1, 10, "a"), (1, 2, "b"), (2, "a", "b")])
    prof = singularity_profile(cx)
    assert len(prof.error_set) > 1
    assert prof == frozenset_singularity_profile(cx)
    assert face_sort_key(iter([10, "a", 2])) == face_sort_key([2, 10, "a"])  # read once


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_singularity_profile_matches_frozenset_reference_on_order_complexes(seed):
    P = seeded_poset(seed)
    for Q in (P, dual(P)):
        cx = order_complex(Q).complex
        assert singularity_profile(cx) == frozenset_singularity_profile(cx)


def _off_label_order(seed):
    """Complexes whose vertices are not in label order: a pure complex over
    reversed label order (through from_masks), and in P's index order the
    order complexes of its face poset and of a seeded poset's dual."""
    cx = random_pure_complex(2 + seed % 2, 6 + seed % 3, 0.5, seed)
    rev = cx.vertices[::-1]
    bit = {v: 1 << i for i, v in enumerate(rev)}
    P = seeded_poset(seed)
    return [SimplicialComplex.from_masks(rev, [sum(bit[v] for v in f) for f in cx.faces]),
            order_complex(face_poset(cx)).complex, order_complex(dual(P)).complex]


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_outputs_ignore_the_vertex_order(seed):
    for cx in _off_label_order(seed):
        twin = SimplicialComplex(cx.faces)
        assert twin.vertices == tuple(sorted(cx.vertices, key=label_sort_key))
        assert cx.vertices != twin.vertices
        assert singularity_profile(cx) == singularity_profile(twin)
        assert serialize_facets(cx) == serialize_facets(twin)
        assert (serialize_poset_json(face_poset(cx))
                == serialize_poset_json(face_poset(twin)))


def test_verify_pure_ds_sphere():
    rep = verify_pure_ds(simplex_boundary(3), "simplex")
    assert rep.passed and all(r.rhs == 0 for r in rep.rows)


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


def test_klee_specialization(rp2):
    # semi-Eulerian: h_{d-j} - h_j = (-1)^j C(d,j) [chi - (-1)^{d-1}];
    # criterion 01 makes the torus case
    d = rp2.dim + 1
    h = h_vector(rp2).entries
    gap = reduced_euler_characteristic(rp2) - sign(d - 1)
    for j in range(d + 1):
        assert h[d - j] - h[j] == sign(j) * binom(d, j) * gap


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


def test_catalog_complexes_round_trip():
    for spec, _ in CATALOG:
        cx = generate_from_string(spec)
        if not isinstance(cx, SimplicialComplex):
            continue
        text = serialize_facets(cx)
        again = parse_facets(text)
        assert again == cx and again.vertices == cx.vertices
        assert serialize_facets(again) == text


def test_mixed_labels_round_trip():
    cx = build_complex([(1, 2), ("a", "b")])
    assert serialize_facets(cx) == "1 2\na b\n"
    assert parse_facets(serialize_facets(cx)) == cx


@pytest.mark.parametrize("label", ["1", "a b", "x#y", True, "{x", "colors:x", "", 1.5])
def test_labels_that_read_back_as_others_are_refused(label):
    with pytest.raises(ParseError) as exc:
        serialize_facets(build_complex([(0, label)]))
    assert str(exc.value) == f"label {label!r} does not read back as itself in the facet format"


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


@pytest.mark.parametrize("spec", COMPLEX_DS_SPECS)
def test_short_h_matches_link_oracle(spec):
    from dehnsom.generators import generate_from_string
    cx = generate_from_string(spec)
    assert short_h_vector(cx) == short_h_by_links(cx)

