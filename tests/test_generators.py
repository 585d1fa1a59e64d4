import itertools

import pytest

from dehnsom.complexes import (
    build_complex,
    f_vector,
    reduced_euler_characteristic,
    serialize_facets,
    singularity_profile,
    verify_pure_ds,
)
from dehnsom.errors import BadParams
from dehnsom.generators import (
    MAX_SPEC_DEPTH,
    Lcg,
    boolean_lattice,
    chain,
    face_poset,
    generate_from_string,
    parse_spec,
    random_graded_poset,
    random_pure_complex,
)
from dehnsom.posets import classify_poset, serialize_poset_json


def test_catalog_classifications_rederived():
    prof = singularity_profile(generate_from_string("simplex_boundary(3)"))
    assert prof.eulerian and prof.min_singular_j == -1

    torus = generate_from_string("torus_7")
    assert f_vector(torus).entries == (1, 7, 21, 14)
    prof = singularity_profile(torus)
    assert prof.semi_eulerian and prof.error_set[0].epsilon == -2

    rp2 = generate_from_string("rp2_6")
    assert f_vector(rp2).entries == (1, 6, 15, 10)
    assert reduced_euler_characteristic(rp2) == 0
    prof = singularity_profile(rp2)
    assert prof.semi_eulerian and prof.error_set[0].epsilon == -1

    sp = generate_from_string("face_poset(suspension(torus_7),true)")
    assert classify_poset(sp).min_j_sing == 1 and sp.rho == 5


def test_compositional_identities():
    from dehnsom.complexes import join
    from dehnsom.generators import suspension, torus_7, two_points
    a = suspension(torus_7())
    b = join(two_points(), torus_7())
    assert serialize_facets(a) == serialize_facets(b)
    # any two-point complex gives the same face counts
    c = generate_from_string("join(simplex_boundary(1),torus_7)")
    assert f_vector(a).entries == f_vector(c).entries

    d = generate_from_string("circle_join(4,torus_7)")
    e = generate_from_string("join(cycle(4),torus_7)")
    assert serialize_facets(d) == serialize_facets(e)


def test_determinism_byte_identical():
    for spec in ("torus_7", "cross_polytope(3)", "circle_join(5,torus_7)",
                 "random_pure_complex(3,8,0.4,7)"):
        a = serialize_facets(generate_from_string(spec))
        b = serialize_facets(generate_from_string(spec))
        assert a == b
    p1 = serialize_poset_json(generate_from_string("random_graded_poset([2,3,2],0.5,11)"))
    p2 = serialize_poset_json(generate_from_string("random_graded_poset([2,3,2],0.5,11)"))
    assert p1 == p2
    p3 = serialize_poset_json(generate_from_string("random_graded_poset([2,3,2],0.5,12)"))
    assert p1 != p3


def test_lcg_constants_pinned():
    rng = Lcg(42)
    first = [rng.next_u64() for _ in range(3)]
    # frozen outputs of the documented MMIX constants with the fixed seed mix
    assert first == [14569003925449282953, 9402915474510987620, 17804269298212379619]
    assert 0.0 <= Lcg(7).uniform() < 1.0
    with pytest.raises(BadParams, match="^randrange needs n > 0$"):
        Lcg(7).randrange(0)


def test_random_pure_complex_properties():
    for seed in range(5):
        cx = random_pure_complex(4, 9, 0.3, seed)
        assert cx.pure and cx.dim == 3


def test_random_graded_poset_properties():
    p = random_graded_poset((2, 3, 2), 0.4, 3)
    assert p.rho == 4
    assert p.rank_of.count(2) == 3


def test_chain_and_boolean_edges():
    assert chain(0).n == 1 and chain(0).rho == 0
    assert boolean_lattice(0).n == 1
    assert boolean_lattice(3).n == 8


def test_boolean_lattice_past_nine():
    b = boolean_lattice(10)
    assert (b.n, b.rho, len(b.covers())) == (1024, 10, 5120)
    assert b.leq("1", "1,10") and b.leq("10", "1,10") and not b.leq("1", "10")
    for n in range(10):  # up to n = 9 the labels and covers are the historical ones
        old = ["".join(map(str, s))
               for k in range(n + 1) for s in itertools.combinations(range(1, n + 1), k)]
        covers = {(s, "".join(sorted(s + str(x)))) for s in old
                  for x in range(1, n + 1) if str(x) not in s}
        b = boolean_lattice(n)
        assert sorted(b.labels) == sorted(old)
        assert set(b.covers()) == covers


def test_face_poset_without_top():
    simplex = build_complex([(1, 2, 3)])
    p = face_poset(simplex, False)
    assert p.rho == 3
    with pytest.raises(BadParams):
        face_poset(generate_from_string("torus_7"), False)


def test_parse_spec_grammar():
    spec = parse_spec("circle_join(4, torus_7)")
    assert spec.name == "circle_join"
    assert spec.params[0] == 4 and spec.params[1].name == "torus_7"

    spec = parse_spec("face_poset(join(cycle(3),rp2_6),true)")
    assert spec.params[1] is True
    assert spec.params[0].params[0].name == "cycle"

    spec = parse_spec("random_graded_poset([2,3,2],0.5,9)")
    assert spec.params == ((2, 3, 2), 0.5, 9)

    # the deepest spec accepted; one level more is refused (tests/test_cli.py)
    deep = MAX_SPEC_DEPTH
    assert parse_spec("cone(" * deep + "torus_7" + ")" * deep).name == "cone"


def test_face_poset_and_ds_build_no_mask_of_a_built_complex():
    # a complex keeps positions only: the face poset reads faces by position
    # and the ds report reads sizes and the sweep, so neither builds masks
    x = build_complex(itertools.combinations(range(5), 3))
    face_poset(x, True)
    verify_pure_ds(x)
    assert x._mask_tuple is None


def test_face_poset_default_top():
    p = generate_from_string("face_poset(torus_7)")
    assert p.rho == 4
