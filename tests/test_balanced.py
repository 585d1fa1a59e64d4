import itertools

import pytest

from dehnsom.balanced import (
    BalancedComplex,
    flag_f_vector,
    flag_h_vector,
    parse_balanced,
    rank_selected,
    short_flag_sum,
    validate_coloring,
    verify_flag_ds,
)
from dehnsom.complexes import (
    _flag_indexes,
    build_complex,
    f_vector,
    face_error_table,
    h_vector,
)
from dehnsom.errors import ColorInS, DehnsomError, NotBalanced, NotPure
from dehnsom.generators import cross_polytope, cycle, face_poset, random_graded_poset
from dehnsom.polynomial import binom, sign
from dehnsom.posets import order_complex, verify_flag_poset

from conftest import seeded_poset
from oracles import (
    balanced_text,
    bit_walk_face_colors,
    rank_selected_subposet,
    short_flag_sum_by_vertices,
    subset_label,
)


@pytest.fixture(scope="module")
def c4():
    return validate_coloring(cycle(4), {0: 1, 1: 2, 2: 1, 3: 2})


@pytest.fixture(scope="module")
def sd_torus(torus_poset):
    return order_complex(torus_poset)


def test_validate_coloring_cases(c4):
    assert c4.d == 2
    with pytest.raises(NotBalanced) as exc:
        validate_coloring(build_complex([(1, 2, 3)]), {1: 1, 2: 1, 3: 2})
    assert exc.value.witness is not None
    # purity first, then the uncolored vertices, as BalancedComplex checks them
    with pytest.raises(NotPure, match="^balanced complexes are pure by definition$"):
        validate_coloring(build_complex([(1, 2, 3), (4, 5)]), {})
    with pytest.raises(NotBalanced, match=r"^vertices without a color: \[2, 3\]$"):
        validate_coloring(build_complex([(1, 2), (2, 3)]), {1: "a", 9: "b"})


def test_order_complex_is_valid_balanced(torus_poset):
    oc = order_complex(torus_poset)
    assert isinstance(oc, BalancedComplex)
    BalancedComplex(oc.complex, oc.kappa)  # re-validation passes


def test_repeated_color_witness_matches_bit_walk():
    text = "colors: 1=1 2=2 3=1 4=3\n1 2 3\n2 3 4\n"
    with pytest.raises(NotBalanced) as exc:
        parse_balanced(text)
    cx = build_complex([(1, 2, 3), (2, 3, 4)])
    _, witness = bit_walk_face_colors(cx, {1: 1, 2: 2, 3: 1, 4: 3})
    assert set(exc.value.witness) == set(cx.face_of(witness)) == {1, 3}


@pytest.mark.parametrize("colors, text, witness", [
    ((1, 1), "face {0, 1} repeats a color", {0, 1}),
    ((1, 1, 1), "face {0, 1} repeats a color", {0, 1}),
    # the color bits of the whole face sum to 1 + 1 + 2 + 4 = 8: a carry through three bits
    ((1, 1, 2, 3), "face {0, 1} repeats a color", {0, 1}),
    ((2, 3, 1, 1), "face {2, 3} repeats a color", {2, 3}),
])
def test_repeated_colors_with_carry_chains(colors, text, witness):
    cx = build_complex([range(len(colors))])
    kappa = dict(enumerate(colors))
    with pytest.raises(NotBalanced) as exc:
        BalancedComplex(cx, kappa)
    assert str(exc.value) == text
    assert exc.value.witness == frozenset(witness)
    assert cx.face_of(bit_walk_face_colors(cx, kappa)[1]) == exc.value.witness


def test_coloring_canonicalization():
    bal = validate_coloring(cycle(4), {0: "red", 1: "blue", 2: "red", 3: "blue"})
    assert sorted(set(bal.kappa.values())) == [1, 2]
    assert bal.color_relabeling == {"blue": 1, "red": 2}


def test_rank_selected(c4):
    assert rank_selected(c4, []).faces == {frozenset()}
    sel = rank_selected(c4, [1])
    assert f_vector(sel).entries == (1, 2)
    assert sel.vertices == (0, 2)
    assert rank_selected(c4, [1, 2]) == c4.complex


def test_rank_selected_matches_subposet():
    p = face_poset(cross_polytope(2), True)
    oc = order_complex(p)
    for S in ([1], [2], [3], [1, 2], [2, 3], [1, 3]):
        sub = rank_selected_subposet(p, S)
        assert rank_selected(oc, S) == order_complex(sub).complex


def test_flag_f_h_examples(c4, hexagon):
    ff, fh = flag_f_vector(c4), flag_h_vector(c4)
    assert (ff[[1]], ff[[2]], ff[[1, 2]]) == (2, 2, 4)
    assert fh[[1, 2]] == 4 - 2 - 2 + 1 == 1
    assert fh[[1]] == fh[[2]] == 1 and fh[[]] == 1

    ff, fh = flag_f_vector(hexagon), flag_h_vector(hexagon)
    assert (ff[[1]], ff[[2]], ff[[1, 2]]) == (3, 3, 6)
    assert fh[[1, 2]] == 1


def test_flag_refines_ordinary(sd_torus):
    for bal in (sd_torus,):
        ff, fh = flag_f_vector(bal), flag_h_vector(bal)
        f = f_vector(bal.complex).entries
        h = h_vector(bal.complex).entries
        d = bal.d
        for i in range(d + 1):
            assert sum(v for m, v in ff.items() if m.bit_count() == i) == f[i]
            assert sum(v for m, v in fh.items() if m.bit_count() == i) == h[i]


def test_flag_mobius_inversion_round_trip(sd_torus, hexagon):
    for bal in (sd_torus, hexagon):
        ff, fh = flag_f_vector(bal), flag_h_vector(bal)
        for t, _ in ff.items():
            total, sub = 0, t
            while True:
                total += fh.by_mask(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & t
            assert total == ff.by_mask(t)


def test_verify_flag_ds_eulerian_symmetry(c4):
    rep = verify_flag_ds(c4, "4-cycle")
    assert rep.passed
    fh = flag_h_vector(c4)
    for mask in range(4):
        assert fh.by_mask(mask) == fh.by_mask(3 ^ mask)


def test_verify_flag_ds_empty_set_row(sd_torus):
    rep = verify_flag_ds(sd_torus)
    row = next(r for r in rep.rows if r.index == "S={}")
    d = sd_torus.d
    eps_empty = face_error_table(sd_torus.complex)[frozenset()]
    assert row.lhs == sign(d) * eps_empty == row.rhs


def test_verify_flag_ds_sd_torus_nonzero_rows(sd_torus):
    rep = verify_flag_ds(sd_torus, "sd(torus)")
    assert rep.passed
    assert any(r.rhs != 0 for r in rep.rows if r.index.startswith("S="))


def test_flag_ds_refinement_rows_match_pure_identity(sd_torus):
    errors = face_error_table(sd_torus.complex)
    d = sd_torus.d
    rep = verify_flag_ds(sd_torus)
    for i in range(d + 1):
        row = next(r for r in rep.rows if r.index == f"refine |S|={i}")
        expected = sign(i - 1) * sum(binom(d - len(f), i) * e for f, e in errors.items())
        assert row.lhs == expected and row.rhs == expected


def test_short_flag_sum_examples(c4, hexagon):
    assert short_flag_sum(c4, [], 1) == 2
    fh = flag_h_vector(c4)
    assert short_flag_sum(c4, [], 1) == fh[[1]] + fh[[]]

    fh6 = flag_h_vector(hexagon)
    assert short_flag_sum(hexagon, [1], 2) == fh6[[1, 2]] + fh6[[1]]

    with pytest.raises(ColorInS):
        short_flag_sum(c4, [1], 1)
    with pytest.raises(NotBalanced, match=r"^S must be a subset of the colors 1\.\.2$"):
        short_flag_sum(c4, [3], 1)


@pytest.mark.parametrize("S,i", [
    (s, i) for i in (1, 2, 3) for s in
    [tuple(x) for r in range(3) for x in itertools.combinations((1, 2, 3), r)]
    if i not in s
])
def test_short_flag_identity_on_sd_torus(sd_torus, S, i):
    fh = flag_h_vector(sd_torus)
    assert short_flag_sum(sd_torus, S, i) == fh[set(S) | {i}] + fh[S]


def test_trivial_short_flag_unwinding(sd_torus):
    # S = empty: LHS counts the color-i vertices, so f_{i} = (f_i - 1) + 1
    ff = flag_f_vector(sd_torus)
    for i in (1, 2, 3):
        assert short_flag_sum(sd_torus, [], i) == ff[[i]]


def test_short_flag_sum_matches_vertex_scan(sd_torus):
    seeded = [order_complex(seeded_poset(seed)) for seed in range(4)]
    for bal in [sd_torus] + seeded:
        for i in range(1, bal.d + 1):
            rest = [c for c in range(1, bal.d + 1) if c != i]
            for r in range(len(rest) + 1):
                for S in itertools.combinations(rest, r):
                    assert short_flag_sum(bal, S, i) == short_flag_sum_by_vertices(bal, S, i)


def test_parse_serialize_balanced_round_trip(c4):
    text = balanced_text(c4)
    again = parse_balanced(text)
    assert again.complex == c4.complex
    assert again.kappa == c4.kappa
    assert balanced_text(again) == text


def test_parse_balanced_requires_header():
    from dehnsom.errors import ParseError
    with pytest.raises(ParseError):
        parse_balanced("1 2\n2 3\n")


def test_flag_ds_on_random_rank_selected_order_complexes():
    from dehnsom.generators import random_graded_poset
    from dehnsom.posets import order_complex
    for seed in range(6):
        p = random_graded_poset((2, 3, 2), 0.6, 90 + seed)
        for S in ([1, 2], [2, 3], [1, 3]):
            sub = rank_selected_subposet(p, S)
            if sub.rho < 1:
                continue
            bal = order_complex(sub)
            assert verify_flag_ds(bal).passed


def test_color_sets_or_repeated_colors():
    bal = order_complex(random_graded_poset((2, 4, 3), 0.5, 3))
    assert f_vector(rank_selected(bal, [1, 1])).entries == (1, 2)
    assert rank_selected(bal, [1, 1]) == rank_selected(bal, [1])
    h = flag_h_vector(bal)
    assert h[[1, 1]] == h[[1]] == h.by_mask(1)
    assert h[[2, 1, 2]] == h.by_mask(0b11)


def test_colors_outside_one_to_d_are_refused():
    bal = order_complex(random_graded_poset((2, 4, 3), 0.5, 3))
    h = flag_h_vector(bal)
    for colors in ([0], [1, 0], [-2]):
        with pytest.raises(DehnsomError):
            h[colors]
        with pytest.raises(DehnsomError):
            rank_selected(bal, colors)
    # a color above d: the defining sum Σ_{T ⊆ S} (−1)^{|S∖T|} f_T is not 0 there
    for fv in (h, flag_f_vector(bal)):
        for colors in ([bal.d + 1], [1, bal.d + 1]):
            with pytest.raises(NotBalanced):
                fv[colors]
    # a coloring by more colors than the facets have vertices
    v = bal.complex.vertices[0]
    with pytest.raises(NotBalanced) as exc:
        BalancedComplex(bal.complex, {**bal.kappa, v: bal.d + 1})
    assert str(exc.value) == f"colors outside 1..{bal.d} at {[v]}"


def test_one_subset_label_for_color_and_rank_sets():
    assert [subset_label(m) for m in (0, 1, 0b101, 0b1110)] == ["{}", "{1}", "{1,3}",
                                                                  "{2,3,4}"]
    P = random_graded_poset((2, 3, 2), 0.5, 7)
    d = P.rho - 1
    poset_rows = [r.index for r in verify_flag_poset(P).rows]
    complex_rows = [r.index for r in verify_flag_ds(order_complex(P)).rows][: 1 << d]
    assert poset_rows == complex_rows == [f"S={subset_label(m)}" for m in range(1 << d)]
    for d in range(13):  # the row indexes are built by doubling, not by subset_label
        assert _flag_indexes(d) == tuple(f"S={subset_label(m)}" for m in range(1 << d))
