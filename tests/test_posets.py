import json

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.balanced import flag_f_vector, flag_h_vector
from dehnsom.complexes import (
    f_vector,
    face_error_table,
    h_vector,
    label_sort_key,
    link,
    reduced_euler_characteristic,
)
from dehnsom.errors import InternalError, NotAChain, NotComparable, NotGraded
from dehnsom.generators import (
    boolean_lattice,
    chain,
    cross_polytope,
    cycle,
    face_poset,
    polygon_lattice,
    random_graded_poset,
    simplex_boundary,
    torus_7,
)
from dehnsom.posets import (
    GradedPoset,
    _alpha_table,
    _boolean_lower_intervals,
    _chain_error_buckets,
    build_poset,
    chain_error,
    chain_mobius_product,
    classify_poset,
    dual,
    end_errors,
    flag_alpha_beta,
    interval_error,
    min_j_sing_flat,
    min_j_sing_order_complex,
    min_j_sing_recursive,
    mobius_row,
    order_complex,
    parse_poset_json,
    rank_sums,
    serialize_poset_json,
    simplicial_poset_h,
    verify_flag_poset,
    verify_simplicial_ds,
)
from dehnsom.polynomial import sign

from conftest import RANKS, seeded_poset
from oracles import (
    atom_scan_is_boolean_interval,
    interval_walk_mobius,
    iter_chains,
    member_scan_error_buckets,
    naive_mobius,
    rank_selected_subposet,
    rank_set_pass_alpha,
    rebuilt_dual,
    submask_sum,
)


def test_build_chain_and_diamond():
    c = build_poset(["b", "a", "t"], [("b", "a"), ("a", "t")])
    assert c.rho == 2 and c.bottom == "b" and c.top == "t"
    diamond = build_poset(["0", "a", "b", "1"],
                          [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert diamond.rho == 2


def test_build_rejects_non_graded():
    with pytest.raises(NotGraded) as exc:
        build_poset(["0", "a", "b", "c", "1"],
                    [("0", "a"), ("a", "1"), ("0", "b"), ("b", "c"), ("c", "1")])
    c1, c2 = exc.value.chains
    assert len(c1) != len(c2)


def test_mobius_covers_and_chains():
    c3 = chain(3)
    assert c3.mobius("c0", "c1") == -1
    assert c3.mobius("c0", "c2") == 0
    assert c3.mobius("c0", "c3") == 0
    with pytest.raises(NotComparable):
        boolean_lattice(2).mobius("1", "2")
    with pytest.raises(NotComparable, match="^unknown element 'c9'$"):
        c3.index("c9")


@pytest.mark.parametrize("n", range(1, 7))
def test_mobius_boolean_lattice_against_naive(n):
    b = boolean_lattice(n)
    assert b.mobius("", "".join(map(str, range(1, n + 1)))) == sign(n)
    if n <= 4:
        _, mu = naive_mobius(list(b.labels), b.covers())
        for (s, t), v in mu.items():
            assert b.mobius(s, t) == v


def test_mobius_dual_symmetry(torus_poset):
    q = dual(torus_poset)
    for s in torus_poset.labels[:10]:
        for t in torus_poset.labels[-10:]:
            if torus_poset.leq(s, t):
                assert torus_poset.mobius(s, t) == q.mobius(t, s)


def test_interval_error_examples(torus_poset):
    b4 = boolean_lattice(4)
    for s in ("", "1", "12"):
        assert interval_error(b4, s, "1234") == 0
    assert interval_error(torus_poset, "()", "TOP") == -2
    assert interval_error(chain(2), "c0", "c2") == -1


def test_interval_error_via_order_complex(torus_poset):
    # mu(0,1) = chi(O(P)) gives an independent route to e(0,1)
    oc = order_complex(torus_poset)
    chi = reduced_euler_characteristic(oc.complex)
    assert interval_error(torus_poset, "()", "TOP") == chi - sign(torus_poset.rho)


def test_order_complex_small_cases():
    two_points = order_complex(boolean_lattice(2))
    assert f_vector(two_points.complex).entries == (1, 2)
    assert reduced_euler_characteristic(two_points.complex) == 1

    hexagon = order_complex(boolean_lattice(3))
    assert f_vector(hexagon.complex).entries == (1, 6, 6)
    assert reduced_euler_characteristic(hexagon.complex) == -1
    assert all(f_vector(link(hexagon.complex, [v])).entries == (1, 2)
               for v in hexagon.complex.vertices)

    octagon = order_complex(face_poset(cycle(4), True))
    assert f_vector(octagon.complex).entries == (1, 8, 8)


@pytest.mark.parametrize("maker", [
    lambda: boolean_lattice(4), lambda: chain(4), lambda: polygon_lattice(5),
    lambda: face_poset(simplex_boundary(3), True),
])
def test_euler_equals_mobius(maker):
    p = maker()
    oc = order_complex(p)
    assert reduced_euler_characteristic(oc.complex) == p.mobius(p.bottom, p.top)


def test_chain_error_matches_face_error(torus_poset, susp_poset):
    for P in (torus_poset, susp_poset):
        errors = face_error_table(order_complex(P).complex)
        for c in iter_chains(P):
            labels = [P.labels[i] for i in c]
            assert chain_error(P, labels) == errors[frozenset(labels)]


def test_chain_error_examples(torus_poset, susp_poset):
    b4 = boolean_lattice(4)
    for c in iter_chains(b4):
        assert chain_error(b4, [b4.labels[i] for i in c]) == 0
    assert chain_error(torus_poset, []) == -2
    # apex vertex chain in the suspension face poset: product formula vs link
    apex = "(a:N)"
    assert apex in susp_poset.labels
    eps = chain_error(susp_poset, [apex])
    assert chain_error(susp_poset, iter([apex])) == eps  # an iterator is read once
    oc = order_complex(susp_poset)
    lk_chi = reduced_euler_characteristic(link(oc.complex, [apex]))
    d = susp_poset.rho - 1
    assert eps == lk_chi - sign(d - 1 - 1)
    assert eps == -(chain_mobius_product(susp_poset, [apex]) - sign(d + 1))


def test_chain_validation(torus_poset):
    with pytest.raises(NotAChain):
        chain_error(torus_poset, ["(0)", "(1)"])  # incomparable vertices
    with pytest.raises(NotAChain):
        chain_error(torus_poset, ["()"])  # bottom not allowed
    with pytest.raises(NotAChain, match="^repeated elements$"):
        chain_error(torus_poset, ["(0)", "(0)"])


def test_link_euler_product_formula(torus_poset):
    # chi(lk_{O(P)} F_C) = (-1)^{|C|} mu(0,t1)...mu(tk,1) for every chain
    P = torus_poset
    oc = order_complex(P).complex
    for c in iter_chains(P):
        labels = [P.labels[i] for i in c]
        lhs = reduced_euler_characteristic(link(oc, labels))
        assert lhs == sign(len(c)) * chain_mobius_product(P, labels)


def test_flag_alpha_beta_examples():
    b3 = boolean_lattice(3)
    assert flag_alpha_beta(b3, []) == (1, 1)
    assert flag_alpha_beta(b3, [1, 2]) == (6, 1)
    with pytest.raises(NotComparable, match=r"^S must be a subset of \[2\]$"):
        flag_alpha_beta(b3, [3])


@pytest.mark.parametrize("maker", [
    lambda: boolean_lattice(3), lambda: boolean_lattice(4), lambda: chain(4),
    lambda: polygon_lattice(4),
])
def test_alpha_beta_match_order_complex_flags(maker):
    p = maker()
    oc = order_complex(p)
    ff, fh = flag_f_vector(oc), flag_h_vector(oc)
    d = p.rho - 1
    import itertools
    for r in range(d + 1):
        for S in itertools.combinations(range(1, d + 1), r):
            alpha, beta = flag_alpha_beta(p, S)
            assert alpha == ff[S]
            assert beta == fh[S]


@pytest.mark.parametrize("fixture", ["torus_poset", "rp2_poset", "susp_poset", "doubled_edge"])
def test_flag_alpha_beta_matches_submask_loop(fixture, request):
    p = request.getfixturevalue(fixture)
    d = p.rho - 1
    subsets = [[r + 1 for r in range(d) if m >> r & 1] for m in range(1 << d)]
    pairs = [flag_alpha_beta(p, S) for S in subsets]
    alpha = [a for a, _ in pairs]
    assert [b for _, b in pairs] == [submask_sum(alpha, m, True) for m in range(1 << d)]


def test_beta_symmetric_on_eulerian():
    b4 = boolean_lattice(4)
    import itertools
    for r in range(4):
        for S in itertools.combinations(range(1, 4), r):
            comp = tuple(sorted(set(range(1, 4)) - set(S)))
            assert flag_alpha_beta(b4, S)[1] == flag_alpha_beta(b4, comp)[1]


def test_verify_flag_poset(torus_poset):
    rep = verify_flag_poset(boolean_lattice(4), "B4")
    assert rep.passed and all(r.lhs == 0 for r in rep.rows)
    rep = verify_flag_poset(torus_poset, "torus")
    assert rep.passed
    empty_row = next(r for r in rep.rows if r.index == "S={}")
    assert empty_row.rhs != 0  # epsilon(empty chain) contributes


def test_flag_poset_coincides_with_flag_ds(torus_poset):
    from dehnsom.balanced import verify_flag_ds
    rep_p = verify_flag_poset(torus_poset)
    rep_c = verify_flag_ds(order_complex(torus_poset))
    by_index = {r.index: r for r in rep_c.rows}
    for row in rep_p.rows:
        assert by_index[row.index].lhs == row.lhs
        assert by_index[row.index].rhs == row.rhs


def test_classification_cases(torus_poset, susp_poset, susp2_poset):
    for n in range(2, 6):
        c = classify_poset(boolean_lattice(n))
        assert c.eulerian and c.min_j_sing == -1 and c.simplicial
        assert c.max_lower_simplicial_k == n

    c = classify_poset(torus_poset, cross_check=True)
    assert c.semi_eulerian and not c.eulerian
    assert c.min_j_sing == 0 and c.lower_eulerian and c.simplicial

    c = classify_poset(susp_poset, cross_check=True)
    assert c.min_j_sing == 1 and c.lower_eulerian and not c.semi_eulerian

    c = classify_poset(susp2_poset)
    assert c.min_j_sing == 2 and c.lower_eulerian


def test_three_criteria_agree(torus_poset, susp_poset, doubled_edge):
    for p in (boolean_lattice(4), chain(4), polygon_lattice(6), torus_poset,
              susp_poset, doubled_edge, dual(susp_poset)):
        flat = min_j_sing_flat(p)
        assert flat == min_j_sing_recursive(p) == min_j_sing_order_complex(p)


def test_parity_of_min_j_sing(torus_poset, susp_poset, susp2_poset, cube_torus_poset):
    # a genuinely j-Sing poset with j >= 0 has j + d odd
    for p in (torus_poset, susp_poset, susp2_poset, cube_torus_poset):
        j = min_j_sing_flat(p)
        if j >= 0:
            assert (j + p.rho - 1) % 2 == 1


def test_dual_properties(torus_poset, susp_poset):
    for n in (2, 3, 4):
        q = dual(boolean_lattice(n))
        c = classify_poset(q)
        assert c.eulerian and c.max_lower_simplicial_k == n  # Boolean again
    c3 = chain(3)
    assert dual(c3).rho == 3
    for p in (torus_poset, susp_poset, boolean_lattice(4), polygon_lattice(5)):
        assert min_j_sing_flat(dual(p)) == min_j_sing_flat(p)


def test_gradedness_rejects_rank_jumping_cover():
    with pytest.raises(NotGraded):
        build_poset(["0", "a", "b", "1"],
                    [("0", "a"), ("a", "b"), ("b", "1"), ("0", "b")])


def test_simplicial_poset_h(torus, torus_poset, doubled_edge):
    p = face_poset(simplex_boundary(3), True)
    assert simplicial_poset_h(p).entries == (1, 1, 1, 1)
    assert verify_simplicial_ds(p).passed

    assert simplicial_poset_h(torus_poset).entries == h_vector(torus).entries
    assert verify_simplicial_ds(torus_poset).passed

    assert simplicial_poset_h(doubled_edge).entries == (1, 0, 1)
    assert verify_simplicial_ds(doubled_edge).passed


def test_rank_selected_subposet_matches_order_complex():
    from dehnsom.balanced import rank_selected
    import itertools
    p = boolean_lattice(4)
    oc = order_complex(p)
    d = p.rho - 1
    for r in range(d + 1):
        for S in itertools.combinations(range(1, d + 1), r):
            sub = rank_selected_subposet(p, S)
            left = rank_selected(oc, S)
            if sub.rho >= 1:
                right = order_complex(sub).complex
                assert left == right


def test_poset_json_round_trip(torus_poset):
    text = serialize_poset_json(torus_poset)
    again = parse_poset_json(text)
    assert again.labels == torus_poset.labels
    assert serialize_poset_json(again) == text


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_random_poset_graded_and_classified(seed):
    p = seeded_poset(seed)
    assert p.rho == len(RANKS[seed % len(RANKS)]) + 1
    flat = min_j_sing_flat(p)
    assert flat == min_j_sing_recursive(p)
    if flat >= 0:
        assert (flat + p.rho - 1) % 2 == 1


def test_interval_errors_records(torus_poset, susp_poset):
    labels = torus_poset.labels
    assert [(labels[s], labels[t], e) for s, t, e in torus_poset.bad_intervals()] == [
        ("()", "TOP", -2)]
    rank = susp_poset.rank_of
    assert {rank[t] - rank[s] for s, t, _ in susp_poset.bad_intervals()} == {4, 5}


def test_classification_cached_cross_check_rerun(monkeypatch):
    import dehnsom.posets as ps
    P = face_poset(cycle(6), True)
    first = classify_poset(P)
    assert classify_poset(P) is first

    calls = []

    def counting(criterion):
        real = getattr(ps, criterion)

        def wrapper(Q):
            calls.append(criterion)
            return real(Q)
        return wrapper

    criteria = ["min_j_sing_flat", "min_j_sing_order_complex", "min_j_sing_recursive"]
    for criterion in criteria:
        monkeypatch.setattr(ps, criterion, counting(criterion))
    for _ in range(2):
        assert classify_poset(P, cross_check=True) is first
    assert sorted(calls) == sorted(criteria * 2)
    monkeypatch.setattr(ps, "min_j_sing_recursive", lambda Q: 5)
    with pytest.raises(InternalError):
        classify_poset(P, cross_check=True)


def test_classification_flag_implications(torus_poset, susp_poset, doubled_edge):
    from dehnsom.generators import boolean_lattice as bl
    for p in (bl(3), bl(4), torus_poset, susp_poset, doubled_edge):
        c = classify_poset(p)
        if c.eulerian:
            assert c.semi_eulerian
        if c.semi_eulerian:
            assert c.min_j_sing <= 0
        if c.simplicial:
            assert c.lower_eulerian  # Boolean lower intervals are Eulerian


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_chain_walks_match_member_scan(seed):
    P = seeded_poset(seed)
    assert _chain_error_buckets(P) == member_scan_error_buckets(P)
    B = boolean_lattice(4 + seed % 3)
    assert _chain_error_buckets(B) == member_scan_error_buckets(B)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_alpha_table_matches_rank_set_passes(seed):
    P = seeded_poset(seed)
    assert _alpha_table(P) == rank_set_pass_alpha(P)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_mobius_rows_match_interval_walk(seed):
    P = seeded_poset(seed)
    for Q in (P, dual(P), boolean_lattice(2 + seed % 5)):
        walk = interval_walk_mobius(Q)
        mu_top = Q.mobius_to_top()
        assert Q._mu == {}  # the μ(·, 1̂) column does not seed the rows
        assert isinstance(mu_top, tuple) and Q.mobius_to_top() is mu_top
        expected_bad = [(s, t, mu - sign(Q.rank_of[t] - Q.rank_of[s]))
                        for (s, t), mu in sorted(walk.items())
                        if mu != sign(Q.rank_of[t] - Q.rank_of[s])]
        assert Q.bad_intervals() == expected_bad
        rows = {(s, t): mu for s in range(Q.n) for t, mu in mobius_row(Q, s).items()}
        assert rows == walk
        assert all(mobius_row(Q, q)[Q.top_i] == mu_top[q] for q in range(Q.n))
        e_top, e_bot = end_errors(Q)
        rank, top = Q.rank_of, Q.top_i
        assert (e_top, e_bot, rank_sums(Q, e_top)) == (
            tuple(walk[q, top] - sign(Q.rho - rank[q]) for q in range(Q.n)),
            tuple(walk[Q.bottom_i, q] - sign(rank[q]) for q in range(Q.n)),
            [sum(walk[q, top] - sign(Q.rho - r) for q in range(Q.n) if rank[q] == r)
             for r in range(Q.rho + 1)])


@pytest.mark.parametrize("alpha_first", [False, True])
def test_alpha_reads_no_mobius_and_errors_keep_own_counts(alpha_first):
    for seed in range(8):
        P = seeded_poset(seed)
        if alpha_first:
            _alpha_table(P)
            assert P._mu == {}  # α comes from chain counts alone
        expected = member_scan_error_buckets(seeded_poset(seed))
        assert _chain_error_buckets(P) == expected
    B = boolean_lattice(5)
    if alpha_first:
        _alpha_table(B)
        assert B._mu == {}
    assert _chain_error_buckets(B) == member_scan_error_buckets(boolean_lattice(5))


def test_graded_poset_is_immutable():
    P = chain(3)
    with pytest.raises(AttributeError):
        P.labels = ("x",)
    with pytest.raises(AttributeError):
        P._cls = None
    assert P.labels == ("c0", "c1", "c2", "c3")
    assert classify_poset(P) is classify_poset(P)  # the cache still fills


def _assert_boolean_verdicts_match(P):
    verdicts = _boolean_lower_intervals(P)
    assert verdicts == [atom_scan_is_boolean_interval(P, P.bottom_i, t) for t in range(P.n)]
    return verdicts


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_boolean_interval_matches_atom_scan(seed):
    P = seeded_poset(seed)
    for Q in (P, dual(P)):
        _assert_boolean_verdicts_match(Q)


@pytest.mark.parametrize("make", [*(lambda n=n: boolean_lattice(n) for n in range(2, 7)),
                                  *(lambda n=n: polygon_lattice(n) for n in range(3, 9))])
def test_boolean_interval_matches_atom_scan_on_lattices(make):
    P = make()
    for Q in (P, dual(P)):
        _assert_boolean_verdicts_match(Q)


@pytest.mark.parametrize("name", ["shared_atoms_poset", "split_square_poset"])
def test_boolean_criterion_rejects_the_near_misses(name, request):
    # each poset fails exactly one condition of the one-pass criterion, at 1̂
    P = request.getfixturevalue(name)
    verdicts = _assert_boolean_verdicts_match(P)
    assert verdicts == [t != P.top_i for t in range(P.n)]
    c = classify_poset(P)
    assert c.simplicial and c.max_lower_simplicial_k == P.rho - 1


TIED_LABELS = [
    {"elements": ["b", True, "True", "t"],
     "covers": [["b", True], ["b", "True"], [True, "t"], ["True", "t"]]},
    {"elements": ["t", "x", "True", "b", True],
     "covers": [["b", "True"], ["b", True], ["True", "x"], [True, "x"], ["x", "t"]]},
]


CACHE_SLOTS = ("_above", "_mu", "_mu_top", "_bad", "_ends", "_toric", "_cls")


def _assert_dual_matches_rebuild(P):
    Q = dual(P)
    oracle = rebuilt_dual(P)
    assert (Q.labels, Q.rank_of, Q._covers_up, Q._up) == (
        oracle.labels, oracle.rank_of, oracle._covers_up, oracle._up)
    assert all(getattr(Q, f) in (None, {}) for f in CACHE_SLOTS)  # P*'s caches are its own
    back = dual(Q)
    for field in GradedPoset.__slots__:
        if field not in CACHE_SLOTS:
            assert getattr(back, field) == getattr(P, field), field


@pytest.fixture(scope="module")
def face_poset_complexes():
    return [simplex_boundary(1), simplex_boundary(3), cycle(5), cross_polytope(3), torus_7()]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_dual_matches_rebuilt_dual(face_poset_complexes, seed):
    P = seeded_poset(seed)
    cx = face_poset_complexes[seed % len(face_poset_complexes)]
    for Q in (P, face_poset(cx, True), boolean_lattice(seed % 7)):
        _assert_dual_matches_rebuild(Q)


@pytest.mark.parametrize("doc", TIED_LABELS, ids=["true-first", "True-first"])
def test_dual_keeps_label_ties_in_input_order(doc):
    P = parse_poset_json(json.dumps(doc))
    assert label_sort_key(True) == label_sort_key("True")
    _assert_dual_matches_rebuild(P)
    tied = [v for v in doc["elements"] if str(v) == "True"]
    assert [v for v in dual(P).labels if str(v) == "True"] == tied


def test_end_errors_are_cached_tuples(torus_poset, susp_poset):
    for P in (torus_poset, susp_poset, chain(0), random_graded_poset((2, 3, 2), 0.5, 7)):
        ends = end_errors(P)
        assert end_errors(P) is ends
        mu_top, row = P.mobius_to_top(), mobius_row(P, P.bottom_i)
        assert ends == (
            tuple(mu_top[q] - sign(P.rho - P.rank_of[q]) for q in range(P.n)),
            tuple(row[q] - sign(P.rank_of[q]) for q in range(P.n)))

