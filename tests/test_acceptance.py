"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single `criterion NN PASS` line once its assertions hold,
so `pytest tests/test_acceptance.py -v -s` reads as a checklist. Left and
right sides always travel through independent code paths.
"""

import time

import pytest

from dehnsom.balanced import verify_flag_ds
from dehnsom.complexes import (
    face_error_table,
    h_vector,
    link_euler_table,
    reduced_euler_characteristic,
    short_h_vector,
    verify_pure_ds,
)
from dehnsom.generators import (
    boolean_lattice,
    chain,
    circle_join,
    cross_polytope,
    face_poset,
    polygon_lattice,
    random_graded_poset,
    random_pure_complex,
    rp2_6,
    simplex_boundary,
    torus_7,
)
from dehnsom.polynomial import binom, sign
from dehnsom.posets import (
    chain_mobius_product,
    chain_error,
    classify_poset,
    dual,
    min_j_sing_flat,
    min_j_sing_order_complex,
    min_j_sing_recursive,
    order_complex,
    verify_simplicial_ds,
)
from dehnsom.toric import (
    coeff_C,
    defect_sequence,
    dual_defect_report,
    lower_eulerian_defect,
    toric_pair,
    verify_1sing,
    verify_euler_relation,
    verify_generalized,
    verify_main,
)

from oracles import iter_chains, mask_of


def ok(n, text):
    print(f"criterion {n:02d} PASS - {text}")


@pytest.fixture(scope="module")
def random_complex_corpus():
    corpus = []
    for s in range(200):
        d = 2 + s % 4
        n = min(12, d + 2 + (s * 7) % 7)
        density = 0.25 + 0.1 * (s % 5)
        corpus.append(random_pure_complex(d, n, density, s))
    return corpus


@pytest.fixture(scope="module")
def classification_catalog():
    cat = [boolean_lattice(n) for n in range(2, 7)]
    cat += [chain(n) for n in range(2, 6)]
    cat += [polygon_lattice(n) for n in range(3, 9)]
    cat += [face_poset(x, True) for x in
            (simplex_boundary(3), cross_polytope(3), torus_7(), rp2_6())]
    cat.append(face_poset(__import__("dehnsom").generators.suspension(torus_7()), True))
    return cat


def test_criterion_01_torus_klee_case(torus):
    h = h_vector(torus).entries
    assert h == (1, 4, 10, -1)
    rep = verify_pure_ds(torus, "torus_7")
    assert rep.passed
    for j in range(4):
        row = next(r for r in rep.rows if r.index == f"j={j}")
        assert row.lhs == h[3 - j] - h[j] == sign(j) * binom(3, j) * (-2)
        assert row.rhs == row.lhs  # the sweep side agrees exactly
    ok(1, "torus_7 h=(1,4,10,-1), Klee residuals zero against the sweep")


def test_criterion_02_pure_ds_random_corpus(random_complex_corpus):
    assert len(random_complex_corpus) == 200
    for cx in random_complex_corpus:
        assert cx.dim + 1 <= 5 and len(cx.vertices) <= 12
        assert verify_pure_ds(cx).passed
    ok(2, "pure DS residuals zero on 200 seeded random pure complexes")


def test_criterion_03_circle_join_closed_form(torus):
    for n in (3, 4, 5, 6):
        cx = circle_join(n, torus)
        h = h_vector(cx).entries
        assert verify_pure_ds(cx).passed
        for j in range(6):
            assert h[5 - j] - h[j] == sign(j) * (-2) * (binom(5, j) - n * binom(3, j - 1))
    ok(3, "circle-join closed form for circle_join(n, torus_7), n=3..6")


def test_criterion_04_short_h_identity(random_complex_corpus):
    for cx in random_complex_corpus:
        d = cx.dim + 1
        if d < 1:
            continue
        h = h_vector(cx).entries
        hs = short_h_vector(cx)
        for i in range(1, d + 1):
            assert hs[i - 1] == i * h[i] + (d - i + 1) * h[i - 1]
    ok(4, "short-h identity across the criterion-2 corpus")


def test_criterion_05_simplicial_poset_ds(doubled_edge):
    for cx in (simplex_boundary(3), cross_polytope(3), torus_7(), rp2_6()):
        assert verify_simplicial_ds(face_poset(cx, True)).passed
    assert verify_simplicial_ds(doubled_edge).passed
    from dehnsom.posets import simplicial_poset_f
    assert simplicial_poset_f(doubled_edge) == (1, 2, 2)
    ok(5, "simplicial-poset DS residuals zero on face posets + the doubled-edge poset")


def test_criterion_06_flag_ds_balanced_catalog(torus_poset, rp2_poset):
    balanced = [order_complex(boolean_lattice(n)) for n in range(2, 6)]
    balanced += [order_complex(p) for p in
                 (torus_poset, rp2_poset, face_poset(cross_polytope(3), True))]
    for bal in balanced:
        rep = verify_flag_ds(bal)
        assert rep.passed
        assert any(r.index.startswith("refine") for r in rep.rows)
    ok(6, "flag DS residuals zero incl. the |S|=i refinement rows")


def test_criterion_07_mu_chain_link_equivalences(classification_catalog):
    for P in classification_catalog:
        if P.rho < 1 or P.rho > 6:
            continue
        oc = order_complex(P).complex
        chi = reduced_euler_characteristic(oc)
        assert chi == P.mobius_i(P.bottom_i, P.top_i)  # chi(O(P)) = mu(0,1)
        link_chi = link_euler_table(oc)
        errors = face_error_table(oc)
        for c in iter_chains(P):
            labels = [P.labels[i] for i in c]
            mask = mask_of(oc, labels)
            prod = chain_mobius_product(P, labels)
            assert link_chi[mask] == sign(len(c)) * prod          # link product formula
            assert chain_error(P, labels) == errors[frozenset(labels)]  # chain = link error
    ok(7, "mu/chi, link-product, and chain=link error laws on rank <= 6 catalog posets")


def test_criterion_08_stanley_symmetry():
    for p in [boolean_lattice(n) for n in range(2, 7)]:
        pair = toric_pair(p)
        d = p.rho - 1
        assert all(pair.h_indexed[k] == pair.h_indexed[d - k] for k in range(d + 1))
    for n in range(3, 9):
        pair = toric_pair(polygon_lattice(n))
        assert [pair.h_indexed[k] for k in range(3)] == [1, n - 2, 1]
    for x in (simplex_boundary(3), simplex_boundary(4), cross_polytope(3)):
        pair = toric_pair(face_poset(x, True))
        d = x.dim + 1
        assert all(pair.h_indexed[k] == pair.h_indexed[d - k] for k in range(d + 1))
    ok(8, "toric hhat palindromic on Eulerian lattices; polygons give (1, n-2, 1)")


def test_criterion_09_swartz_defects_and_A0(torus_poset):
    seq = defect_sequence(torus_poset)
    for k in range(4):
        assert seq[k] == sign(4 - k) * binom(3, k) * (-2)
    e = torus_poset.mobius_i(torus_poset.bottom_i, torus_poset.top_i) - sign(4)
    assert seq[0] == sign(3 + 1) * e  # A_0 = (-1)^{d+1} e, see decisions ledger
    for s in range(100):
        ranks = ((2, 2), (2, 3, 2), (3, 3), (2, 2, 3))[s % 4]
        p = random_graded_poset(ranks, 0.45 + 0.01 * (s % 10), s)
        d = p.rho - 1
        ee = p.mobius_i(p.bottom_i, p.top_i) - sign(p.rho)
        assert defect_sequence(p)[0] == sign(d + 1) * ee
    ok(9, "Swartz defects on the torus poset; A_0 = (-1)^{d+1} e on 100 random posets")


def test_criterion_10_one_sing_suite(susp_poset):
    cls = classify_poset(susp_poset)
    assert cls.min_j_sing == 1 and not cls.semi_eulerian
    rep = verify_1sing(susp_poset)
    assert rep.passed and any(r.asserted and r.rhs != 0 for r in rep.rows)
    rep_links = verify_euler_relation(susp_poset)
    assert rep_links.passed and "vertex-links" in [r.index for r in rep_links.rows]
    ok(10, "1-Sing defect formula and vertex-link relation on the suspension poset")


def test_criterion_11_generalized_identity(classification_catalog, susp2_poset,
                                           oct_torus_poset, susp_poset):
    catalog = list(classification_catalog) + [susp2_poset, oct_torus_poset,
                                              dual(susp_poset)]
    for P in catalog:
        assert verify_generalized(P).passed
    for s in range(50):
        ranks = ((2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 2, 3), (2, 3, 3, 2))[s % 5]
        p = random_graded_poset(ranks, 0.5 + 0.01 * (s % 7), 1000 + s)
        assert p.rho <= 6
        assert verify_generalized(p).passed
    ok(11, "generalized polynomial identity on the catalog + 50 random posets")


def test_criterion_12_main_theorem_three_way(classification_catalog, susp_poset,
                                             susp2_poset):
    checked = 0
    for P in list(classification_catalog) + [susp_poset, susp2_poset]:
        cls = classify_poset(P)
        j, d = cls.min_j_sing, P.rho - 1
        if not cls.lower_eulerian or d <= 2 * j:
            continue
        seq = defect_sequence(P)
        main_rows = {r.index: r for r in verify_main(P).rows}
        for k in range(d + 1):
            if 2 * k > d + j:
                row = main_rows[f"k={k}"]
                assert row.asserted and seq[k] == row.rhs == lower_eulerian_defect(P, k)
                checked += 1
    assert checked > 20
    ts = [chain(0), boolean_lattice(1), boolean_lattice(2), boolean_lattice(3),
          boolean_lattice(4)] + [polygon_lattice(n) for n in range(3, 9)]
    for t in ts:
        for u in range(t.rho, 11):
            for v in range(0, u + 1):
                assert coeff_C(t, u, v) + coeff_C(t, u, v + 1) == coeff_C(t, u + 1, v + 1)
    ok(12, "defect / C-weighted / lower-Eulerian three-way agreement + Pascal rule")


def test_criterion_13_duality(susp_poset, classification_catalog):
    rep = dual_defect_report(susp_poset)
    assert rep.passed
    assert any(r.asserted and r.index.startswith("k=") for r in rep.rows)
    for P in classification_catalog:
        assert min_j_sing_flat(dual(P)) == min_j_sing_flat(P)
    ok(13, "j=1 dual-difference formula; min_j_sing invariant under duality")


def test_criterion_14_three_criteria(classification_catalog, doubled_edge):
    for P in list(classification_catalog) + [doubled_edge]:
        flat = min_j_sing_flat(P)
        assert flat == min_j_sing_recursive(P) == min_j_sing_order_complex(P)
    for s in range(100):
        ranks = ((2, 2), (2, 3, 2), (3, 3), (2, 2, 2))[s % 4]
        p = random_graded_poset(ranks, 0.5, 5000 + s)
        flat = min_j_sing_flat(p)
        assert flat == min_j_sing_recursive(p) == min_j_sing_order_complex(p)
    ok(14, "three singularity criteria agree on the catalog + 100 random posets")


def test_criterion_15_cli_round_trip_and_verify_all(tmp_path):
    import subprocess
    import sys

    start = time.time()
    path = tmp_path / "obj.facets"
    r = subprocess.run([sys.executable, "-m", "dehnsom.cli", "generate",
                        "circle_join(4,torus_7)", "-o", str(path)],
                       capture_output=True, text=True)
    assert r.returncode == 0
    r2 = subprocess.run([sys.executable, "-m", "dehnsom.cli", "generate",
                         "circle_join(4,torus_7)"], capture_output=True, text=True)
    assert r2.stdout == path.read_text()

    pj = tmp_path / "poset.json"
    subprocess.run([sys.executable, "-m", "dehnsom.cli", "generate",
                    "face_poset(torus_7,true)", "-o", str(pj)],
                   capture_output=True, text=True)
    r3 = subprocess.run([sys.executable, "-m", "dehnsom.cli", "verify", "all",
                         str(pj)], capture_output=True, text=True)
    assert r3.returncode == 0

    r4 = subprocess.run([sys.executable, "-m", "dehnsom.cli", "verify", "all"],
                        capture_output=True, text=True)
    elapsed = time.time() - start
    assert r4.returncode == 0, r4.stdout[-2000:]
    assert elapsed < 60, f"verify all took {elapsed:.1f}s"
    ok(15, f"CLI round-trip + 'verify all' exit 0 in {elapsed:.1f}s")
