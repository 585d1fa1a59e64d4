"""Position-indexed face kernels against their mask-keyed and set-based oracles.

The closure check and the link-Euler sweep address faces by their position in
the sorted ``_masks``; these tests pin them to the mask-keyed sweep, the
subset walk and the set-based closure pass they replaced, and check that the
verify path sweeps each complex once and never goes through the mask-keyed
dict wrappers.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom import complexes, suite
from dehnsom.balanced import parse_balanced, serialize_balanced
from dehnsom.complexes import (
    SimplicialComplex,
    build_complex,
    face_error_table,
    face_errors,
    face_sort_key,
    link_euler_table,
    link_euler_values,
    singularity_profile,
    verify_pure_ds,
)
from dehnsom.errors import InternalError, NotPure
from dehnsom.generators import face_poset, random_graded_poset, random_pure_complex, torus_7
from dehnsom.posets import classify_poset, dual, order_complex

from oracles import mask_keyed_link_euler, mask_of, set_closure_facets, subset_walk_link_euler


def _complexes(seed):
    """A union of two seeded pure complexes (often impure), and the order
    complexes of a seeded graded poset and of its dual."""
    n = 6 + seed % 4
    a = random_pure_complex(2 + seed % 3, n, 0.3, seed)
    b = random_pure_complex(1 + seed % 4, n, 0.2, seed + 1)
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2))[seed % 4]
    P = random_graded_poset(ranks, 0.5, seed)
    return [SimplicialComplex(a.faces | b.faces),
            order_complex(P).complex, order_complex(dual(P)).complex]


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_aligned_link_euler_and_errors_match_oracles(seed):
    for cx in _complexes(seed):
        chi = link_euler_values(cx)
        keyed = mask_keyed_link_euler(cx)
        walked = subset_walk_link_euler(cx)
        assert len(chi) == len(cx._masks)
        assert all(c == keyed[m] == walked[m] for m, c in zip(cx._masks, chi))
        assert list(link_euler_table(cx).items()) == list(keyed.items())
        if not cx.pure:
            with pytest.raises(NotPure):
                face_errors(cx)
            continue
        d = cx.dim + 1
        expected = [walked[m] - (-1) ** (d - 1 - m.bit_count()) for m in cx._masks]
        assert face_errors(cx) == expected
        assert list(face_error_table(cx).values()) == expected


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_closure_check_matches_set_oracle(seed):
    for cx in _complexes(seed):
        verts, masks = cx.vertices, list(cx._masks)
        # shuffled, with repeats: the constructor sorts and dedupes
        fed = masks[seed % len(masks):] + masks[: seed % len(masks)] + masks[::3]
        facet_masks, dim, pure = set_closure_facets(verts, fed)
        again = SimplicialComplex.from_masks(verts, fed)
        assert (again.dim, again.pure) == (dim, pure) == (cx.dim, cx.pure)
        assert again._facet_masks == tuple(facet_masks)
        assert again.facets() == sorted(map(cx.face_of, facet_masks), key=face_sort_key)
        # dropping a covered nonempty face leaves a family that is not closed
        covered = sorted(set(masks) - set(facet_masks))[1:]
        if not covered:
            continue
        broken = [m for m in fed if m != covered[seed % len(covered)]]
        with pytest.raises(InternalError) as oracle:
            set_closure_facets(verts, broken)
        with pytest.raises(InternalError) as got:
            SimplicialComplex.from_masks(verts, broken)
        assert str(got.value) == str(oracle.value)
        assert "not closed under inclusion" in str(got.value)


def test_mask_of_ors_repeated_vertices():
    cx = build_complex([(1, 2)])
    assert mask_of(cx, [1, 1]) == mask_of(cx, [1]) == 1
    assert cx.face_of(mask_of(cx, [2, 1, 2])) == frozenset({1, 2})


def _count_sweeps(monkeypatch):
    calls = []
    kernel = complexes._link_euler_sweep

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(complexes, "_link_euler_sweep", counted)
    return calls


def test_verify_all_sweeps_a_balanced_complex_once(monkeypatch, tmp_path):
    calls = _count_sweeps(monkeypatch)
    bal = order_complex(face_poset(torus_7(), True))
    reports = suite.verify_all(bal, "O(torus)")
    assert [r.identity for r in reports] == ["ds", "flag-ds"]
    assert all(r.passed for r in reports)
    assert calls == [len(bal.complex._masks)]

    path = tmp_path / "sd_torus.txt"
    path.write_text(serialize_balanced(bal))
    calls.clear()
    from_file = parse_balanced(path.read_text())
    again = suite.verify_all(from_file, "O(torus)")
    assert [r.to_dict() for r in again] == [r.to_dict() for r in reports]
    assert calls == [len(from_file.complex._masks)]


def _results(seed):
    P = random_graded_poset((3, 2, 3), 0.5, seed)
    torus = torus_7()
    prof = singularity_profile(torus)
    return {
        "verify_all": [r.to_dict() for r in suite.verify_all(order_complex(P), "O(P)")],
        "ds": verify_pure_ds(torus, "torus").to_dict(),
        "profile": (prof.eulerian, prof.semi_eulerian, prof.min_singular_j, prof.error_set),
        "classify": classify_poset(P, cross_check=True),
    }


def test_verify_path_skips_mask_keyed_tables(monkeypatch):
    expected = _results(11)

    def refuse(*args, **kwargs):
        raise AssertionError("the verify path read a mask-keyed table")

    wrappers = (link_euler_table, face_error_table)
    patched = 0
    for name, module in list(sys.modules.items()):
        if name != "dehnsom" and not name.startswith("dehnsom."):
            continue
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in wrappers):
                monkeypatch.setattr(module, attr, refuse)
                patched += 1
    assert patched >= len(wrappers)
    assert _results(11) == expected
