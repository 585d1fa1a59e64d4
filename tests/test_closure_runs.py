"""The closure pass by top-vertex runs against the vertex-major pass it replaced.

``SimplicialComplex._set_masks`` finds every face's parent (the face minus its
top vertex) one run of equal top vertex at a time and builds each face's
one-vertex-removed faces from its parent's; the link sweep goes level by level
over those per-face drops, and the balanced coloring takes each face's colors
from its parent. ``oracles.vertex_major_closure``, ``vertex_major_link_euler``
and ``star_walk_face_colors`` are the per-vertex kernels from before. These
tests hold the two to the same facets, dim, purity, χ̃(lk F), face colors and
closure errors, on clean, shuffled, repeated, generator and padded input.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.balanced import BalancedComplex
from dehnsom.complexes import (
    SimplicialComplex,
    _bits,
    face_sort_key,
    label_sort_key,
    link_euler_values,
)
from dehnsom.errors import InternalError, NotBalanced
from dehnsom.generators import random_graded_poset, random_pure_complex
from dehnsom.posets import dual, order_complex

from oracles import star_walk_face_colors, vertex_major_closure, vertex_major_link_euler

EXTRA = (-7, 10**6, "~unused")  # labels no tested complex uses


def _complexes(seed):
    """A union of two seeded pure complexes (often impure), and the order
    complexes of a seeded graded poset and of its dual."""
    n = 5 + seed % 5
    a = random_pure_complex(2 + seed % 3, n, 0.4, seed)
    b = random_pure_complex(1 + seed % 4, n, 0.25, seed + 1)
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2), (4, 1, 4))[seed % 5]
    P = random_graded_poset(ranks, 0.5, seed)
    return [SimplicialComplex(a.faces | b.faces), order_complex(P).complex,
            order_complex(dual(P)).complex]


def _fed(cx, seed):
    """(vertices, masks) that give ``cx`` back through ``from_masks``: the
    vertices with EXTRA mixed in, the masks shuffled and partly repeated."""
    verts = sorted(set(cx.vertices) | set(EXTRA), key=label_sort_key)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = [sum(bit[v] for v in cx.face_of(m)) for m in cx._masks]
    masks += masks[seed % 3::3]
    random.Random(seed).shuffle(masks)
    return verts, masks


def _assert_same(got, oracle):
    assert got.vertices == oracle.vertices
    assert got._masks == tuple(oracle.masks)
    assert (got.dim, got.pure) == (oracle.dim, oracle.pure)
    assert got._facet_masks == tuple(oracle.facet_masks)
    assert got.facets() == sorted(map(got.face_of, oracle.facet_masks), key=face_sort_key)
    # each face's drops in ascending vertex order, read off the per-vertex incidence
    drops = [[] for _ in oracle.masks]
    for faces, subs in zip(oracle.star, oracle.drop):
        for k, p in zip(faces, subs):
            drops[k].append(p)
    assert got._drop == list(map(tuple, drops))
    assert list(link_euler_values(got)) == vertex_major_link_euler(
        oracle.masks, oracle.star, oracle.drop)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_runs_match_vertex_major_pass(seed):
    for cx in _complexes(seed):
        _assert_same(cx, vertex_major_closure(cx.vertices, cx._masks))
        verts, fed = _fed(cx, seed)
        oracle = vertex_major_closure(verts, fed)
        _assert_same(SimplicialComplex.from_masks(verts, fed), oracle)
        _assert_same(SimplicialComplex.from_masks(verts, iter(fed)), oracle)


def _smallest_unclosed(masks):
    family = set(masks)
    return min(m for m in family if any(m ^ (1 << i) not in family for i in _bits(m)))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9), cut=st.integers(1, 3))
def test_broken_families_name_the_same_face(seed, cut):
    for cx in _complexes(seed):
        verts, fed = _fed(cx, seed)
        family = set(fed)
        covered = sorted(m for m in family if m and any(
            m | 1 << i in family for i in range(len(verts)) if not m >> i & 1))
        if not covered:
            continue
        gone = set(random.Random(seed).sample(covered, min(cut, len(covered))))
        broken = [m for m in fed if m not in gone]
        with pytest.raises(InternalError) as oracle:
            vertex_major_closure(verts, broken)
        with pytest.raises(InternalError) as got:
            SimplicialComplex.from_masks(verts, broken)
        assert str(got.value) == str(oracle.value)
        face = {verts[i] for i in _bits(_smallest_unclosed(broken))}
        assert str(got.value) == f"family not closed under inclusion at {face}"


@pytest.mark.parametrize("gone, named", [
    (0b011, "{0, 1, 2}"),  # {0, 1, 2} lacks its parent {0, 1}
    (0b110, "{0, 1, 2}"),  # {0, 1, 2} has its parent but lacks {1, 2}
    (0b100, "{0, 2}"),  # {0, 2} has its parent {0} but lacks {2}
])
def test_missing_parent_and_missing_drop(gone, named):
    verts = (0, 1, 2)
    broken = [m for m in range(8) if m != gone]
    with pytest.raises(InternalError) as oracle:
        vertex_major_closure(verts, broken)
    with pytest.raises(InternalError) as got:
        SimplicialComplex.from_masks(verts, broken)
    assert str(got.value) == str(oracle.value) == f"family not closed under inclusion at {named}"


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_colors_by_parent_match_star_walk(seed):
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (4, 1, 4))[seed % 4]
    P = random_graded_poset(ranks, 0.5, seed)
    for bal in (order_complex(P), order_complex(dual(P))):
        cx, d = bal.complex, bal.d
        oracle = vertex_major_closure(cx.vertices, cx._masks)
        # the rank coloring, rotated (proper), then seeded colorings (most often improper)
        kappas = [bal.kappa, {v: 1 + (c + seed) % d for v, c in bal.kappa.items()}]
        kappas += [{v: 1 + (seed // (k + 1) + t * k) % d for k, v in enumerate(cx.vertices)}
                   for t in range(3)]
        for kappa in kappas:
            colors, witness = star_walk_face_colors(oracle.masks, oracle.star, cx.vertices, kappa)
            if witness is None:
                assert BalancedComplex(cx, kappa).face_colors == colors
                continue
            with pytest.raises(NotBalanced) as exc:
                BalancedComplex(cx, kappa)
            assert exc.value.witness == cx.face_of(witness)


def test_smallest_complexes():
    # only the empty face: no run, no level
    empty = SimplicialComplex.from_masks(EXTRA, [0, 0])
    _assert_same(empty, vertex_major_closure(EXTRA, [0]))
    assert empty._drop == [()] and link_euler_values(empty) == (-1,)
    # three points, one of them unused
    points = SimplicialComplex.from_masks(("a", "b", "c", "d"), [8, 0, 1, 4])
    _assert_same(points, vertex_major_closure(("a", "b", "c", "d"), [0, 1, 4, 8]))
    assert points.vertices == ("a", "c", "d") and points._drop == [(), (0,), (0,), (0,)]
