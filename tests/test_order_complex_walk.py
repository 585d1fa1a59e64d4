"""Order complexes built by one sort and a two-list chain walk.

``posets.order_complex`` walks the chains as two parallel lists (masks and
last elements) and ``SimplicialComplex.from_masks`` sorts its input once,
dropping repeats only when a neighbour check finds one. These tests pin both
to the tuple walk and the ``sorted(set(...))`` they replaced, and pin the
constructor's contract on repeated, unsorted and one-pass inputs.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.balanced import BalancedComplex
from dehnsom.complexes import SimplicialComplex
from dehnsom.errors import InternalError
from dehnsom.generators import boolean_lattice, random_graded_poset, torus_7
from dehnsom.posets import dual, order_complex

from oracles import set_closure_facets, tuple_walk_chain_masks, vertex_major_closure


def _state(cx):
    """The complex's fields, with the face incidence of the vertex-major
    closure pass over its masks."""
    oracle = vertex_major_closure(cx.vertices, cx._masks)
    return (cx.vertices, cx.dim, cx.pure, cx._masks, cx._facet_masks, cx._drop,
            oracle.star, oracle.drop)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9), n=st.integers(min_value=2, max_value=6))
def test_two_list_walk_matches_tuple_walk(seed, n):
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2), (4, 1, 4))[seed % 5]
    P = random_graded_poset(ranks, 0.5, seed)
    for Q in (P, dual(P), boolean_lattice(n)):
        got = order_complex(Q)
        labels, masks, kappa = tuple_walk_chain_masks(Q)
        ref = SimplicialComplex.from_masks(labels, masks)
        assert got.complex._masks == tuple(masks)
        assert _state(got.complex) == _state(ref)
        assert got.kappa == kappa
        assert got.face_colors == BalancedComplex(ref, kappa).face_colors


def _masks_of(cx):
    return cx.vertices, list(cx._masks)


def test_only_the_empty_face_repeated():
    once = SimplicialComplex.from_masks((), [0])
    assert _state(SimplicialComplex.from_masks((), [0, 0, 0])) == _state(once)
    assert once._masks == (0,) and once.dim == -1


def test_largest_mask_repeated():
    # the repeat is the last adjacent pair of the sorted input
    verts = ("a", "b")
    got = SimplicialComplex.from_masks(verts, [3, 0, 1, 3, 2])
    assert _state(got) == _state(SimplicialComplex.from_masks(verts, [0, 1, 2, 3]))
    assert got._masks == (0, 1, 2, 3)


def test_every_mask_given_twice():
    verts, masks = _masks_of(torus_7())
    fed = masks * 2
    random.Random(7).shuffle(fed)
    assert _state(SimplicialComplex.from_masks(verts, fed)) == _state(torus_7())


def test_one_pass_generator_input():
    verts, masks = _masks_of(torus_7())
    got = SimplicialComplex.from_masks(verts, (m for m in reversed(masks + masks[:5])))
    assert _state(got) == _state(torus_7())


def test_caller_list_is_left_as_given():
    verts, masks = _masks_of(torus_7())
    fed = masks[::-1] + masks[:9]
    before = list(fed)
    SimplicialComplex.from_masks(verts, fed)
    assert fed == before


def test_repeats_before_the_first_unclosed_face():
    # {0, 1, 2} lacks its edge {1, 2}; every face before it comes twice
    verts = (0, 1, 2)
    fed = [7, 3, 0, 4, 2, 1, 5, 3, 0, 1, 2, 4, 5]
    with pytest.raises(InternalError) as got:
        SimplicialComplex.from_masks(verts, fed)
    assert str(got.value) == "family not closed under inclusion at {0, 1, 2}"
    with pytest.raises(InternalError) as oracle:
        set_closure_facets(verts, fed)
    assert str(got.value) == str(oracle.value)
