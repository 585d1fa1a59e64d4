"""The face incidence of the closure pass, seen through what reads it.

A complex rebuilt from shuffled, padded and repeated masks has the same
vertices and ``_masks``, and its χ̃(lk F), which the link sweep takes from the
face incidence, equals the brute-force subset walk. The balanced coloring is
pinned to a bit walk, and the color-set masks of the flag vectors and rank
selection OR repeated colors.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom.balanced import BalancedComplex, flag_h_vector, rank_selected, verify_flag_ds
from dehnsom.complexes import (
    SimplicialComplex,
    f_vector,
    label_sort_key,
    link_euler_values,
    subset_label,
)
from dehnsom.errors import DehnsomError, NotBalanced
from dehnsom.generators import random_graded_poset, random_pure_complex
from dehnsom.posets import dual, order_complex, verify_flag_poset

from oracles import bit_walk_face_colors, subset_walk_link_euler

EXTRA = (-1, 10**6, "~unused")  # labels no tested complex uses


def _fed(cx, seed):
    """(vertices, masks) that give ``cx`` back through ``from_masks``: the
    vertices with EXTRA mixed in, the masks shuffled and partly repeated."""
    verts = sorted(set(cx.vertices) | set(EXTRA), key=label_sort_key)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = [sum(bit[v] for v in cx.face_of(m)) for m in cx._masks]
    cut = seed % len(masks)
    return verts, masks[cut:] + masks[:cut] + masks[::2]


def _complexes(seed):
    n = 5 + seed % 4
    a = random_pure_complex(2 + seed % 3, n, 0.4, seed)
    b = random_pure_complex(1 + seed % 3, n, 0.3, seed + 1)
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2))[seed % 4]
    P = random_graded_poset(ranks, 0.5, seed)
    return [SimplicialComplex(a.faces | b.faces), order_complex(P).complex,
            order_complex(dual(P)).complex]


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_incidence_matches_brute_force(seed):
    for cx in _complexes(seed):
        verts, fed = _fed(cx, seed)
        again = SimplicialComplex.from_masks(verts, fed)
        assert again.vertices == cx.vertices and again._masks == cx._masks
        walked = subset_walk_link_euler(again)
        chi = [walked[m] for m in again._masks]
        assert list(link_euler_values(again)) == chi


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_star_coloring_matches_bit_walk(seed):
    ranks = ((2, 3, 2), (3, 3), (2, 2, 2, 2))[seed % 3]
    bal = order_complex(random_graded_poset(ranks, 0.5, seed))
    cx, d = bal.complex, bal.d
    # the rank coloring with its colors rotated (proper), then seeded
    # colorings by 1..d (most often improper)
    kappas = [{v: 1 + (c + seed) % d for v, c in bal.kappa.items()}]
    kappas += [{v: 1 + (seed // (k + 1) + t * k) % d for k, v in enumerate(cx.vertices)}
               for t in range(3)]
    for kappa in kappas:
        colors, witness = bit_walk_face_colors(cx, kappa)
        if witness is None:
            assert BalancedComplex(cx, kappa).face_colors == colors
            continue
        with pytest.raises(NotBalanced) as exc:
            BalancedComplex(cx, kappa)
        assert exc.value.witness == cx.face_of(witness)
        assert str(exc.value) == f"face {set(cx.face_of(witness))} repeats a color"


def test_color_sets_or_repeated_colors():
    bal = order_complex(random_graded_poset((2, 4, 3), 0.5, 3))
    assert f_vector(rank_selected(bal, [1, 1])).entries == (1, 2)
    assert rank_selected(bal, [1, 1]) == rank_selected(bal, [1])
    h = flag_h_vector(bal)
    assert h[[1, 1]] == h[[1]] == h.by_mask(1)
    assert h[[2, 1, 2]] == h.by_mask(0b11)


def test_colors_below_one_are_refused():
    bal = order_complex(random_graded_poset((2, 4, 3), 0.5, 3))
    h = flag_h_vector(bal)
    for colors in ([0], [1, 0], [-2]):
        with pytest.raises(DehnsomError):
            h[colors]
        with pytest.raises(DehnsomError):
            rank_selected(bal, colors)


def test_one_subset_label_for_color_and_rank_sets():
    assert [subset_label(m) for m in (0, 1, 0b101, 0b1110)] == ["{}", "{1}", "{1,3}",
                                                                  "{2,3,4}"]
    P = random_graded_poset((2, 3, 2), 0.5, 7)
    d = P.rho - 1
    poset_rows = [r.index for r in verify_flag_poset(P).rows]
    complex_rows = [r.index for r in verify_flag_ds(order_complex(P)).rows][: 1 << d]
    assert poset_rows == complex_rows == [f"S={subset_label(m)}" for m in range(1 << d)]
