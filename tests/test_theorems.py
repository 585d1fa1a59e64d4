"""Classical theorems that tie two constructions together, on seeded inputs.

Each test names its theorem and reads only public entry points, so an
agreement checks the link sweep, the closure pass and the f→h transform
against mathematics rather than against an earlier version of themselves.
"""

from hypothesis import given, settings, strategies as st

from dehnsom.complexes import (
    SimplicialComplex,
    h_vector,
    join_with_mapping,
    link_euler_table,
    link_euler_values,
)
from dehnsom.generators import random_graded_poset, random_pure_complex, suspension
from dehnsom.posets import order_complex

RANKS = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2), (4, 1, 4), (1, 3, 1, 3, 1))


def _random_complex(seed):
    """A seeded pure complex, or the union of two (often impure)."""
    n = 4 + seed % 4
    a = random_pure_complex(1 + seed % 3, n, 0.4, seed)
    if seed % 2:
        return a
    return SimplicialComplex(a.faces | random_pure_complex(1 + seed % 2, n, 0.3, seed + 1).faces)


def _chi_by_face(cx):
    return {cx.face_of(m): c for m, c in link_euler_table(cx).items()}


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9), density=st.sampled_from((0.3, 0.5, 0.8)))
def test_hall_reduced_euler_characteristic_of_order_complex_is_mobius(seed, density):
    # Hall: χ̃(O(P)) = μ(0̂, 1̂), read as the empty face's entry of the sweep
    P = random_graded_poset(RANKS[seed % len(RANKS)], density, seed)
    assert link_euler_values(order_complex(P).complex)[0] == P.mobius(P.bottom, P.top)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_links_in_a_join_multiply(seed):
    # lk_{Δ*Γ}(F ⊔ G) = lk_Δ F * lk_Γ G, and χ̃(Δ*Γ) = −χ̃(Δ)·χ̃(Γ)
    a, b = _random_complex(seed), _random_complex(seed // 7 + 3)
    joined, left, right = join_with_mapping(a, b)
    chi_a, chi_b, chi_j = _chi_by_face(a), _chi_by_face(b), _chi_by_face(joined)
    assert len(chi_j) == len(chi_a) * len(chi_b)
    for f, x in chi_a.items():
        for g, y in chi_b.items():
            fg = frozenset(left[v] for v in f) | frozenset(right[v] for v in g)
            assert chi_j[fg] == -x * y


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_suspension_multiplies_h_by_one_plus_x(seed):
    # h(susp Δ) = (1 + x)·h(Δ), the h-polynomial of the join with two points
    cx = _random_complex(seed)
    h = h_vector(cx).entries
    expected = tuple(a + b for a, b in zip(h + (0,), (0,) + h))
    assert h_vector(suspension(cx)).entries == expected
