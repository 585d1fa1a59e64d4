"""Chains of P∖{0̂,1̂} enumerated by networkx, as cliques of its comparability graph.

networkx shares no code with this package, so O(P)'s f-vector, the rank-set
counts α(S) and μ(0̂,1̂) by Hall's theorem are checked against an outside
enumerator. The tests are skipped where networkx is not installed.
"""

import pytest

from dehnsom.complexes import f_vector
from dehnsom.generators import (
    cross_polytope,
    face_poset,
    random_graded_poset,
    rp2_6,
    simplex_boundary,
    torus_7,
)
from dehnsom.posets import flag_alpha_beta, order_complex

nx = pytest.importorskip("networkx")

POSETS = [random_graded_poset(ranks, density, seed) for seed, (ranks, density) in enumerate([
    ((2, 3, 2), 0.5), ((3, 3), 0.8), ((2, 2, 2, 2), 0.5), ((3, 2, 3, 2), 0.3), ((4, 1, 4), 0.5),
    ((1, 3, 1, 3, 1), 0.8)])]
POSETS += [face_poset(cx, True) for cx in (torus_7(), rp2_6(), cross_polytope(3))]
POSETS += [face_poset(simplex_boundary(3), True)]


def _chains(P):
    """The nonempty chains of P∖{0̂,1̂}, as cliques of its comparability graph."""
    proper = [v for v in P.labels if v not in (P.bottom, P.top)]
    graph = nx.Graph()
    graph.add_nodes_from(proper)
    graph.add_edges_from((a, b) for a in proper for b in proper
                         if a != b and P.leq(a, b))
    return list(nx.enumerate_all_cliques(graph))


@pytest.mark.parametrize("P", POSETS, ids=repr)
def test_order_complex_f_vector_counts_cliques(P):
    counts = [1] + [0] * (P.rho - 1)
    for chain in _chains(P):
        counts[len(chain)] += 1
    assert f_vector(order_complex(P).complex).entries == tuple(counts)


@pytest.mark.parametrize("P", POSETS, ids=repr)
def test_alpha_counts_cliques_by_rank_set(P):
    alpha = [1] + [0] * ((1 << (P.rho - 1)) - 1)
    for chain in _chains(P):
        alpha[sum(1 << (P.rank(v) - 1) for v in chain)] += 1
    for m, count in enumerate(alpha):
        S = [r for r in range(1, P.rho) if m >> (r - 1) & 1]
        assert flag_alpha_beta(P, S)[0] == count


@pytest.mark.parametrize("P", POSETS, ids=repr)
def test_hall_mobius_from_cliques(P):
    # Hall: μ(0̂,1̂) = Σ over the chains C of (0̂,1̂), the empty one included, of (−1)^{|C|+1}
    assert P.mobius(P.bottom, P.top) == -1 + sum((-1) ** (len(c) + 1) for c in _chains(P))
