"""Chains of P∖{0̂,1̂} enumerated by networkx, as cliques of its comparability graph.

networkx shares no code with this package, so O(P)'s f-vector, the rank-set
counts α(S) and μ(0̂,1̂) by Hall's theorem are checked against an outside
enumerator. The tests are skipped where networkx is not installed.
"""

import pytest

from dehnsom.complexes import f_vector
from dehnsom.generators import generate_from_string
from dehnsom.posets import flag_alpha_beta, order_complex

nx = pytest.importorskip("networkx")

# each poset's spec, and its repr as the test id
POSETS = {
    "random_graded_poset([2,3,2],0.5,0)": "GradedPoset(n=9, rho=4)",
    "random_graded_poset([3,3],0.8,1)": "GradedPoset(n=8, rho=3)",
    "random_graded_poset([2,2,2,2],0.5,2)": "GradedPoset(n=10, rho=5)",
    "random_graded_poset([3,2,3,2],0.3,3)": "GradedPoset(n=12, rho=5)",
    "random_graded_poset([4,1,4],0.5,4)": "GradedPoset(n=11, rho=4)",
    "random_graded_poset([1,3,1,3,1],0.8,5)": "GradedPoset(n=11, rho=6)",
    "face_poset(torus_7,true)": "GradedPoset(n=44, rho=4)",
    "face_poset(rp2_6,true)": "GradedPoset(n=33, rho=4)",
    "face_poset(cross_polytope(3),true)": "GradedPoset(n=28, rho=4)",
    "face_poset(simplex_boundary(3),true)": "GradedPoset(n=16, rho=4)",
}


@pytest.fixture(scope="module", params=list(POSETS), ids=list(POSETS.values()))
def P(request):
    P = generate_from_string(request.param)
    assert repr(P) == POSETS[request.param]
    return P


def _chains(P):
    """The nonempty chains of P∖{0̂,1̂}, as cliques of its comparability graph."""
    proper = [v for v in P.labels if v not in (P.bottom, P.top)]
    graph = nx.Graph()
    graph.add_nodes_from(proper)
    graph.add_edges_from((a, b) for a in proper for b in proper
                         if a != b and P.leq(a, b))
    return list(nx.enumerate_all_cliques(graph))


def test_order_complex_f_vector_counts_cliques(P):
    counts = [1] + [0] * (P.rho - 1)
    for chain in _chains(P):
        counts[len(chain)] += 1
    assert f_vector(order_complex(P).complex).entries == tuple(counts)


def test_alpha_counts_cliques_by_rank_set(P):
    alpha = [1] + [0] * ((1 << (P.rho - 1)) - 1)
    for chain in _chains(P):
        alpha[sum(1 << (P.rank(v) - 1) for v in chain)] += 1
    for m, count in enumerate(alpha):
        S = [r for r in range(1, P.rho) if m >> (r - 1) & 1]
        assert flag_alpha_beta(P, S)[0] == count


def test_hall_mobius_from_cliques(P):
    # Hall: μ(0̂,1̂) = Σ over the chains C of (0̂,1̂), the empty one included, of (−1)^{|C|+1}
    assert P.mobius(P.bottom, P.top) == -1 + sum((-1) ** (len(c) + 1) for c in _chains(P))
