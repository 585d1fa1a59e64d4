from __future__ import annotations

import itertools
import sys

import pytest

from dehnsom.generators import (boolean_lattice, cross_polytope, face_poset, random_graded_poset,
                                rp2_6, suspension, torus_7)
from dehnsom.complexes import build_complex
from dehnsom.posets import build_poset, order_complex

# the shapes (elements per proper rank) of the seeded graded posets
RANKS = ((2, 3, 2), (3, 3), (2, 2, 2, 2), (3, 2, 3, 2), (4, 1, 4), (1, 3, 1, 3, 1),
         (3, 2, 3), (2, 3, 3, 2, 2), (2, 3, 2, 3, 2))


def seeded_poset(seed, density=0.5):
    """The seeded graded poset of shape ``RANKS[seed % len(RANKS)]``, the one
    corpus of every seeded poset test."""
    return random_graded_poset(RANKS[seed % len(RANKS)], density, seed)


@pytest.fixture
def tripwire(monkeypatch):
    """``tripwire(error, names, owner=None)`` makes ``names`` raise ``error``
    for the rest of the test: the attributes of the class ``owner`` (a
    property stays a property, so a read raises), or, without one, every
    binding of each name in a dehnsom module. It returns how many bindings
    it replaced."""
    def arm(error, names, owner=None):
        def trip(*args, **kwargs):
            raise error

        scopes = [owner] if owner is not None else [
            m for n, m in sys.modules.items() if n.split(".")[0] == "dehnsom"]
        patched = 0
        for scope in scopes:
            for name in names:
                if name in vars(scope):
                    stub = property(trip) if isinstance(vars(scope)[name], property) else trip
                    monkeypatch.setattr(scope, name, stub)
                    patched += 1
        return patched

    return arm


@pytest.fixture(scope="session")
def torus():
    return torus_7()


@pytest.fixture(scope="session")
def rp2():
    return rp2_6()


@pytest.fixture(scope="session")
def bowtie():
    return build_complex([(1, 2, 3), (1, 2, 4)])


@pytest.fixture(scope="session")
def susp_torus(torus):
    return suspension(torus)


@pytest.fixture(scope="session")
def torus_poset(torus):
    return face_poset(torus, True)


@pytest.fixture(scope="session")
def rp2_poset(rp2):
    return face_poset(rp2, True)


@pytest.fixture(scope="session")
def susp_poset(susp_torus):
    return face_poset(susp_torus, True)


@pytest.fixture(scope="session")
def susp2_poset(susp_torus):
    return face_poset(suspension(susp_torus), True)


@pytest.fixture(scope="session")
def hexagon():
    """The order complex of B_3: a hexagon, balanced by rank."""
    return order_complex(boolean_lattice(3))


@pytest.fixture(scope="session")
def doubled_edge():
    # two vertices joined by two parallel edges, plus a top: a simplicial
    # poset that is not a face lattice
    return build_poset(
        ["bot", "v1", "v2", "e1", "e2", "top"],
        [("bot", "v1"), ("bot", "v2"), ("v1", "e1"), ("v2", "e1"),
         ("v1", "e2"), ("v2", "e2"), ("e1", "top"), ("e2", "top")],
    )


@pytest.fixture(scope="session")
def shared_atoms_poset():
    """Rank 3 with 8 elements, 3 atoms and 3 coatoms, each coatom over two
    atoms, but c1 and c2 share the atom set {a, b}: [0̂, 1̂] is not Boolean,
    and only the distinct-atom-sets test of the one-pass criterion says so."""
    return build_poset(
        ["0", "a", "b", "c", "c1", "c2", "c3", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "c1"), ("b", "c1"), ("a", "c2"),
         ("b", "c2"), ("a", "c3"), ("c", "c3"), ("c1", "1"), ("c2", "1"), ("c3", "1")],
    )


@pytest.fixture(scope="session")
def split_square_poset():
    """B_4 on a, b, c, d with the rank-2 element cd split in two: cd1 lies
    under bcd only and cd2 under acd only. Every lower interval below 1̂ is
    Boolean and 1̂ has 4 atoms and 4 lower covers, so only the 2^4 element
    count (it has 17) says [0̂, 1̂] is not Boolean."""
    subsets = ["".join(c) for k in range(5) for c in itertools.combinations("abcd", k)]
    covers = []
    for lo in subsets:
        for hi in subsets:
            if len(hi) == len(lo) + 1 and set(lo) <= set(hi):
                if hi == "cd":
                    covers += [(lo, "cd1"), (lo, "cd2")]
                elif lo == "cd":
                    covers.append(("cd1" if hi == "bcd" else "cd2", hi))
                else:
                    covers.append((lo, hi))
    elements = [s for s in subsets if s != "cd"] + ["cd1", "cd2"]
    return build_poset(elements, covers)


def _strip_top(P):
    keep = [i for i in range(P.n) if i != P.top_i]
    labels = [P.labels[i] for i in keep]
    covers = [(P.labels[a], P.labels[b]) for a, ups in enumerate(P._covers_up)
              for b in ups if b != P.top_i]
    return labels, covers, [P.labels[i] for i in keep
                            if not any(b != P.top_i for b in P._covers_up[i])]


def poset_join_with_top(P, Q):
    """Face poset of the free join of two boundary complexes given as face
    posets with adjoined tops: pairs of proper elements, plus a new top."""
    la, ca, maxa = _strip_top(P)
    lb, cb, maxb = _strip_top(Q)
    elements = [(x, y) for x in la for y in lb]
    covers = []
    for (x, y) in elements:
        for (u, v) in ca:
            if u == x:
                covers.append(((x, y), (v, y)))
        for (u, v) in cb:
            if u == y:
                covers.append(((x, y), (x, v)))
    elements = [f"{x}*{y}" for (x, y) in elements] + ["TOP"]
    covers = [(f"{a}*{b}", f"{c}*{d}") for (a, b), (c, d) in covers]
    covers += [(f"{x}*{y}", "TOP") for x in maxa for y in maxb]
    return build_poset(elements, covers)


@pytest.fixture(scope="session")
def cube_torus_poset(torus_poset):
    """Free join of the cube boundary (square 2-cells) with the torus:
    rank 7, lower Eulerian, 3-Sing, with non-simplicial rank-3 lower intervals."""
    from dehnsom.posets import dual
    cube = dual(face_poset(cross_polytope(3), True))
    return poset_join_with_top(cube, torus_poset)


@pytest.fixture(scope="session")
def oct_torus_poset(torus):
    from dehnsom.complexes import join
    return face_poset(join(cross_polytope(3), torus), True)
