"""The face kernels of complexes and order complexes, each held once to its reference.

The seeded tests share one corpus, ``_complexes(seed)`` over ``_union(seed)``
and conftest's ``seeded_poset(seed)``, and one input builder,
``_fed(cx, seed)``; a fixed case sits beside a seeded test only where both
call the same assert helper. Each (kernel, reference) pair is compared in
one place, through public values only, so the face layout of the closure
pass can change inside complexes.py alone:

- ``from_masks`` (vertices, ``_masks``, ``_facet_masks``, ``facets()``, dim,
  purity) against ``oracles.set_closure_facets``; χ̃(lk F)
  (``link_euler_values``, ``link_euler_table``), ε(F) (``face_errors``,
  ``face_error_table``) and ``NotPure`` against ``subset_walk_link_euler``;
  ``f_vector``, ``h_vector`` and ``reduced_euler_characteristic`` against
  the set bits of the fed masks and ``h_closed_form``: ``_assert_same``,
  in ``test_runs_match_set_closure`` and ``test_smallest_complexes``, on
  clean, shuffled, rotated, repeated, one-pass and padded input, and in
  ``test_sweep_of_a_deep_order_complex`` and
  ``test_sweep_of_one_big_facet_among_edges``, on complexes whose sweep
  walks some levels whole and some by their live faces only
- the complex of a label family (``SimplicialComplex(faces)``: vertices in
  label order, ``_masks``, ``facets()``, dim, purity, ``mask_of`` round
  trips) against ``frozenset_complex`` and ``face_masks``, and its refusal of
  the family without one covered face: ``test_runs_match_set_closure``
- ``_face_sums`` against ``_relabel``: ``_assert_same``,
  ``test_runs_match_set_closure``, and by hand on the only-∅ and
  three-point cases of ``test_smallest_complexes``
- the closure error text against ``set_closure_facets``:
  ``_assert_same_refusal``, in ``test_broken_families_name_the_same_face``
  and the fixed cases after it
- the face colors and the repeated-color witness against
  ``bit_walk_face_colors``: ``test_colors_by_parent_match_bit_walk``, on the
  seeded poset, its dual and two fixed posets
- ``from_order`` against ``from_masks`` fed the chain masks (every kept
  field) and against ``_assert_same``, on seeded strict orders (most of
  them impure), the seeded posets and their duals, and the smallest
  orders; its refusal of a non-transitive order against
  ``set_closure_facets`` on the same family of paths:
  ``_assert_from_order`` and ``_assert_order_refusal``, in
  ``test_from_order_matches_from_masks``, ``test_smallest_orders`` and
  ``test_from_order_names_the_smallest_unclosed_face``
- the chain runs of ``order_complex`` against ``iter_chains``: its faces
  (label sets built only when read), masks, κ by rank and colors, equality
  and hash with its twin built from labels, and the vertex order of its rank
  selections and links: ``test_chain_runs_match_iter_chains``

The rest pin the ``from_masks`` input contract, the ``from_order`` and
``from_masks`` refusals, that the verify path sweeps once per complex,
builds no label set and never reads the mask-keyed dict wrappers or a face
mask at all, and the ``mask_of`` oracle.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dehnsom import complexes, suite
from dehnsom.balanced import BalancedComplex, parse_balanced, rank_selected
from dehnsom.complexes import (
    SimplicialComplex,
    _bits,
    _face_sums,
    build_complex,
    f_vector,
    face_error_table,
    face_errors,
    face_sort_key,
    h_vector,
    label_sort_key,
    link,
    link_euler_table,
    link_euler_values,
    reduced_euler_characteristic,
    singularity_profile,
    verify_pure_ds,
)
from dehnsom.errors import EmptyInput, InternalError, NotBalanced, NotPure
from dehnsom.generators import (
    boolean_lattice,
    face_poset,
    random_graded_poset,
    random_pure_complex,
    torus_7,
)
from dehnsom.posets import classify_poset, dual, order_complex

from conftest import seeded_poset
from oracles import (
    _relabel,
    balanced_text,
    bit_walk_face_colors,
    face_masks,
    frozenset_complex,
    h_closed_form,
    iter_chains,
    mask_of,
    set_closure_facets,
    subset_walk_link_euler,
)

EXTRA = (-7, 10**6, "~unused")  # labels no tested complex uses


def _union(seed):
    """The faces of two seeded pure complexes of two sizes on 5..9 vertices:
    a closed family, often impure."""
    n = 5 + seed % 5
    return (random_pure_complex(2 + seed % 3, n, 0.4, seed).faces
            | random_pure_complex(1 + seed % 4, n, 0.25, seed + 1).faces)


def _complexes(seed):
    """The complex of ``_union(seed)``, and the order complexes of a seeded
    graded poset and of its dual."""
    P = seeded_poset(seed)
    return [SimplicialComplex(_union(seed)), order_complex(P).complex,
            order_complex(dual(P)).complex]


def _fed(cx, seed):
    """The vertices of ``cx`` in its own order with EXTRA mixed in, and three
    mask lists over them that give ``cx`` back through ``from_masks``:
    shuffled with every third mask repeated, rotated with every other mask
    repeated, and every mask given twice, shuffled."""
    verts = list(cx.vertices)
    for k, v in enumerate(EXTRA):
        verts.insert((seed + k) % (len(verts) + 1), v)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    masks = [sum(bit[v] for v in cx.face_of(m)) for m in cx._masks]
    rng = random.Random(seed)
    shuffled, twice = masks + masks[seed % 3::3], masks * 2
    rng.shuffle(shuffled)
    rng.shuffle(twice)
    cut = seed % len(masks)
    return verts, [shuffled, masks[cut:] + masks[:cut] + masks[::2], twice]


def _assert_same(got, verts, fed):
    """``got`` is the complex of the face masks ``fed`` over ``verts``: its
    facets, dim and purity by set membership, its unused vertices dropped by
    a bit walk, its masks (built from the runs on first read) and per-face
    sums by relabeling the fed masks, its f-vector, h-vector and χ̃ from
    their set bits, and its χ̃(lk F) and ε(F), in ``_masks`` order, by
    subset enumeration."""
    facet_masks, dim, pure = set_closure_facets(verts, fed)
    used = [i for i in range(len(verts)) if any(m >> i & 1 for m in facet_masks)]
    new_bits, values = [0] * len(verts), [0] * len(verts)
    for j, i in enumerate(used):
        new_bits[i], values[i] = 1 << j, 3 ** j + 5 ** (j + 30)
    assert got.vertices == tuple(verts[i] for i in used)
    assert got._masks == tuple(sorted(set(_relabel(fed, new_bits))))
    # dropping unused bits keeps the mask order, so positions follow the fed masks
    assert _face_sums(got, [values[i] for i in used]) == _relabel(sorted(set(fed)), values)
    assert (got.dim, got.pure) == (dim, pure)
    sizes = [m.bit_count() for m in set(fed)]
    f = tuple(map(sizes.count, range(dim + 2)))
    assert f_vector(got).entries == f
    assert h_vector(got) == (h_closed_form(f, dim + 1), not pure)
    assert reduced_euler_characteristic(got) == -sum((-1) ** k * fk for k, fk in enumerate(f))
    assert got._facet_masks == tuple(_relabel(facet_masks, new_bits))
    assert got.facets() == sorted((frozenset(verts[i] for i in _bits(m)) for m in facet_masks),
                                  key=face_sort_key)
    walked = subset_walk_link_euler(got)
    assert link_euler_values(got) == tuple(walked[m] for m in got._masks)
    assert list(link_euler_table(got).items()) == list(walked.items())
    if not pure:
        with pytest.raises(NotPure):
            face_errors(got)
        return
    errors = [walked[m] - (-1) ** (dim - m.bit_count()) for m in got._masks]
    assert face_errors(got) == errors
    assert list(face_error_table(got).items()) == list(zip(map(got.face_of, got._masks), errors))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_runs_match_set_closure(seed):
    rng = random.Random(seed)
    # the complex of a label family holds it, over its labels in label order,
    # by the frozenset checks; without a face that another face covers the
    # family is refused
    fam = _union(seed)
    cx = SimplicialComplex(fam)
    dim, pure, facets = frozenset_complex(fam)
    assert cx.vertices == tuple(sorted({v for f in fam for v in f}, key=label_sort_key))
    assert cx._masks == face_masks(fam, cx.vertices)
    assert all(cx.face_of(mask_of(cx, f)) == f for f in fam)
    assert (cx.dim, cx.pure, cx.facets()) == (dim, pure, sorted(facets, key=face_sort_key))
    covered = sorted(fam - facets, key=face_sort_key)[1:]  # not the empty face
    dropped = covered[seed % len(covered)]
    with pytest.raises(ValueError):
        frozenset_complex(fam - {dropped})
    with pytest.raises(InternalError, match="not closed under inclusion"):
        SimplicialComplex(fam - {dropped})
    for cx in _complexes(seed):
        _assert_same(cx, cx.vertices, cx._masks)
        verts, inputs = _fed(cx, seed)
        for fed in inputs:
            again = SimplicialComplex.from_masks(verts, fed)
            _assert_same(again, verts, fed)
            assert (again.vertices, again._masks) == (cx.vertices, cx._masks)
        _assert_same(SimplicialComplex.from_masks(verts, iter(inputs[0])), verts, inputs[0])
        # per-face sums of a random bit map: zeros, single bits and wide values
        # (the call that builds _masks, one bit per vertex, is held to _relabel
        # by _assert_same)
        bits = [rng.choice((0, 1 << rng.randrange(80), rng.randrange(1 << 80)))
                for _ in cx.vertices]
        assert _face_sums(cx, bits) == _relabel(cx._masks, bits)


def test_smallest_complexes():
    with pytest.raises(EmptyInput):
        SimplicialComplex.from_masks(EXTRA, [])
    # only the empty face, repeated: no run, no level
    empty = SimplicialComplex.from_masks(EXTRA, [0, 0])
    _assert_same(empty, EXTRA, [0])
    assert empty._masks == (0,) and link_euler_values(empty) == (-1,)
    assert _face_sums(empty, []) == [0]  # no vertex: no column is read
    # three points, one of them unused
    points = SimplicialComplex.from_masks(("a", "b", "c", "d"), [8, 0, 1, 4])
    _assert_same(points, ("a", "b", "c", "d"), [0, 1, 4, 8])
    assert points.vertices == ("a", "c", "d") and points._masks == (0, 1, 2, 4)
    assert link_euler_values(points) == (2, -1, -1, -1)
    assert _face_sums(points, [1, 10, 100]) == [0, 1, 10, 100]


def _assert_sweeps_both_ways(cx, verts, fed):
    """``_assert_same(cx, verts, fed)`` on a complex whose link sweep has
    levels on both sides of its half-live test: some walk every position,
    some only the faces with more vertices than the level."""
    live = [sum(k > j for k in cx._sizes) for j in range(len(cx._cols))]
    assert min(live) * 2 < len(cx._sizes) <= max(live) * 2
    _assert_same(cx, verts, fed)


@pytest.mark.parametrize("seed", [3, 11])
def test_sweep_of_a_deep_order_complex(seed):
    # rank 8: chains of up to 7 elements, so the top levels are mostly padding
    cx = order_complex(random_graded_poset((2,) * 7, 0.5, seed)).complex
    _assert_sweeps_both_ways(cx, cx.vertices, cx._masks)


def test_sweep_of_one_big_facet_among_edges():
    # an 8-vertex facet among 300 edges on 30 vertices: from level 2 up fewer
    # than half the faces are live, and the complex is not an order complex;
    # the faces of the facet on vertices 0..7 are the masks below 2^8
    rng = random.Random(5)
    edges = rng.sample([(1 << a) | (1 << b) for a in range(30) for b in range(a)], 300)
    fed = [*range(1 << 8), *(1 << v for v in range(30)), *edges]
    cx = SimplicialComplex.from_masks(range(30), fed)
    assert cx.dim == 7 and not cx.pure
    _assert_sweeps_both_ways(cx, tuple(range(30)), fed)


# --- the closure error text ------------------------------------------------------

def _assert_same_refusal(verts, broken):
    """``from_masks`` refuses ``broken`` with the text of the set-membership
    closure, and returns that text."""
    with pytest.raises(InternalError) as oracle:
        set_closure_facets(verts, broken)
    with pytest.raises(InternalError) as got:
        SimplicialComplex.from_masks(verts, broken)
    assert str(got.value) == str(oracle.value)
    return str(got.value)


def _smallest_unclosed(masks):
    family = set(masks)
    return min(m for m in family if any(m ^ (1 << i) not in family for i in _bits(m)))


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9), cut=st.integers(1, 3))
def test_broken_families_name_the_same_face(seed, cut):
    for cx in _complexes(seed):
        verts, (fed, *_) = _fed(cx, seed)
        family = set(fed)
        covered = sorted(m for m in family if m and any(
            m | 1 << i in family for i in range(len(verts)) if not m >> i & 1))
        if not covered:
            continue
        gone = set(random.Random(seed).sample(covered, min(cut, len(covered))))
        broken = [m for m in fed if m not in gone]
        face = {verts[i] for i in _bits(_smallest_unclosed(broken))}
        assert (_assert_same_refusal(verts, broken)
                == f"family not closed under inclusion at {face}")


@pytest.mark.parametrize("gone, named", [
    (0b011, "{0, 1, 2}"),  # {0, 1, 2} lacks its parent {0, 1}
    (0b110, "{0, 1, 2}"),  # {0, 1, 2} has its parent but lacks {1, 2}
    (0b100, "{0, 2}"),  # {0, 2} has its parent {0} but lacks {2}
])
def test_missing_parent_and_missing_face_below(gone, named):
    broken = [m for m in range(8) if m != gone]
    assert (_assert_same_refusal((0, 1, 2), broken)
            == f"family not closed under inclusion at {named}")


def test_repeats_before_the_first_unclosed_face():
    # {0, 1, 2} lacks its edge {1, 2}; every face before it comes twice
    fed = [7, 3, 0, 4, 2, 1, 5, 3, 0, 1, 2, 4, 5]
    assert (_assert_same_refusal((0, 1, 2), fed)
            == "family not closed under inclusion at {0, 1, 2}")


# --- the from_masks input contract -----------------------------------------------

def _state(cx):
    """The complex's public values: its fields, facets and χ̃(lk F)."""
    return (cx.vertices, cx.dim, cx.pure, cx._masks, cx._facet_masks, cx.facets(),
            link_euler_values(cx))


def test_largest_mask_repeated():
    # the repeat is the last adjacent pair of the sorted input
    verts = ("a", "b")
    got = SimplicialComplex.from_masks(verts, [3, 0, 1, 3, 2])
    assert _state(got) == _state(SimplicialComplex.from_masks(verts, [0, 1, 2, 3]))
    assert got._masks == (0, 1, 2, 3)


def test_caller_list_is_left_as_given():
    torus = torus_7()
    masks = list(torus._masks)
    fed = masks[::-1] + masks[:9]
    before = list(fed)
    SimplicialComplex.from_masks(torus.vertices, fed)
    assert fed == before


# --- the balanced coloring ---------------------------------------------------------

@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_colors_by_parent_match_bit_walk(torus_poset, seed):
    P = seeded_poset(seed)
    for Q in (P, dual(P), torus_poset, boolean_lattice(4)):
        bal = order_complex(Q)
        cx, d = bal.complex, bal.d
        # the rank coloring, rotated (proper), then seeded colorings (most often improper)
        kappas = [bal.kappa, {v: 1 + (c + seed) % d for v, c in bal.kappa.items()}]
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


# --- the blocks of from_order and the chain runs of order_complex -----------------------

def _chain_family(below):
    """The masks of every vertex set whose members, in increasing order, are
    each under the next by ``below`` (the chains, when ``below`` is
    transitive), by a walk over all vertex subsets."""
    def linked(m):
        face = list(_bits(m))
        return all(s in below[t] for s, t in zip(face, face[1:]))

    return [m for m in range(1 << len(below)) if linked(m)]


def _strict_order(seed):
    """A seeded strict order on 1..9 vertices as ``below`` lists: the
    transitive closure of random pairs s < t, so its chains are often of
    several lengths (an impure complex)."""
    rng = random.Random(seed)
    m = 1 + seed % 9
    density = rng.choice((0.15, 0.3, 0.6))
    below = []
    for t in range(m):
        under = set()
        for s in range(t):
            if rng.random() < density:
                under |= {s, *below[s]}
        below.append(sorted(under))
    return below


def _orders(seed):
    """(vertices, below) of a seeded strict order with mixed labels, and of
    the proper parts of the seeded graded poset and of its dual, read by
    ``leq_i``."""
    below = _strict_order(seed)
    out = [(("v", 7, -3, "~", 10**6, "a", 0, "zz", 2)[:len(below)], below)]
    for P in (seeded_poset(seed), dual(seeded_poset(seed))):
        top = P.top_i
        out.append((P.labels[1:top], [[s for s in range(t) if P.leq_i(s + 1, t + 1)]
                                      for t in range(top - 1)]))
    return out


def _assert_from_order(verts, below):
    """``from_order`` keeps every field that ``from_masks`` keeps when fed
    the chain masks, and both hold to ``_assert_same``."""
    masks = _chain_family(below)
    got = SimplicialComplex.from_order(verts, below)
    ref = SimplicialComplex.from_masks(verts, masks)
    _assert_same(got, verts, masks)
    assert _state(got) == _state(ref)
    assert (got._starts, got._sizes, got._cols, got._facets) == (
        ref._starts, ref._sizes, ref._cols, ref._facets)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_from_order_matches_from_masks(seed):
    orders = _orders(seed)
    for verts, below in orders:
        _assert_from_order(verts, below)
    # one pair s < u < t left out of a transitive order: the path family is
    # not closed, and the smallest face lacking a face below is named
    verts, below = orders[0]
    gaps = [(t, s) for t, low in enumerate(below) for u in low for s in below[u]]
    if gaps:
        t, s = gaps[seed % len(gaps)]
        broken = [[x for x in low if (u, x) != (t, s)] for u, low in enumerate(below)]
        _assert_order_refusal(verts, broken)


@pytest.mark.parametrize("below", [
    pytest.param([], id="only-empty"),
    pytest.param([[]], id="one-point"),
    pytest.param([[], []], id="two-points"),
    pytest.param([[], [0]], id="edge"),
    pytest.param([[], [], [0, 1]], id="vertex-over-two-points"),
    pytest.param([[], [0], [], [2]], id="two-edges"),
])
def test_smallest_orders(below):
    _assert_from_order(("a", 1, "c", -4)[:len(below)], below)


def _assert_order_refusal(verts, below):
    """``from_order`` refuses ``below`` with the text of the set-membership
    closure on the same family, and returns that text."""
    with pytest.raises(InternalError) as oracle:
        set_closure_facets(verts, _chain_family(below))
    with pytest.raises(InternalError) as got:
        SimplicialComplex.from_order(verts, below)
    assert str(got.value) == str(oracle.value)
    return str(got.value)


def test_from_order_names_the_smallest_unclosed_face():
    # 0 < 1 < 2 without 0 < 2: {0, 1, 2} lacks {0, 2}; 3 over 1 only adds {1, 3}
    assert (_assert_order_refusal((0, 1, 2, 3), [[], [0], [1], [1]])
            == "family not closed under inclusion at {0, 1, 2}")
    # 3 over 1 and 2 but not over 0: {0, 1, 3} lacks {0, 3}
    assert (_assert_order_refusal((0, 1, 2, 3), [[], [0], [], [1, 2]])
            == "family not closed under inclusion at {0, 1, 3}")


@pytest.mark.parametrize("verts, below, text", [
    pytest.param(("a", "b", "a"), [[], [], []], "a vertex is repeated", id="repeated-vertex"),
    pytest.param(("a", "b", "c"), [[], [0], [1, 0]],
                 "below[2] is not an increasing list of vertices before 2", id="not-increasing"),
    pytest.param(("a", "b", "c"), [[], [0], [0, 0]],
                 "below[2] is not an increasing list of vertices before 2", id="repeated-entry"),
    pytest.param(("a", "b"), [[1], []],
                 "below[0] is not an increasing list of vertices before 0", id="later-vertex"),
    pytest.param(("a", "b"), [[], [1]],
                 "below[1] is not an increasing list of vertices before 1", id="vertex-under-itself"),
    pytest.param(("a", "b"), [[], [-1]],
                 "below[1] is not an increasing list of vertices before 1", id="negative"),
    pytest.param(("a", "b"), [[], [], []], "3 lists for 2 vertices", id="too-many-lists"),
    pytest.param(("a", "b", "c"), [[], []], "2 lists for 3 vertices", id="too-few-lists"),
    # a set is a family of masks for from_masks
    pytest.param(("a", "b", "a"), {0, 1, 2}, "a vertex is repeated", id="masks-repeated-vertex"),
    pytest.param(("a", "b", "c"), {1}, "the empty face is missing", id="masks-no-empty-face"),
    pytest.param(("a", "b", "c"), {0, 0b1000}, "a face uses bit 3, past the 3 vertices",
                 id="masks-bit-past-vertices"),
])
def test_constructor_refusals(verts, below, text):
    build = SimplicialComplex.from_masks if isinstance(below, set) else SimplicialComplex.from_order
    with pytest.raises(InternalError) as exc:
        build(verts, below)
    assert str(exc.value) == text


def _chains(P):
    """(the proper elements' labels in index order, the chains of P∖{0̂,1̂} as
    label sets, the rank of every proper element's label)."""
    proper = sorted({i for chain in iter_chains(P, max_size=1) for i in chain})
    faces = {frozenset(P.labels[i] for i in chain) for chain in iter_chains(P)}
    return [P.labels[i] for i in proper], faces, {P.labels[i]: P.rank_of[i] for i in proper}


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9), n=st.integers(min_value=1, max_value=6))
def test_chain_runs_match_iter_chains(seed, n):
    P, B = seeded_poset(seed), boolean_lattice(n)
    rng = random.Random(seed)
    for Q in (P, dual(P), B):
        got = order_complex(Q)
        cx = got.complex
        assert cx._faces is None  # nothing has read the label sets yet
        labels, faces, kappa = _chains(Q)
        masks = face_masks(faces, labels)
        ref = SimplicialComplex.from_masks(labels, masks)
        assert cx._masks == masks
        assert _state(cx) == _state(ref)
        assert cx.faces == faces
        assert got.kappa == kappa
        assert got.face_colors == BalancedComplex(ref, kappa).face_colors
        # the twin built from labels has its vertices in label order, not in
        # P's index order; rank selections and links keep each one's order
        twin = SimplicialComplex(faces)
        assert cx == twin == ref and hash(cx) == hash(twin) == hash(ref)
        if Q is B:
            continue  # B_6 has 4,683 faces: the selections and links below take the seeded posets
        twin_bal = BalancedComplex(twin, kappa)
        for k in range(1 << got.d):
            S = [c + 1 for c in range(got.d) if k >> c & 1]
            sub = rank_selected(got, S)
            assert sub == rank_selected(twin_bal, S)
            assert sub.vertices == tuple(v for v in cx.vertices if v in set(sub.vertices))
        for face in rng.sample(sorted(faces, key=face_sort_key), min(5, len(faces))):
            lk = link(cx, face)
            assert lk == link(twin, face)
            assert lk.vertices == tuple(v for v in cx.vertices if v in set(lk.vertices))


# --- the verify path -------------------------------------------------------------------

def _count_sweeps(monkeypatch):
    calls = []
    kernel = complexes._link_euler_sweep

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(complexes, "_link_euler_sweep", counted)
    return calls


def test_verify_all_sweeps_a_balanced_complex_once(monkeypatch, tmp_path):
    calls = _count_sweeps(monkeypatch)
    bal = order_complex(face_poset(torus_7(), True))
    reports = suite.verify_all(bal, "O(torus)")
    assert [r.identity for r in reports] == ["ds", "flag-ds"]
    assert all(r.passed for r in reports)
    assert len(calls) == 1
    assert bal.complex._faces is None  # no label set was built

    path = tmp_path / "sd_torus.txt"
    path.write_text(balanced_text(bal))
    calls.clear()
    from_file = parse_balanced(path.read_text())
    again = suite.verify_all(from_file, "O(torus)")
    assert [r.to_dict() for r in again] == [r.to_dict() for r in reports]
    assert len(calls) == 1


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


def test_verify_path_skips_mask_keyed_tables(tripwire):
    expected = _results(11)
    assert tripwire(AssertionError("the verify path read a mask-keyed table"),
                    ["link_euler_table", "face_error_table"]) >= 2
    assert _results(11) == expected


def test_verify_path_reads_no_face_mask(torus_poset, tripwire):
    """O(P) is built, colored and verified without a face bitmask: the
    reports of a poset and of its order complex are the same while every
    read of ``_masks`` raises."""
    def posets():  # the first five shapes of the seeded corpus
        return [Q for seed in range(5) for Q in (seeded_poset(seed), dual(seeded_poset(seed)))]

    def reports(Q):
        return [r.to_dict() for X in (Q, order_complex(Q)) for r in suite.verify_all(X, "P")]

    expected = list(map(reports, [*posets(), torus_poset, boolean_lattice(4)]))
    fresh = [*posets(), face_poset(torus_7(), True), boolean_lattice(4)]
    assert tripwire(AssertionError("the verify path read a face mask"), ["_masks"],
                    SimplicialComplex) == 1
    assert list(map(reports, fresh)) == expected


def test_mask_of_ors_repeated_vertices():
    cx = build_complex([(1, 2)])
    assert mask_of(cx, [1, 1]) == mask_of(cx, [1]) == 1
    assert cx.face_of(mask_of(cx, [2, 1, 2])) == frozenset({1, 2})
