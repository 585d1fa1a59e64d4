"""Reference computations that the tests hold the package's kernels to.

The rule: each quantity has a definition-level reference (brute force from
the definition, for small inputs) and at most one fast reference that shares
no code with the kernel it checks; sympy and networkx serve as outside
references in their own test files. A reference calls the package's public
functions and ``_bits``, and reads public values only: labels, ranks, covers,
``leq_i``, the poset's up/down masks and cover lists, and a complex's
vertices (vertex i is bit i) and sorted face masks ``_masks``. It never
reads the face layout of the closure pass, so that layout can change inside
complexes.py alone. ``frozenset_singularity_profile`` is partial: it takes ε
from ``face_errors`` and the order from ``face_sort_key``, so it checks only
how ``singularity_profile`` sorts and aggregates (ε is checked against the
link walk in test_face_kernels.py).

The quantities, each with its definition-level reference, then its fast
one, and (in brackets) the tests that make each comparison:

- faces, closure, facets, dim, purity and the smallest unclosed face named:
  ``closure_of_facets`` (test_complexes.py ``test_build_complex_*``) and
  ``frozenset_complex`` (test_face_kernels.py ``test_runs_match_set_closure``);
  ``set_closure_facets`` (test_face_kernels.py ``_assert_same`` and
  ``_assert_same_refusal``)
- χ̃(lk F): ``link_faces`` with ``euler_from_faces`` (test_complexes.py
  ``test_link_examples``, ``test_join_euler_identity``);
  ``subset_walk_link_euler`` (``_assert_same``)
- per-face sums of vertex values (``complexes._face_sums``): ``_relabel``
  (``_assert_same``, ``test_runs_match_set_closure``)
- face colors and the face that repeats a color: ``bit_walk_face_colors``
  (``test_colors_by_parent_match_bit_walk``; fixed cases in test_balanced.py)
- face bitmasks: ``mask_of`` (``test_runs_match_set_closure``); h from f:
  ``h_closed_form`` (``_assert_same``); the short h-vector:
  ``short_h_by_links`` (``test_short_h_matches_link_oracle``); the profile:
  ``frozenset_singularity_profile`` (test_complexes.py
  ``test_singularity_profile_*``)
- subset labels ``S={…}`` (``complexes._flag_indexes``): ``subset_label``
  (test_balanced.py ``test_one_subset_label_for_color_and_rank_sets``)
- subset sums (``complexes.subset_transform``): ``submask_sum``
  (``test_subset_transform_matches_submask_loop``); short flag sums:
  ``short_flag_sum_by_vertices`` (``test_short_flag_sum_matches_vertex_scan``)
- chains of P∖{0̂,1̂}, the faces of O(P): ``iter_chains``
  (``test_chain_runs_match_iter_chains``); networkx counts them as cliques
- Möbius values: ``naive_mobius`` (``test_mobius_boolean_lattice_against_naive``);
  ``interval_walk_mobius`` (``test_mobius_rows_match_interval_walk``)
- α(S): ``rank_selected_subposet`` (``test_rank_selected_subposet_matches_order_complex``);
  ``rank_set_pass_alpha`` (``test_alpha_table_matches_rank_set_passes``)
- chain errors by rank set: ``member_scan_error_buckets``
  (``test_chain_walks_match_member_scan``)
- Boolean lower intervals: ``atom_scan_is_boolean_interval``
  (``test_boolean_interval_matches_atom_scan*``); P*: ``rebuilt_dual``
  (``test_dual_matches_rebuilt_dual``, ``test_dual_keeps_label_ties_in_input_order``)
- toric ĥ/ĝ: ``naive_toric`` (``test_horner_table_matches_naive``);
  ``rank_grouped_pull_toric`` (``test_push_table_matches_rank_grouped_pull``)
- the lower-Eulerian defect A_k (``toric.lower_eulerian_defect``, read off
  the main theorem's sum at d − k): ``direct_lower_eulerian_defect``, the
  [x^k] sum itself (test_toric.py ``test_lower_eulerian_defect_matches_direct_sum``)

``face_masks``, ``interval`` and ``balanced_text`` build inputs, and the
``p_*`` helpers are the hand-rolled polynomials of ``naive_toric``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from dehnsom.complexes import _bits, serialize_facets
from dehnsom.errors import FaceNotInComplex, InternalError, NotLowerEulerian
from dehnsom.posets import build_poset, classify_poset, end_errors
from dehnsom.toric import toric_table


# --- faces, closure, facets, dim and purity -------------------------------------

def closure_of_facets(facets):
    """All subsets of the given facets, plus the empty set."""
    faces = {frozenset()}
    for f in facets:
        f = tuple(f)
        for k in range(1, len(f) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(f, k))
    return faces


def frozenset_complex(faces):
    """(dim, pure, facets) of a face family by the frozenset checks the complex
    constructor made before it worked on bitmasks: O(|F|·n) set unions.

    Raises ValueError when removing a vertex from some face leaves the family.
    """
    fam = frozenset(frozenset(f) for f in faces)
    for f in fam:
        for v in f:
            if f - {v} not in fam:
                raise ValueError(f"family not closed under inclusion at {set(f)}")
    dim = max(len(f) for f in fam) - 1
    verts = {v for f in fam for v in f}
    facets = {f for f in fam if not any(f | {v} in fam for v in verts - f)}
    return dim, all(len(f) == dim + 1 for f in facets), facets


def set_closure_facets(vertices, masks):
    """(facet masks, dim, pure) of a family of face masks, bit i standing for
    vertices[i], by set membership: in increasing mask order, every
    one-bit-removed submask must be in the family (else InternalError naming
    the first face that fails, the smallest in mask order), and the facets
    are the faces no such submask reaches."""
    mask_set = set(masks)
    covered = set()
    for m in sorted(mask_set):
        rest = m
        while rest:
            low = rest & -rest
            sub = m ^ low
            if sub not in mask_set:
                face = {vertices[i] for i in _bits(m)}
                raise InternalError(f"family not closed under inclusion at {face}")
            covered.add(sub)
            rest ^= low
    facet_masks = sorted(mask_set - covered)
    dim = max(m.bit_count() for m in facet_masks) - 1
    return facet_masks, dim, all(m.bit_count() == dim + 1 for m in facet_masks)


def face_masks(faces, vertices):
    """The faces as sorted bitmasks, bit i standing for vertices[i]."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    return tuple(sorted(sum(bit[v] for v in f) for f in faces))


# --- χ̃(lk F), per-face sums and face colors ------------------------------------

def euler_from_faces(faces):
    return sum((-1) ** (len(f) - 1) if len(f) else -1 for f in faces)


def link_faces(faces, f):
    """lk F by literal definition: G disjoint from F with F ∪ G a face."""
    f = frozenset(f)
    return {g for g in faces if not (g & f) and (g | f) in faces}


def subset_walk_link_euler(cx):
    """χ̃(lk F) for every face, keyed by face bitmask, by walking every subset
    F of every face H and adding (−1)^{|H∖F|−1}: Σ 2^{|H|} steps."""
    acc = dict.fromkeys(cx._masks, 0)
    for h in cx._masks:
        sub = h
        while True:
            acc[sub] += 1 if ((h ^ sub).bit_count() & 1) else -1
            if sub == 0:
                break
            sub = (sub - 1) & h
    return acc


def _relabel(masks, new_bits):
    """Σ new_bits[i] over the vertices i of each mask, by walking its bits: the
    reference for ``complexes._face_sums`` (a relabeling when every value is
    one bit)."""
    return [sum(new_bits[i] for i in _bits(m)) for m in masks]


def bit_walk_face_colors(cx, kappa):
    """(color mask of every face aligned with cx._masks, first face mask that
    repeats a color or None), by walking every vertex bit of every face."""
    color_bit = [1 << (kappa[v] - 1) for v in cx.vertices]
    colors, witness = [], None
    for m in cx._masks:
        c = 0
        for i in _bits(m):
            c |= color_bit[i]
        if witness is None and c.bit_count() != m.bit_count():
            witness = m
        colors.append(c)
    return tuple(colors), witness


def mask_of(cx, face):
    """The bitmask of ``face`` over the vertices of ``cx``; a repeated vertex
    counts once, and a vertex outside the complex raises FaceNotInComplex."""
    m = 0
    try:
        for v in face:
            m |= 1 << cx.vertices.index(v)
    except ValueError as exc:
        raise FaceNotInComplex(f"unknown vertex in {set(face)}") from exc
    return m


# --- h-vectors, subset sums and the singularity profile -------------------------

def h_closed_form(f, d):
    """h_k = sum_i (-1)^{k-i} C(d-i, k-i) f_{i-1}, the expanded transform."""
    def c(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0

    return tuple(
        sum((-1) ** (k - i) * c(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def short_h_by_links(cx):
    """Σ_v h(lk v), building every vertex link as a complex of its own."""
    from dehnsom.complexes import h_vector, link

    d = cx.dim + 1
    out = [0] * d
    for v in cx.vertices:
        hv = h_vector(link(cx, [v])).entries
        for i in range(d):
            out[i] += hv[i] if i < len(hv) else 0
    return tuple(out)


def subset_label(mask):
    """The subset of [d] held in ``mask`` (bit i for i+1), written like "{1,3}":
    the reference for the ``S={…}`` row indexes (``complexes._flag_indexes``)
    and the labels of ``compute flag``."""
    return "{" + ",".join(str(i + 1) for i in _bits(mask)) + "}"


def submask_sum(table, mask, signed):
    """Σ_{S ⊆ mask} table[S], each term times (−1)^{|mask∖S|} when signed.

    The direct submask loop the flag tables used before the subset transform:
    O(3^d) over a whole table.
    """
    total, sub = 0, mask
    while True:
        sgn = -1 if signed and (mask ^ sub).bit_count() % 2 else 1
        total += sgn * table[sub]
        if sub == 0:
            return total
        sub = (sub - 1) & mask


def short_flag_sum_by_vertices(bal, S, i):
    """Σ over the color-i vertices v of h_S(lk v), by the scan of every face for
    every color-i vertex that short_flag_sum made before it read the face color
    masks: O(n_i·|F|) frozenset tests."""
    counts = [0] * (1 << bal.d)
    for v in bal.complex.vertices:
        if bal.kappa[v] != i:
            continue
        for face in bal.complex.faces:
            if v in face:
                counts[sum(1 << (bal.kappa[u] - 1) for u in face - {v})] += 1
    return submask_sum(counts, sum(1 << (c - 1) for c in S), signed=True)


def frozenset_singularity_profile(cx):
    """The singularity profile of a pure complex with every error face built
    as a label frozenset and sorted by ``face_sort_key``; min_singular_j,
    eulerian and semi_eulerian are read from those sets."""
    from dehnsom.complexes import FaceError, SingularityProfile, face_errors, face_sort_key

    bad = sorted(((cx.face_of(m), e) for m, e in zip(cx._masks, face_errors(cx)) if e),
                 key=lambda fe: face_sort_key(fe[0]))
    min_j = max((len(f) - 1 for f, _ in bad), default=-2) + 1
    return SingularityProfile(
        eulerian=not bad,
        semi_eulerian=all(f == frozenset() for f, _ in bad),
        min_singular_j=min_j,
        error_set=tuple(FaceError(f, e) for f, e in bad),
    )


def balanced_text(bal):
    """The balanced text format of ``bal``: a 'colors:' header in vertex order,
    then its canonical facet list."""
    colors = " ".join(f"{v}={bal.kappa[v]}" for v in bal.complex.vertices)
    return f"colors: {colors}\n" + serialize_facets(bal.complex)


# --- chains, Möbius values and poset tables -------------------------------------

def _proper(P):
    return [i for i in range(P.n) if i not in (P.bottom_i, P.top_i)]


def iter_chains(P, allowed_ranks=None, max_size=None):
    """All chains in P∖{0̂,1̂} (index tuples, increasing rank), incl. the empty
    chain, extending each chain by the bits of the up-set of its last element."""
    if P.rho < 1:
        raise InternalError("proper part needs rho >= 1")
    members = ((1 << P.n) - 1) & ~(1 << P.bottom_i) & ~(1 << P.top_i)
    if allowed_ranks is not None:
        members = sum(1 << i for i in _bits(members) if P.rank_of[i] in allowed_ranks)
    yield ()
    if max_size is not None and max_size < 1:
        return
    stack = [(i,) for i in reversed(list(_bits(members)))]
    while stack:
        chain = stack.pop()
        yield chain
        if max_size is not None and len(chain) >= max_size:
            continue
        last = chain[-1]
        # everything above last except last itself has a larger index
        stack.extend(chain + (j,) for j in _bits(P._up[last] & members & ~(1 << last)))


def naive_mobius(elements, covers):
    """Textbook Möbius recursion over the transitive closure of a cover list.

    Returns (leq, mu) where mu is a dict over comparable pairs.
    """
    leq = {(a, a) for a in elements}
    leq |= set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    mu = {}

    def mu_of(s, t):
        if (s, t) in mu:
            return mu[(s, t)]
        if s == t:
            mu[(s, t)] = 1
        else:
            mu[(s, t)] = -sum(mu_of(s, u) for u in elements
                              if (s, u) in leq and (u, t) in leq and u != t)
        return mu[(s, t)]

    for (s, t) in leq:
        mu_of(s, t)
    return leq, mu


def interval_walk_mobius(P):
    """μ(s, t) for every comparable pair, keyed (s, t), by the interval
    recursion μ(s,u) = −Σ_{s≤w<u} μ(s,w) with one bit walk over [s, u) per pair."""
    mu = {}
    for s in range(P.n):
        for u in _bits(P._up[s]):
            if u == s:
                mu[(s, u)] = 1
            else:
                mu[(s, u)] = -sum(mu[(s, w)]
                                  for w in _bits(P._up[s] & P._down[u] & ~(1 << u)))
    return mu


def rank_selected_subposet(P, S):
    """P_S: elements with rank in S, always retaining 0̂ and 1̂, covers found by
    testing every pair of adjacent kept ranks; a reference for α(S), the
    maximal-chain count of P_S."""
    d = P.rho - 1
    keep_ranks = set(S) | {0, d + 1}
    keep = [i for i in range(P.n) if P.rank_of[i] in keep_ranks]
    labels = [P.labels[i] for i in keep]
    covers = []
    kept_ranks = sorted({P.rank_of[i] for i in keep})
    succ = {r: kept_ranks[k + 1] for k, r in enumerate(kept_ranks[:-1])}
    for a in keep:
        nxt = succ.get(P.rank_of[a])
        if nxt is None:
            continue
        for b in keep:
            if P.rank_of[b] == nxt and P.leq_i(a, b):
                covers.append((P.labels[a], P.labels[b]))
    return build_poset(labels, covers)


def rank_set_pass_alpha(P):
    """α(S) for every rank set S ⊆ [d], bitmask-indexed, by one chain-counting
    pass per S over the ranks in S, testing every pair with leq_i: 2^d passes."""
    d = P.rho - 1
    by_rank = [[] for _ in range(d + 2)]
    for i in _proper(P):
        by_rank[P.rank_of[i]].append(i)
    table = []
    for mask in range(1 << d):
        dp = {P.bottom_i: 1}
        for r in range(1, d + 1):
            if not mask >> (r - 1) & 1:
                continue
            nxt = {}
            for j in by_rank[r]:
                total = sum(v for i, v in dp.items() if P.leq_i(i, j))
                if total:
                    nxt[j] = total
            dp = nxt
        table.append(sum(v for i, v in dp.items() if P.leq_i(i, P.top_i)))
    return table


def member_scan_error_buckets(P):
    """Σ ε(C) over the chains C of P∖{0̂,1̂}, bucketed by rank-set bitmask,
    by recursion over chains extended through leq_i member scans."""
    def sgn(k):
        return -1 if k % 2 else 1

    mu_top = P.mobius_to_top()
    buckets = {}
    sign_d = sgn(P.rho)
    members = _proper(P)

    def visit(last_i, prod, size, rmask):
        eps = sgn(size) * (prod * mu_top[last_i] - sign_d)
        buckets[rmask] = buckets.get(rmask, 0) + eps
        for j in members:
            if j > last_i and P.leq_i(last_i, j):
                visit(j, prod * P.mobius_i(last_i, j), size + 1,
                      rmask | (1 << (P.rank_of[j] - 1)))

    buckets[0] = mu_top[P.bottom_i] - sign_d
    for i in members:
        visit(i, P.mobius_i(P.bottom_i, i), 1, 1 << (P.rank_of[i] - 1))
    return buckets


def atom_scan_is_boolean_interval(P, s, t):
    """Whether [s, t] is a Boolean lattice, building each member's atom set
    with one leq_i test per atom."""
    r = P.rank_of[t] - P.rank_of[s]
    members = list(_bits(P._up[s] & P._down[t]))
    if len(members) != 1 << r:
        return False
    atoms = [u for u in members if P.rank_of[u] == P.rank_of[s] + 1]
    if len(atoms) != r:
        return False
    abit = {a: 1 << k for k, a in enumerate(atoms)}
    aset = {}
    for u in members:
        m = 0
        for a in atoms:
            if P.leq_i(a, u):
                m |= abit[a]
        if m.bit_count() != P.rank_of[u] - P.rank_of[s]:
            return False
        aset[u] = m
    if len(set(aset.values())) != len(members):
        return False
    for v in members:
        lower = [u for u in P._covers_dn[v] if u in aset]
        if v != s and len(lower) != aset[v].bit_count():
            return False
        for u in lower:
            if aset[u] & ~aset[v]:
                return False
    return True


def rebuilt_dual(P):
    """P* by reversing P's labeled covers and validating them again with
    build_poset, which recomputes the ranks and the label order."""
    return build_poset(P.labels, [(b, a) for a, b in P.covers()])


def interval(P, s, t):
    """The closed interval [s, t] of P (element indices) as a poset of its own."""
    from dehnsom.posets import GradedPoset

    if not P.leq_i(s, t):
        raise InternalError("not an interval")
    members = list(_bits(P._up[s] & P._down[t]))
    pos = {m: k for k, m in enumerate(members)}
    base = P.rank_of[s]
    return GradedPoset(
        [P.labels[m] for m in members],
        [P.rank_of[m] - base for m in members],
        [[pos[j] for j in P._covers_up[m] if j in pos] for m in members],
    )


# --- toric ĥ/ĝ, over hand-rolled polynomials (Fraction, lowest degree first) ----

def p_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def p_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] += c * e
    return p_trim(out)


def p_scale(a, c):
    return p_trim([x * Fraction(c) for x in a])


def p_xm1_pow(n):
    out = [Fraction(1)]
    for _ in range(n):
        out = p_mul(out, [Fraction(-1), Fraction(1)])
    return out


def naive_toric(elements, covers):
    """Toric h/g by the literal recursion over materialized lower intervals.

    Returns coefficient lists (lowest degree first) for hhat(P) and ghat(P).
    Quadratic and memo-free on purpose.
    """
    leq, _ = naive_mobius(elements, covers)
    order = []
    remaining = set(elements)
    while remaining:
        layer = sorted((a for a in remaining
                        if all(b == a or (b, a) not in leq for b in remaining)),
                       key=str)
        order.extend(layer)
        remaining -= set(layer)
    ranks = {a: 0 for a in elements}
    for a in order:
        below = [b for b in elements if (b, a) in leq and b != a]
        ranks[a] = 1 + max((ranks[b] for b in below), default=-1)

    ghat = {}
    hhat = {}

    def h_of(t):
        if t in hhat:
            return hhat[t]
        below = [u for u in elements if (u, t) in leq and u != t]
        if not below:
            hhat[t] = [Fraction(1)]
            ghat[t] = [Fraction(1)]
            return hhat[t]
        d_t = ranks[t] - 1
        acc = []
        for u in below:
            acc = p_add(acc, p_mul(g_of(u), p_xm1_pow(d_t - ranks[u])))
        hhat[t] = acc
        return acc

    def g_of(t):
        if t in ghat:
            return ghat[t]
        h = h_of(t)
        if t in ghat:  # the bottom element fills both tables at once
            return ghat[t]
        d_t = ranks[t] - 1
        m = d_t // 2
        shifted = p_add(h, p_scale(p_mul([Fraction(0), Fraction(1)], h), -1))
        ghat[t] = p_trim(shifted[: m + 1])
        return ghat[t]

    top = max(elements, key=lambda a: ranks[a])
    return p_trim(h_of(top)), p_trim(g_of(top))


def rank_grouped_pull_toric(P):
    """(ĥ, ĝ) of every lower interval [0̂, q] as int tuples, lowest degree
    first, trailing zeros trimmed: for each q, the ĝ(u) of the u < q are
    pulled by one bit walk over q's down-mask and summed by rank, then
    ĥ(q) follows by Horner steps in (x−1)."""
    rank = P.rank_of
    h, g = [None] * P.n, [None] * P.n
    for q in range(P.n):
        rq = rank[q]
        if rq == 0:
            h[q] = g[q] = [1]
            continue
        by_rank = [[0] * max(1, (r + 1) // 2) for r in range(rq)]
        for u in _bits(P._down[q] & ~(1 << q)):
            acc = by_rank[rank[u]]
            for k, c in enumerate(g[u]):
                acc[k] += c
        hq = by_rank[0]
        for grouped in by_rank[1:]:
            hq = [b - a for a, b in zip(hq + [0], [0] + hq)]
            for k, c in enumerate(grouped):
                hq[k] += c
        h[q] = hq
        g[q] = [b - a for a, b in zip([0] + hq, hq[:(rq - 1) // 2 + 1])]
    return [tuple(p_trim(p)) for p in h], [tuple(p_trim(p)) for p in g]


def direct_lower_eulerian_defect(P, k):
    """A_k of a lower-Eulerian poset as the direct sum
    Σ_{ρ(q) ≤ j} e(q,1̂) Σ_l (−1)^{d−k−l+1} ĝ_l(Q) C(d−ρ(q), k−ρ(q)+l), with
    j = min_j_sing: [x^k] of the j-Sing identity once every proper lower
    interval is Eulerian."""
    cls = classify_poset(P)
    if not cls.lower_eulerian:
        raise NotLowerEulerian("some proper lower interval is not Eulerian")
    j, d = cls.min_j_sing, P.rho - 1
    e_top = end_errors(P)[0]
    total = 0
    for q in range(P.n):
        rq = P.rank_of[q]
        if rq > j or e_top[q] == 0:
            continue
        inner = sum((-1) ** abs(d - k - l + 1) * c * math.comb(d - rq, k - rq + l)
                    for l, c in enumerate(toric_table(P).g[q]) if 0 <= k - rq + l <= d - rq)
        total += e_top[q] * inner
    return total
