"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes invariants from first principles (explicit subset
enumeration, textbook recursions, hand convolution) without touching the
package's internal representations, so an agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools
import math
from array import array
from fractions import Fraction
from typing import NamedTuple

from dehnsom.complexes import _bits, _relabel, label_sort_key
from dehnsom.errors import EmptyInput, FaceNotInComplex, InternalError
from dehnsom.posets import _proper_mask, build_poset


def closure_of_facets(facets):
    """All subsets of the given facets, plus the empty set."""
    faces = {frozenset()}
    for f in facets:
        f = tuple(f)
        for k in range(1, len(f) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(f, k))
    return faces


def f_counts(faces):
    """(f_{-1}, f_0, ..., f_{d-1}) by direct counting."""
    top = max(len(f) for f in faces)
    out = [0] * (top + 1)
    for f in faces:
        out[len(f)] += 1
    return tuple(out)


def euler_from_faces(faces):
    return sum((-1) ** (len(f) - 1) if len(f) else -1 for f in faces)


def h_closed_form(f, d):
    """h_k = sum_i (-1)^{k-i} C(d-i, k-i) f_{i-1}, the expanded transform."""
    def c(n, k):
        return math.comb(n, k) if 0 <= k <= n else 0

    return tuple(
        sum((-1) ** (k - i) * c(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def link_faces(faces, f):
    """lk F by literal definition: G disjoint from F with F ∪ G a face."""
    f = frozenset(f)
    return {g for g in faces if not (g & f) and (g | f) in faces}


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


# --- hand-rolled polynomials over Fraction, lowest degree first ---------------

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


# --- frozenset and member-scan kernels, replaced in the package by bitmask walks ---

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


def face_masks(faces, vertices):
    """The faces as sorted bitmasks, bit i standing for vertices[i]."""
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    return tuple(sorted(sum(bit[v] for v in f) for f in faces))


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


def member_scan_chains(P, allowed_ranks=None, max_size=None):
    """Chains of P∖{0̂,1̂} as index tuples, extending each chain by testing
    every proper element with leq_i; the empty chain comes first."""
    members = [i for i in _proper(P)
               if allowed_ranks is None or P.rank_of[i] in allowed_ranks]
    yield ()
    if max_size is not None and max_size < 1:
        return
    stack = [(i,) for i in reversed(members)]
    while stack:
        chain = stack.pop()
        yield chain
        if max_size is not None and len(chain) >= max_size:
            continue
        last = chain[-1]
        for j in members:
            if j > last and P.leq_i(last, j):
                stack.append(chain + (j,))


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


# --- enumerating kernels, replaced in the package by linear-work transforms ---

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


# --- per-pair kernels, replaced in the package by Möbius rows and Horner steps ---

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


def pairwise_toric(P):
    """(ĥ, ĝ) of every lower interval [0̂, q] as coefficient lists, lowest degree
    first, by one polynomial product ĝ(u)·(x−1)^{ρ(q)−1−ρ(u)} per pair u < q."""
    from dehnsom.polynomial import ExactPolynomial

    one = ExactPolynomial.one()
    h, g = [None] * P.n, [None] * P.n
    for q in range(P.n):
        rq = P.rank_of[q]
        if rq == 0:
            h[q] = g[q] = one
            continue
        acc = ExactPolynomial.zero()
        for u in _bits(P._down[q] & ~(1 << q)):
            acc = acc + g[u] * ExactPolynomial.x_minus_one_power(rq - 1 - P.rank_of[u])
        h[q] = acc
        g[q] = ((one - ExactPolynomial((0, 1))) * acc).truncate((rq - 1) // 2)
    return [list(p.coeffs) for p in h], [list(p.coeffs) for p in g]


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


# --- mask-keyed kernels, replaced in the package by passes over face positions ---

def mask_keyed_link_euler(cx):
    """χ̃(lk F) for every face, keyed by face bitmask in ``_masks`` order, by
    the signed superset transform with the faces of each vertex bit held in a
    dict keyed by power-of-two ints and the accumulator keyed by mask."""
    acc = dict.fromkeys(cx._masks, -1)
    with_bit = {}  # vertex bit -> the faces containing it
    for h in cx._masks:
        m = h
        while m:
            low = m & -m
            with_bit.setdefault(low, []).append(h)
            m ^= low
    for bit, faces in with_bit.items():
        for h in faces:
            acc[h ^ bit] -= acc[h]
    return acc


def set_closure_facets(vertices, masks):
    """(facet masks, dim, pure) of a family of face masks, bit i standing for
    vertices[i], by set membership: in increasing mask order, every
    one-bit-removed submask must be in the family (else InternalError naming
    the face), and the facets are the faces no such submask reaches."""
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


# --- hashing kernels, replaced in the package by the face incidence of the closure pass ---

def bucketed_link_euler(masks, n):
    """χ̃(lk F) for every face of the sorted ``masks`` over ``n`` vertices, as a
    list aligned with ``masks``, by the signed superset transform with its own
    {mask: position} dict and the faces bucketed by vertex: each step looks
    up the position of the face minus the vertex."""
    position = {m: k for k, m in enumerate(masks)}
    with_vertex = [[] for _ in range(n)]  # vertex -> positions of the faces containing it
    for k, h in enumerate(masks):
        for i in _bits(h):
            with_vertex[i].append(k)
    acc = [-1] * len(masks)
    for i, faces in enumerate(with_vertex):
        bit = 1 << i
        for k in faces:
            acc[position[masks[k] ^ bit]] -= acc[k]
    return acc


def brute_incidence(masks, n):
    """(star, drop) of the sorted ``masks`` over ``n`` vertices by scanning
    every face for every vertex: star[i] lists the positions of the faces
    containing i in increasing order, drop[i] the positions of those faces
    minus i, found with ``list.index``."""
    star = [[k for k, m in enumerate(masks) if m >> i & 1] for i in range(n)]
    drop = [[masks.index(masks[k] ^ (1 << i)) for k in star[i]] for i in range(n)]
    return star, drop


# --- hashing order-complex construction, replaced by one sort and a two-list walk ---

def tuple_walk_chain_masks(P):
    """(vertex labels in label order, the chain masks of O(P) sorted without
    repeats, the rank of every vertex label) by walking the chains as
    ``(mask, last element)`` tuples, one length at a time, and dropping the
    repeats through a set before sorting."""
    proper = list(_bits(_proper_mask(P)))
    verts = sorted(proper, key=lambda i: label_sort_key(P.labels[i]))
    bit = [0] * P.n
    for k, i in enumerate(verts):
        bit[i] = 1 << k
    above = P._strict_up_lists()
    steps = [[(bit[j], j) for j in above[i] if j != P.top_i] for i in range(P.n)]
    masks = [0]
    level = [(bit[i], i) for i in proper]  # the chains with one element
    while level:
        masks += [m for m, _ in level]
        level = [(m | b, j) for m, i in level for b, j in steps[i]]
    kappa = {P.labels[i]: P.rank_of[i] for i in proper}
    return [P.labels[i] for i in verts], sorted(set(masks)), kappa


# --- the vertex-major closure pass, replaced in the package by runs of faces by top vertex ---

class VertexMajor(NamedTuple):
    """What the vertex-major closure pass found: the used vertices, the sorted
    masks over them, the facet masks, dim, purity and the face incidence."""

    vertices: tuple
    masks: list
    facet_masks: list
    dim: int
    pure: bool
    star: list  # star[i]: positions of the faces containing vertex i, as array("i")
    drop: list  # drop[i]: positions of the same faces minus i, aligned with star[i]


def vertex_major_closure(vertices, masks):
    """The closure pass over face masks (bit i standing for vertices[i]) that
    ``SimplicialComplex._set_masks`` made before it worked run by run: face by
    face in mask order, one position lookup and two ``array.append`` calls per
    (face, vertex) pair. Sorts and dedupes its input, drops unused vertices,
    and raises InternalError naming the smallest face that is not closed."""
    verts = tuple(vertices)
    masks = sorted(set(masks))
    if not masks:
        raise EmptyInput("a complex has at least the empty face")
    if masks[0]:
        raise InternalError("the empty face is missing")
    position = {m: k for k, m in enumerate(masks)}
    star, drop = [array("i") for _ in verts], [array("i") for _ in verts]
    covered = bytearray(len(masks))
    for k, m in enumerate(masks):
        rest = m
        while rest:
            low = rest & -rest
            p = position.get(m ^ low)
            if p is None:
                face = {verts[i] for i in _bits(m)}
                raise InternalError(f"family not closed under inclusion at {face}")
            i = low.bit_length() - 1
            star[i].append(k)
            drop[i].append(p)
            covered[p] = 1
            rest ^= low
    keep = [i for i, faces in enumerate(star) if faces]
    if len(keep) < len(verts):
        new_bits = [0] * len(verts)
        for j, i in enumerate(keep):
            new_bits[i] = 1 << j
        verts = tuple(verts[i] for i in keep)
        masks = _relabel(masks, new_bits)
        star, drop = [star[i] for i in keep], [drop[i] for i in keep]
    facet_masks = [m for m, c in zip(masks, covered) if not c]
    dim = max(m.bit_count() for m in facet_masks) - 1
    pure = all(m.bit_count() == dim + 1 for m in facet_masks)
    return VertexMajor(verts, masks, facet_masks, dim, pure, star, drop)


def vertex_major_link_euler(masks, star, drop):
    """χ̃(lk F) for every face of the sorted ``masks``, aligned with them, by
    the signed superset transform one vertex at a time over the face
    incidence ``star``/``drop``: from each face H ∋ i to H∖i."""
    acc = [-1] * len(masks)
    for faces, subs in zip(star, drop):
        for k, p in zip(faces, subs):
            acc[p] -= acc[k]
    return acc


def star_walk_face_colors(masks, star, vertices, kappa):
    """(color mask of every face aligned with ``masks``, the first face mask
    that repeats a color or None), ORing each vertex's color into the faces of
    its star."""
    colors = [0] * len(masks)
    for v, faces in zip(vertices, star):
        bit = 1 << (kappa[v] - 1)
        for k in faces:
            colors[k] |= bit
    witness = next((m for m, c in zip(masks, colors) if c.bit_count() != m.bit_count()), None)
    return tuple(colors), witness


def mask_of(cx, face):
    """The bitmask of ``face`` over the vertices of ``cx``; a repeated vertex
    counts once, and a vertex outside the complex raises FaceNotInComplex."""
    m = 0
    try:
        for v in face:
            m |= cx._bit[v]
    except KeyError as exc:
        raise FaceNotInComplex(f"unknown vertex in {set(face)}") from exc
    return m
