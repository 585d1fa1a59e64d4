"""Graded posets with unique bottom and top.

Elements are interned to dense indices sorted by (rank, label); the order
relation is kept as per-element up/down bitmasks, so interval sweeps stay
cheap at desk scale. Möbius values are kept as rows: the row of s holds
μ(s, u) for every u ≥ s and is built in one push pass in rank order. All
reported values use the original labels.
"""

from __future__ import annotations

import json
from typing import Iterable, NamedTuple, Sequence

from .complexes import (
    HVector,
    SimplicialComplex,
    _bits,
    face_errors,
    h_from_f,
    label_sort_key,
    subset_label,
    subset_transform,
)
from .errors import (
    CycleDetected,
    InternalError,
    NoUniqueBottom,
    NotAChain,
    NotComparable,
    NotGraded,
    NotSimplicial,
    NoUniqueTop,
    ParseError,
    RangeViolation,
)
from .polynomial import binom, sign
from .reports import Row, VerificationReport


class GradedPoset:
    """Finite graded poset with 0̂ and 1̂, built from its cover relation.

    Instances are immutable; the Möbius rows (``_mu``, keyed by the row's
    element), the μ(·, 1̂) column, the strict up-sets as lists, the bad
    intervals, the toric table and the classification are caches filled on
    first use.
    """

    __slots__ = ("labels", "rank_of", "bottom_i", "top_i", "_index", "_up", "_down",
                 "_covers_up", "_covers_dn", "_above", "_mu", "_mu_top", "_bad",
                 "_toric", "_cls")

    def __init__(self, labels, ranks, covers_up):
        # internal constructor; use build_poset() for validated construction
        labels = tuple(labels)
        n = len(labels)
        covers_up = tuple(tuple(sorted(c)) for c in covers_up)
        dn = [[] for _ in range(n)]
        for i, ups in enumerate(covers_up):
            for j in ups:
                dn[j].append(i)
        covers_dn = tuple(tuple(sorted(c)) for c in dn)
        up = [0] * n
        for i in range(n - 1, -1, -1):
            m = 1 << i
            for j in covers_up[i]:
                m |= up[j]
            up[i] = m
        down = [0] * n
        for i in range(n):
            m = 1 << i
            for j in covers_dn[i]:
                m |= down[j]
            down[i] = m
        for name, value in (
            ("labels", labels),
            ("rank_of", tuple(ranks)),
            ("_index", {v: i for i, v in enumerate(labels)}),
            ("_covers_up", covers_up),
            ("_covers_dn", covers_dn),
            ("_up", tuple(up)),
            ("_down", tuple(down)),
            ("bottom_i", 0),
            ("top_i", n - 1),
            ("_above", None),
            ("_mu", {}),
            ("_mu_top", None),
            ("_bad", None),
            ("_toric", None),
            ("_cls", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPoset is immutable")

    # --- basic queries ------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def rho(self) -> int:
        return self.rank_of[self.top_i]

    @property
    def bottom(self):
        return self.labels[self.bottom_i]

    @property
    def top(self):
        return self.labels[self.top_i]

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError as exc:
            raise NotComparable(f"unknown element {label!r}") from exc

    def rank(self, label) -> int:
        return self.rank_of[self.index(label)]

    def leq(self, a, b) -> bool:
        return bool(self._up[self.index(a)] & (1 << self.index(b)))

    def leq_i(self, i: int, j: int) -> bool:
        return bool(self._up[i] & (1 << j))

    def elements_of_rank(self, r: int) -> list:
        return [v for v, rv in zip(self.labels, self.rank_of) if rv == r]

    def covers(self) -> list[tuple]:
        out = []
        for i, ups in enumerate(self._covers_up):
            out.extend((self.labels[i], self.labels[j]) for j in ups)
        return out

    def __repr__(self) -> str:
        return f"GradedPoset(n={self.n}, rho={self.rho})"

    # --- Möbius function ------------------------------------------------------

    def _strict_up_lists(self) -> tuple[list[int], ...]:
        """The strict up-set of every element as an index list, built once."""
        if self._above is None:
            up = self._up
            object.__setattr__(self, "_above",
                               tuple(list(_bits(up[w] & ~(1 << w))) for w in range(self.n)))
        return self._above

    def _mobius_row(self, s: int) -> dict[int, int]:
        """{u: μ(s, u)} for every u ≥ s in index order, built on first use.

        One push pass in index (= rank) order: when w is reached, every
        element of [s, w) has already pushed into it, so μ(s, w) is final and
        is subtracted from each u above w. The work is Σ_u |[s, u)|.
        """
        row = self._mu.get(s)
        if row is None:
            above = self._strict_up_lists()
            ups = [s, *above[s]]
            acc = [0] * self.n
            acc[s] = 1
            for w in ups:
                val = acc[w]
                if val:
                    for u in above[w]:
                        acc[u] -= val
            row = self._mu[s] = {u: acc[u] for u in ups}
        return row

    def mobius_i(self, s: int, t: int) -> int:
        """μ(s, t), read from the Möbius row of s."""
        val = self._mobius_row(s).get(t)
        if val is None:
            raise NotComparable(f"{self.labels[s]!r} is not below {self.labels[t]!r}")
        return val

    def mobius(self, s, t) -> int:
        return self.mobius_i(self.index(s), self.index(t))

    def mobius_to_top(self) -> tuple[int, ...]:
        """μ(q, 1̂) for every q, via the dual recursion μ(q,1̂) = −Σ_{q<u≤1̂} μ(u,1̂).

        Computed once per poset, independently of the Möbius rows.
        """
        if self._mu_top is None:
            above = self._strict_up_lists()
            out = [0] * self.n
            for q in range(self.n - 1, -1, -1):
                out[q] = -sum([out[u] for u in above[q]]) if above[q] else 1
            object.__setattr__(self, "_mu_top", tuple(out))
        return self._mu_top

    def interval_i(self, s: int, t: int) -> "GradedPoset":
        """The closed interval [s, t] materialized as a poset of its own."""
        if not self.leq_i(s, t):
            raise NotComparable("not an interval")
        members = sorted(_bits(self._up[s] & self._down[t]))
        pos = {m: k for k, m in enumerate(members)}
        base = self.rank_of[s]
        return GradedPoset(
            [self.labels[m] for m in members],
            [self.rank_of[m] - base for m in members],
            [[pos[j] for j in self._covers_up[m] if j in pos] for m in members],
        )

    def interval(self, s, t) -> "GradedPoset":
        return self.interval_i(self.index(s), self.index(t))

    # --- interval errors ------------------------------------------------------

    def interval_error_i(self, s: int, t: int) -> int:
        return self.mobius_i(s, t) - sign(self.rank_of[t] - self.rank_of[s])

    def bad_intervals(self) -> list[tuple[int, int, int]]:
        """All (s, t, e) index pairs with e(s,t) = μ(s,t) − (−1)^{length} nonzero."""
        if self._bad is None:
            bad = []
            rank = self.rank_of
            for s in range(self.n):
                for t, mu in self._mobius_row(s).items():
                    e = mu - sign(rank[t] - rank[s])
                    if e:
                        bad.append((s, t, e))
            object.__setattr__(self, "_bad", bad)
        return self._bad


def build_poset(elements: Sequence, covers: Iterable[tuple]) -> GradedPoset:
    """Validate covers into a graded poset: unique 0̂/1̂, acyclic, rank-compatible."""
    elements = list(elements)
    if not elements:
        raise NoUniqueBottom("empty element list")
    if len(set(elements)) != len(elements):
        raise ParseError("duplicate element labels")
    idx = {v: i for i, v in enumerate(elements)}
    n = len(elements)
    ups = [set() for _ in range(n)]
    dns = [set() for _ in range(n)]
    for lo, hi in covers:
        if lo not in idx or hi not in idx:
            raise ParseError(f"cover ({lo!r}, {hi!r}) uses unknown elements")
        if lo == hi:
            raise CycleDetected(f"self-cover at {lo!r}")
        ups[idx[lo]].add(idx[hi])
        dns[idx[hi]].add(idx[lo])

    # Kahn topological order; leftovers mean a cycle
    indeg = [len(d) for d in dns]
    queue = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while queue:
        i = queue.pop()
        topo.append(i)
        for j in ups[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(topo) != n:
        raise CycleDetected("cover relation contains a cycle")

    minimal = [i for i in range(n) if not dns[i]]
    maximal = [i for i in range(n) if not ups[i]]
    if n > 1:
        if len(minimal) != 1:
            raise NoUniqueBottom(f"minimal elements: {[elements[i] for i in minimal]}")
        if len(maximal) != 1:
            raise NoUniqueTop(f"maximal elements: {[elements[i] for i in maximal]}")
    bottom = minimal[0]

    # gradedness: shortest and longest cover-path lengths from 0̂ agree per element
    short = [None] * n
    long_ = [None] * n
    short_par = [None] * n
    long_par = [None] * n
    short[bottom] = long_[bottom] = 0
    for i in topo:
        if short[i] is None:
            continue
        for j in ups[i]:
            if short[j] is None or short[i] + 1 < short[j]:
                short[j] = short[i] + 1
                short_par[j] = i
            if long_[j] is None or long_[i] + 1 > long_[j]:
                long_[j] = long_[i] + 1
                long_par[j] = i
    for i in range(n):
        if short[i] != long_[i]:
            def walk(parents, k):
                path = [k]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return [elements[e] for e in reversed(path)]

            up_ext = []
            k = i
            while ups[k]:
                k = min(ups[k])
                up_ext.append(elements[k])
            c1 = walk(short_par, i) + up_ext
            c2 = walk(long_par, i) + up_ext
            raise NotGraded(
                f"maximal chains of lengths {len(c1) - 1} and {len(c2) - 1}",
                chains=(c1, c2),
            )
    ranks = short

    order = sorted(range(n), key=lambda i: (ranks[i], label_sort_key(elements[i])))
    pos = {old: new for new, old in enumerate(order)}
    return GradedPoset(
        [elements[i] for i in order],
        [ranks[i] for i in order],
        [sorted(pos[j] for j in ups[i]) for i in order],
    )


# --- spec-facing operations ---------------------------------------------------

class IntervalError(NamedTuple):
    s: object
    t: object
    e: int


class PosetClassification(NamedTuple):
    eulerian: bool
    semi_eulerian: bool
    lower_eulerian: bool
    simplicial: bool
    min_j_sing: int
    max_lower_simplicial_k: int


def mobius(P: GradedPoset, s, t) -> int:
    return P.mobius(s, t)


def mobius_row(P: GradedPoset, s: int) -> dict[int, int]:
    """{u: μ(s, u)} for every u ≥ s, in index order; mobius_i builds it on first use."""
    P.mobius_i(s, P.top_i)
    return P._mu[s]


def interval_error(P: GradedPoset, s, t) -> int:
    """e([s,t]) = μ(s,t) − (−1)^{ρ(t)−ρ(s)}."""
    return P.interval_error_i(P.index(s), P.index(t))


def interval_errors(P: GradedPoset) -> list[IntervalError]:
    """Every non-Eulerian interval of P as labeled records, sorted by span."""
    return sorted(
        (IntervalError(P.labels[s], P.labels[t], e) for s, t, e in P.bad_intervals()),
        key=lambda ie: (P.rank(ie.t) - P.rank(ie.s), label_sort_key(ie.s),
                        label_sort_key(ie.t)),
    )


def _check_chain(P: GradedPoset, chain: Sequence) -> list[int]:
    ids = [P.index(c) for c in chain]
    if len(set(ids)) != len(ids):
        raise NotAChain("repeated elements")
    ids.sort(key=lambda i: P.rank_of[i])
    for a, b in zip(ids, ids[1:]):
        if not P.leq_i(a, b):
            raise NotAChain(f"{P.labels[a]!r} and {P.labels[b]!r} are incomparable")
    if P.bottom_i in ids or P.top_i in ids:
        raise NotAChain("chains must avoid 0̂ and 1̂")
    return ids


def chain_mobius_product(P: GradedPoset, chain: Sequence) -> int:
    """μ(0̂,t_1)·μ(t_1,t_2)···μ(t_k,1̂) along a chain in P∖{0̂,1̂}."""
    ids = _check_chain(P, chain)
    walk = [P.bottom_i] + ids + [P.top_i]
    prod = 1
    for a, b in zip(walk, walk[1:]):
        prod *= P.mobius_i(a, b)
    return prod


def chain_error(P: GradedPoset, chain: Sequence) -> int:
    """ε(C) = (−1)^{|C|} [μ(C) − (−1)^{d+1}] with d+1 = ρ(P)."""
    prod = chain_mobius_product(P, chain)
    return sign(len(tuple(chain))) * (prod - sign(P.rho))


def proper_part(P: GradedPoset) -> list[int]:
    return [i for i in range(P.n) if i not in (P.bottom_i, P.top_i)]


def _proper_mask(P: GradedPoset) -> int:
    """P∖{0̂,1̂} as a bitmask over element indices."""
    return ((1 << P.n) - 1) & ~(1 << P.bottom_i) & ~(1 << P.top_i)


def order_complex(P: GradedPoset):
    """O(P): vertices P∖{0̂,1̂}, faces the chains, colored by rank (a balanced complex).

    Each proper element gets the bit of its place in label order, and the
    chains are walked straight to bitmasks, one length at a time: every
    chain ending at i is extended by each proper element above i.
    """
    from .balanced import BalancedComplex  # local import avoids a cycle

    if P.rho < 1:
        raise RangeViolation(f"order complex needs rank >= 1, got rank {P.rho}")
    proper = proper_part(P)
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
    cx = SimplicialComplex.from_masks([P.labels[i] for i in verts], masks)
    kappa = {P.labels[i]: P.rank_of[i] for i in proper}
    return BalancedComplex(cx, kappa)


# --- flag alpha/beta and the flag poset identity ---------------------------------

def _alpha_table(P: GradedPoset) -> list[int]:
    """α(S) for every S ⊆ [d] as a bitmask-indexed list (bit r-1 = rank r present).

    α(S) counts the chains of P∖{0̂,1̂} whose rank set is S. One pass in rank
    order: each proper element j keeps {rank mask: chains ending at j}, built
    from the tables of the proper elements below it, so the cost is the sum
    of the lower table's size over the comparable proper pairs. No μ is read.
    """
    table = [0] * (1 << (P.rho - 1))
    table[0] = 1  # the empty chain
    proper = _proper_mask(P)
    ends = {}
    for j in _bits(proper):
        bit = 1 << (P.rank_of[j] - 1)
        counts = {bit: 1}
        for i in _bits(P._down[j] & proper & ~(1 << j)):
            for rm, c in ends[i].items():
                counts[rm | bit] = counts.get(rm | bit, 0) + c
        ends[j] = counts
        for rm, c in counts.items():
            table[rm] += c
    return table


def flag_alpha_beta(P: GradedPoset, S: Iterable[int]) -> tuple[int, int]:
    """(α_P(S), β_P(S)): maximal-chain count of the rank-selected subposet and
    its Möbius-inverted companion."""
    d = P.rho - 1
    S = frozenset(S)
    if not S <= set(range(1, d + 1)):
        raise NotComparable(f"S must be a subset of [{d}]")
    alpha = _alpha_table(P)
    mask = sum(1 << (r - 1) for r in S)
    return alpha[mask], subset_transform(alpha, d, signed=True)[mask]


def rank_selected_subposet(P: GradedPoset, S: Iterable[int]) -> GradedPoset:
    """P_S: elements with rank in S, always retaining 0̂ and 1̂."""
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


def _chain_error_buckets(P: GradedPoset) -> dict[int, int]:
    """Σ ε(C) over chains, bucketed by the chain's rank set (as a bitmask).

    One pass in rank order: each proper element j keeps {rank mask: [Σ of
    μ(0̂,c_1)μ(c_1,c_2)···μ(c_k,j), number of chains]} over the chains
    c_1 < ... < c_k = j. When i is reached its table is final; it is pushed
    to every proper j above i with μ(i, j) read from the Möbius row of i.
    The cost is the sum of the lower table's size over the comparable proper
    pairs. The chain counts are this table's own; α is not read.
    """
    mu_top = P.mobius_to_top()
    sign_d = sign(P.rho)
    bottom, top = P.bottom_i, P.top_i
    buckets = {0: mu_top[bottom] - sign_d}
    ends = {j: {1 << (P.rank_of[j] - 1): [mu, 1]}
            for j, mu in mobius_row(P, bottom).items() if j not in (bottom, top)}
    for i, sums in ends.items():  # index order is rank order
        for rm, (s, c) in sums.items():
            eps = sign(rm.bit_count()) * (s * mu_top[i] - sign_d * c)
            buckets[rm] = buckets.get(rm, 0) + eps
        for j, mu_ij in mobius_row(P, i).items():
            if j == i or j == top:
                continue
            bit = 1 << (P.rank_of[j] - 1)
            target = ends[j]
            for rm, (s, c) in sums.items():
                entry = target.setdefault(rm | bit, [0, 0])
                entry[0] += s * mu_ij
                entry[1] += c
    return buckets


def verify_flag_poset(P: GradedPoset, name: str = "") -> VerificationReport:
    """β(S) − β(S^c) against (−1)^{d−|S|} Σ_{C ∈ 𝒞(P_S)} ε_P(C) for every S ⊆ [d]."""
    d = P.rho - 1
    full = (1 << d) - 1
    beta = subset_transform(_alpha_table(P), d, signed=True)
    buckets = _chain_error_buckets(P)
    eps_below = subset_transform([buckets.get(m, 0) for m in range(1 << d)], d,
                                 signed=False)
    rows = []
    for mask in range(1 << d):
        rows.append(Row(
            index=f"S={subset_label(mask)}",
            lhs=beta[mask] - beta[full ^ mask],
            rhs=sign(d - mask.bit_count()) * eps_below[mask],
        ))
    return VerificationReport("flag-poset", {"object": name or repr(P), "d": d},
                              tuple(rows))


# --- classification ---------------------------------------------------------

def _is_boolean_interval(P: GradedPoset, s: int, t: int) -> bool:
    r = P.rank_of[t] - P.rank_of[s]
    members = list(_bits(P._up[s] & P._down[t]))
    if len(members) != 1 << r:
        return False
    atoms = [u for u in members if P.rank_of[u] == P.rank_of[s] + 1]
    if len(atoms) != r:
        return False
    atom_mask = sum(1 << a for a in atoms)
    aset = {}  # member -> the atoms below it, as a bitmask over element indices
    for u in members:
        m = P._down[u] & atom_mask
        if m.bit_count() != P.rank_of[u] - P.rank_of[s]:
            return False
        aset[u] = m
    if len(set(aset.values())) != len(members):
        return False
    # cover digraph must match the hypercube's through the atom-set map
    for v in members:
        lower = [u for u in P._covers_dn[v] if u in aset]
        if v != s and len(lower) != aset[v].bit_count():
            return False
        for u in lower:
            if aset[u] & ~aset[v]:
                return False
    return True


def min_j_sing_flat(P: GradedPoset) -> int:
    """Remark-6.2 criterion: smallest j with every interval of length ≤ d−j Eulerian."""
    bad = P.bad_intervals()
    if not bad:
        return -1
    d = P.rho - 1
    shortest = min(P.rank_of[t] - P.rank_of[s] for s, t, _ in bad)
    return d - shortest + 1


def min_j_sing_recursive(P: GradedPoset) -> int:
    """Definition-6.1 recursion, memoized over intervals.

    min_j(I) is −1 for Eulerian I, 0 for semi-Eulerian I, and otherwise
    1 + max over proper subintervals (maximal ones suffice: min_j is monotone
    under inclusion).
    """
    bad = [(s, t) for s, t, _ in P.bad_intervals()]
    memo = {}

    def rec(s, t):
        key = (s, t)
        if key in memo:
            return memo[key]
        contained = [(a, b) for a, b in bad
                     if P.leq_i(s, a) and P.leq_i(b, t)]
        if not contained:
            memo[key] = -1
        elif contained == [(s, t)]:
            memo[key] = 0
        else:
            best = 0
            for u in P._covers_dn[t]:
                if P.leq_i(s, u):
                    best = max(best, rec(s, u))
            for u in P._covers_up[s]:
                if P.leq_i(u, t):
                    best = max(best, rec(u, t))
            memo[key] = 1 + best
        return memo[key]

    return rec(P.bottom_i, P.top_i)


def min_j_sing_order_complex(P: GradedPoset) -> int:
    """Prop-6.3 criterion: smallest j making O(P) a j-singular complex."""
    cx = order_complex(P).complex
    return max((m.bit_count() - 1 for m, e in zip(cx._masks, face_errors(cx)) if e),
               default=-2) + 1


def classify_poset(P: GradedPoset, cross_check: bool = False) -> PosetClassification:
    """Eulerian/semi-Eulerian/lower-Eulerian/simplicial flags plus min_j_sing.

    min_j_sing uses the flat interval criterion; the result is cached on P.
    cross_check additionally runs the recursive definition and the
    order-complex criterion on every call and insists all three agree.
    """
    if P._cls is None:
        object.__setattr__(P, "_cls", _classify(P))
    if cross_check:
        flat = min_j_sing_flat(P)
        rec = min_j_sing_recursive(P)
        oc = min_j_sing_order_complex(P) if P.rho >= 1 else flat
        if not (flat == rec == oc):
            raise InternalError(
                f"j-Sing criteria disagree: flat={flat} recursive={rec} order-complex={oc}")
    return P._cls


def _classify(P: GradedPoset) -> PosetClassification:
    bad = P.bad_intervals()
    boolean_ok = [True] * (P.rho + 1)
    for t in range(P.n):
        if t != P.top_i and not _is_boolean_interval(P, P.bottom_i, t):
            boolean_ok[P.rank_of[t]] = False
    if not _is_boolean_interval(P, P.bottom_i, P.top_i):
        boolean_ok[P.rho] = False
    max_k = 0
    while max_k < P.rho and all(boolean_ok[: max_k + 2]):
        max_k += 1
    return PosetClassification(
        eulerian=not bad,
        semi_eulerian=all((s, t) == (P.bottom_i, P.top_i) for s, t, _ in bad),
        lower_eulerian=all(t == P.top_i for _, t, _ in bad),
        simplicial=all(boolean_ok[: P.rho]),
        min_j_sing=min_j_sing_flat(P),
        max_lower_simplicial_k=max_k,
    )


def dual(P: GradedPoset) -> GradedPoset:
    """Covers reversed, bottom/top swapped, rank(x) ↦ ρ(P) − rank(x)."""
    return build_poset(P.labels, [(P.labels[j], P.labels[i])
                                  for i, j in enumerate_covers(P)])


def enumerate_covers(P: GradedPoset):
    for i, ups in enumerate(P._covers_up):
        for j in ups:
            yield (i, j)


# --- simplicial posets -----------------------------------------------------

def simplicial_poset_f(P: GradedPoset) -> tuple[int, ...]:
    if not classify_poset(P).simplicial:
        raise NotSimplicial("some proper lower interval is not a Boolean lattice")
    d = P.rho - 1
    counts = [0] * (d + 1)
    for r in P.rank_of:
        if r <= d:
            counts[r] += 1
    return tuple(counts)


def simplicial_poset_h(P: GradedPoset) -> HVector:
    return HVector(h_from_f(simplicial_poset_f(P), P.rho - 1))


def verify_simplicial_ds(P: GradedPoset, name: str = "") -> VerificationReport:
    """Cor-3.4 residuals: h_{d−j} − h_j against the upper-interval Möbius errors."""
    h = simplicial_poset_h(P).entries
    d = P.rho - 1
    mu_top = P.mobius_to_top()
    rows = []
    for j in range(d + 1):
        rhs = sign(j) * sum(
            binom(d - P.rank_of[t], j)
            * (mu_top[t] - sign(d - 1 - P.rank_of[t]))
            for t in range(P.n) if t != P.top_i
        )
        rows.append(Row(index=f"j={j}", lhs=h[d - j] - h[j], rhs=rhs))
    return VerificationReport("simplicial-ds",
                              {"object": name or repr(P), "d": d, "h": list(h)},
                              tuple(rows))


# --- poset JSON format -------------------------------------------------------

def parse_poset_json(text: str) -> GradedPoset:
    try:
        data = json.loads(text)
        elements = data["elements"]
        covers = data["covers"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"bad poset JSON: {exc}") from exc
    if not (isinstance(elements, list) and isinstance(covers, list)):
        raise ParseError("bad poset JSON: elements and covers must be lists")
    for c in covers:
        if not (isinstance(c, list) and len(c) == 2):
            raise ParseError(f"bad poset JSON: cover {c!r} is not a pair")
    for label in elements + [x for c in covers for x in c]:
        if isinstance(label, (list, dict)):
            raise ParseError(f"bad poset JSON: {label!r} is not a scalar label")
    return build_poset(elements, [tuple(c) for c in covers])


def serialize_poset_json(P: GradedPoset) -> str:
    covers = sorted(((P.labels[i], P.labels[j]) for i, j in enumerate_covers(P)),
                    key=lambda c: (P.rank(c[0]), label_sort_key(c[0]), label_sort_key(c[1])))
    return json.dumps({"elements": list(P.labels), "covers": [list(c) for c in covers]},
                      indent=1)
