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

from .balanced import BalancedComplex
from .complexes import (
    HVector,
    SimplicialComplex,
    _bits,
    _singular_faces,
    ds_rows,
    flag_rows,
    h_from_f,
    label_sort_key,
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
from .polynomial import sign
from .reports import VerificationReport, report


class GradedPoset:
    """Finite graded poset with 0̂ and 1̂, built from its cover relation.

    Instances are immutable; the Möbius rows (``_mu``, keyed by the row's
    element), the μ(·, 1̂) column, the strict up-sets as lists, the bad
    intervals, the end errors, the toric table and the classification are
    caches filled on first use.
    """

    __slots__ = ("labels", "rank_of", "bottom_i", "top_i", "_index", "_up", "_down",
                 "_covers_up", "_covers_dn", "_above", "_mu", "_mu_top", "_bad",
                 "_ends", "_toric", "_cls")

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
            ("_ends", None),
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

    def mobius_i(self, s: int, t: int) -> int:
        """μ(s, t), read from the Möbius row of s."""
        val = mobius_row(self, s).get(t)
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

    # --- interval errors ------------------------------------------------------

    def bad_intervals(self) -> list[tuple[int, int, int]]:
        """All (s, t, e) index pairs with e(s,t) = μ(s,t) − (−1)^{length} nonzero."""
        if self._bad is None:
            bad = []
            rank = self.rank_of
            for s in range(self.n):
                rs = rank[s]
                for t, mu in mobius_row(self, s).items():
                    # (−1)^{ρ(t)−ρ(s)} is −1 exactly when the ranks differ in parity
                    e = mu + 1 if (rank[t] ^ rs) & 1 else mu - 1
                    if e:
                        bad.append((s, t, e))
            object.__setattr__(self, "_bad", bad)
        return self._bad


# --- Möbius rows and end errors ---------------------------------------------

def mobius_row(P: GradedPoset, s: int) -> dict[int, int]:
    """{u: μ(s, u)} for every u ≥ s in index order, built on first use.

    One push pass in index (= rank) order: when w is reached, every element
    of [s, w) has already pushed into it, so μ(s, w) is final and is
    subtracted from each u above w. The work is Σ_u |[s, u)|.
    """
    row = P._mu.get(s)
    if row is None:
        above = P._strict_up_lists()
        ups = [s, *above[s]]
        acc = [0] * P.n
        acc[s] = 1
        for w in ups:
            val = acc[w]
            if val:
                for u in above[w]:
                    acc[u] -= val
        row = P._mu[s] = {u: acc[u] for u in ups}
    return row


def end_errors(P: GradedPoset) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The interval errors at the ends of P, indexed by element: e(q, 1̂) for
    every q from the μ(·, 1̂) column, and e(0̂, q) for every q from the Möbius
    row of 0̂. e(0̂, 1̂) is the first tuple's entry at 0̂. Cached on P."""
    if P._ends is None:
        mu_top = P.mobius_to_top()
        row = mobius_row(P, P.bottom_i)
        rank, rho = P.rank_of, P.rho
        object.__setattr__(P, "_ends", (
            tuple([mu_top[q] - sign(rho - rank[q]) for q in range(P.n)]),
            tuple([row[t] - sign(rank[t]) for t in range(P.n)])))
    return P._ends


def rank_sums(P: GradedPoset, values: Sequence[int]) -> list[int]:
    """Σ values[q] over the elements q of each rank 0, ..., ρ."""
    sums = [0] * (P.rho + 1)
    for r, v in zip(P.rank_of, values):
        sums[r] += v
    return sums


def need_rank(P: GradedPoset, k: int, what: str) -> None:
    """Refuse a poset of rank below k: ``what`` is undefined there."""
    if P.rho < k:
        raise RangeViolation(f"{what} needs rank >= {k}, got rank {P.rho}")


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

    # gradedness: ranks are longest cover paths from 0̂, and every cover adds 1
    ranks = [0] * n
    parent = [None] * n
    for i in topo:
        for j in ups[i]:
            if ranks[i] + 1 > ranks[j]:
                ranks[j], parent[j] = ranks[i] + 1, i
    for i in topo:
        for j in ups[i]:
            if ranks[j] != ranks[i] + 1:
                def walk(k):
                    path = [k]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return [elements[e] for e in reversed(path)]

                up_ext = []
                k = j
                while ups[k]:
                    k = min(ups[k])
                    up_ext.append(elements[k])
                c1 = walk(i) + [elements[j]] + up_ext
                c2 = walk(j) + up_ext
                raise NotGraded(
                    f"maximal chains of lengths {len(c1) - 1} and {len(c2) - 1}",
                    chains=(c1, c2),
                )

    order = sorted(range(n), key=lambda i: (ranks[i], label_sort_key(elements[i])))
    pos = {old: new for new, old in enumerate(order)}
    return GradedPoset(
        [elements[i] for i in order],
        [ranks[i] for i in order],
        [sorted(pos[j] for j in ups[i]) for i in order],
    )


# --- spec-facing operations ---------------------------------------------------

class PosetClassification(NamedTuple):
    eulerian: bool
    semi_eulerian: bool
    lower_eulerian: bool
    simplicial: bool
    min_j_sing: int
    max_lower_simplicial_k: int


def interval_error(P: GradedPoset, s, t) -> int:
    """e([s,t]) = μ(s,t) − (−1)^{ρ(t)−ρ(s)}."""
    return P.mobius(s, t) - sign(P.rank(t) - P.rank(s))


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
    chain = tuple(chain)  # an iterator is read once
    return sign(len(chain)) * (chain_mobius_product(P, chain) - sign(P.rho))


def _proper_mask(P: GradedPoset) -> int:
    """P∖{0̂,1̂} as a bitmask over element indices."""
    return ((1 << P.n) - 1) & ~(1 << P.bottom_i) & ~(1 << P.top_i)


def order_complex(P: GradedPoset):
    """O(P): vertices P∖{0̂,1̂}, faces the chains, colored by rank (a balanced complex).

    The vertices follow P's index order (rank, then label), so a chain's top
    vertex is its last element. The chains ending at t are t added to ∅ and
    to the chains ending below t, whole earlier runs, so the run of t handed
    to ``SimplicialComplex.from_runs`` is ∅ and the spans of those runs.
    """
    need_rank(P, 1, "order complex")
    top, down = P.top_i, P._down

    def runs():
        starts = [1]  # run s holds positions starts[s] .. starts[s + 1] − 1
        for t in range(top - 1):  # vertex t is element t + 1
            run = [0]
            for s in _bits(down[t + 1] >> 1 & ((1 << t) - 1)):
                run += range(starts[s], starts[s + 1])
            starts.append(starts[t] + len(run))
            yield run

    labels = P.labels[1:top]
    cx = SimplicialComplex.from_runs(labels, runs())
    return BalancedComplex(cx, dict(zip(labels, P.rank_of[1:top])))


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
    need_rank(P, 1, "flag-poset")
    d = P.rho - 1
    S = frozenset(S)
    if not S <= set(range(1, d + 1)):
        raise NotComparable(f"S must be a subset of [{d}]")
    alpha = _alpha_table(P)
    mask = sum(1 << (r - 1) for r in S)
    return alpha[mask], subset_transform(alpha, d, signed=True)[mask]


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
    need_rank(P, 1, "flag-poset")
    d = P.rho - 1
    beta = subset_transform(_alpha_table(P), d, signed=True)
    buckets = _chain_error_buckets(P)
    rows = flag_rows(beta, [buckets.get(m, 0) for m in range(1 << d)], d)
    return report("flag-poset", P, name, rows, d=d)


# --- classification ---------------------------------------------------------

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
    return _singular_faces(order_complex(P).complex)[3]


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


def _boolean_lower_intervals(P: GradedPoset) -> list[bool]:
    """Whether [0̂, t] is a Boolean lattice, for every t, in one pass in index
    (= rank) order.

    With r = ρ(t), [0̂, t] is Boolean iff it has 2^r elements, r atoms and r
    lower covers, each lower cover's interval is Boolean, and the covers'
    atom sets are distinct. Then the covers' atom sets are all r of the
    (r−1)-subsets of t's atoms, and the 2^r count makes the atom-set map a
    bijection from [0̂, t] onto the subsets, so it is an isomorphism.
    """
    rank, down, covers_dn = P.rank_of, P._down, P._covers_dn
    atoms = sum(1 << a for a in P._covers_up[P.bottom_i])  # the rank-1 elements
    ok = []
    for t in range(P.n):
        r, below, lower = rank[t], down[t], covers_dn[t]
        ok.append(below.bit_count() == 1 << r
                  and (below & atoms).bit_count() == r
                  and len(lower) == r
                  and all(ok[c] for c in lower)
                  and len({down[c] & atoms for c in lower}) == r)
    return ok


def _classify(P: GradedPoset) -> PosetClassification:
    bad = P.bad_intervals()
    boolean_ok = [True] * (P.rho + 1)
    for t, ok in enumerate(_boolean_lower_intervals(P)):
        if not ok:
            boolean_ok[P.rank_of[t]] = False
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
    """Covers reversed, bottom/top swapped, rank(x) ↦ ρ(P) − rank(x).

    Built from P's index arrays with no second validation: within one rank
    P's index order is already label order, so the dual's elements sort by
    (−rank, index), and its up-covers are P's down-covers. The result is a
    fresh poset; none of P's caches carry over.
    """
    rank, rho = P.rank_of, P.rho
    order = sorted(range(P.n), key=lambda i: (-rank[i], i))
    pos = [0] * P.n
    for new, old in enumerate(order):
        pos[old] = new
    return GradedPoset([P.labels[i] for i in order], [rho - rank[i] for i in order],
                       [[pos[j] for j in P._covers_dn[i]] for i in order])


# --- simplicial posets -----------------------------------------------------

def simplicial_poset_f(P: GradedPoset) -> tuple[int, ...]:
    if not classify_poset(P).simplicial:
        raise NotSimplicial("some proper lower interval is not a Boolean lattice")
    return tuple(rank_sums(P, [1] * P.n)[:P.rho])  # ranks 0..d; 1̂ alone has rank ρ


def simplicial_poset_h(P: GradedPoset) -> HVector:
    return HVector(h_from_f(simplicial_poset_f(P), P.rho - 1))


def verify_simplicial_ds(P: GradedPoset, name: str = "") -> VerificationReport:
    """Cor-3.4 residuals: h_{d−j} − h_j against the upper-interval Möbius errors."""
    h = simplicial_poset_h(P).entries
    d = P.rho - 1
    top_by_rank = rank_sums(P, end_errors(P)[0])[:d + 1]
    return report("simplicial-ds", P, name, ds_rows(h, top_by_rank, d), d=d, h=list(h))


# --- poset JSON format -------------------------------------------------------

def parse_poset_json(text: str) -> GradedPoset:
    try:
        data = json.loads(text)
        elements = data["elements"]
        covers = data["covers"]
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # ValueError: bad JSON
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
    covers = sorted(P.covers(),
                    key=lambda c: (P.rank(c[0]), label_sort_key(c[0]), label_sort_key(c[1])))
    return json.dumps({"elements": list(P.labels), "covers": [list(c) for c in covers]},
                      indent=1)
