"""Toric h/g polynomials of graded posets and the singularity-weighted
symmetry defects.

Indexing follows Swartz: for rank d+1 the toric h-polynomial is written
ĥ(P,x) = ĥ_d + ĥ_{d−1}x + ... + ĥ_0 x^d, so ĥ_k is the coefficient of
x^{d−k} and ĥ_0 = 1 is the leading coefficient. The g-polynomial is the
degree-⌊d/2⌋ truncation of (1−x)·ĥ(P,x). The table of every lower interval
holds them as int tuples; a polynomial is wrapped as ExactPolynomial only
where it leaves this module (`toric_pair`, `verify_generalized`).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import (
    BadArguments,
    InternalError,
    NotLowerEulerian,
    NotOneSing,
    RangeViolation,
)
from .polynomial import ExactPolynomial, binom, sign
from .posets import (
    GradedPoset,
    _chain_error_buckets,
    classify_poset,
    dual,
    end_errors,
    need_rank,
    rank_sums,
)
from .reports import Row, VerificationReport, report


class ToricTable:
    """ĥ and ĝ of every lower interval [0̂, t], for a whole poset, as int
    tuples, lowest degree first.

    Lower intervals of lower intervals are again lower intervals, so one table
    per poset feeds the recursion ĥ(q) = Σ_{u<q} ĝ(u)·(x−1)^{ρ(q)−1−ρ(u)} for
    every element; isomorphic intervals are not detected. One push pass in
    index (= rank) order: once ĝ(u) is final it is added coefficient-wise
    into the rank-ρ(u) sum of every element of u's up-list, so q's sums
    G_0, ..., G_{ρ(q)−1} are complete when q is reached. Then ĥ(q) =
    (···(G_0·(x−1) + G_1)·(x−1) + ···)·(x−1) + G_{ρ(q)−1} by Horner steps;
    its leading coefficient is 1, so it has exactly ρ(q) coefficients
    (ĥ(0̂) = 1). ĝ(q) is the degree-⌊(ρ(q)−1)/2⌋ truncation of (1−x)·ĥ(q),
    trailing zeros trimmed. No Möbius value is read.

    The table keeps P's ranks, not P: P caches its table, so a reference back
    would make a cycle, and a one-shot CLI request runs with the cyclic
    collector off.
    """

    def __init__(self, P: GradedPoset):
        self.rank_of = rank = P.rank_of
        above = P._strict_up_lists()
        # cols[r][k][w] = Σ [x^k]ĝ(u) over the u < w of rank r ≥ 1, as ĝ of
        # rank r has ⌊(r+1)/2⌋ coefficients; G_0 = ĝ(0̂) = 1 is not pushed
        cols = [[[0] * P.n for _ in range((r + 1) // 2)] for r in range(P.rho + 1)]
        self.h, self.g = [], []
        for q in range(P.n):
            rq = rank[q]
            hq = [1]
            for r in range(1, rq):
                hq = [b - a for a, b in zip(hq + [0], [0] + hq)]  # hq·(x−1) + G_r
                for k, col in enumerate(cols[r]):
                    hq[k] += col[q]
            gq = [b - a for a, b in zip([0] + hq, hq[:(rq - 1) // 2 + 1])] if rq else [1]
            while gq and not gq[-1]:
                gq.pop()
            for col, c in zip(cols[rq], gq):
                if c:
                    for w in above[q]:
                        col[w] += c
            self.h.append(tuple(hq))
            self.g.append(tuple(gq))

    def defect(self, q: int) -> list:
        """A_k(Q) = ĥ_{r−k}(Q) − ĥ_k(Q) for the lower interval at element q."""
        r = self.rank_of[q] - 1
        hq = self.h[q]
        return [hq[k] - hq[r - k] for k in range(r + 1)]


def toric_table(P: GradedPoset) -> ToricTable:
    if P._toric is None:
        object.__setattr__(P, "_toric", ToricTable(P))
    return P._toric


class ToricPair(NamedTuple):
    h_poly: ExactPolynomial
    g_poly: ExactPolynomial
    h_indexed: Mapping[int, int]

    @property
    def d(self) -> int:
        return len(self.h_indexed) - 1  # ρ − 1, so −1 for the trivial poset


class DefectSequence(NamedTuple):
    """A_k = ĥ_{d−k} − ĥ_k for k = 0..d, antisymmetric around d/2."""

    j: int
    entries: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.entries[k]


def toric_pair(P: GradedPoset) -> ToricPair:
    table = toric_table(P)
    h = table.h[P.top_i]
    if h[-1] != 1:
        raise InternalError("toric h must have leading coefficient ĥ_0 = 1")
    d = P.rho - 1  # −1 for the trivial poset: ĥ = ĝ = 1, and no ĥ_k
    return ToricPair(ExactPolynomial(h), ExactPolynomial(table.g[P.top_i]),
                     {k: h[d - k] for k in range(d + 1)})


def defect_sequence(P: GradedPoset) -> DefectSequence:
    """The defect of the top element's lower interval, P itself, with
    j = min_j_sing."""
    if P.rho == 0:  # the trivial poset: ĥ = 1 has degree 0, and A_0 = 0
        entries = (0,)
    else:
        entries = tuple(toric_table(P).defect(P.top_i))
    d = len(entries) - 1
    for k in range(d + 1):
        if entries[k] != -entries[d - k]:
            raise InternalError("defect sequence is not antisymmetric")
    return DefectSequence(classify_poset(P).min_j_sing, entries)


def _c_weight_from_g(g: Sequence[int], rho: int, u: int, v: int) -> int:
    return sum(sign(l) * c * binom(u - rho, v - l) for l, c in enumerate(g))


def coeff_C(T: GradedPoset, u: int, v: int) -> int:
    """C(T,u,v): the ĝ-weighted alternating binomial sum attached to a lower
    interval; C(𝟙,u,v) is the plain binomial."""
    rho = T.rho
    if u < rho:
        raise BadArguments(f"u={u} below the interval rank {rho}")
    return _c_weight_from_g(toric_table(T).g[T.top_i], rho, u, v)


def star_sum(defects: Sequence, r: int) -> ExactPolynomial:
    """Σ*_{k=⌊(r+1)/2⌋+1}^{r+1} [A_{k−1} − A_k] x^k, with A_{r+1} = 0.

    For odd r there is an extra half-weighted summand at k = ⌊(r+1)/2⌋; the
    half term is keyed on the parity of the interval's own r. It is an
    integer: A is antisymmetric (A_{r−k} = −A_k), and r − k = k − 1 here, so
    (A_{k−1} − A_k)/2 = A_{k−1}. An odd difference means the defects were not
    antisymmetric and raises InternalError.
    """
    def a(k):
        return defects[k] if k <= r else 0

    coeffs = [0] * (r + 2)
    lo = (r + 1) // 2 + 1
    for k in range(lo, r + 2):
        coeffs[k] = a(k - 1) - a(k)
    if r % 2 == 1:
        k = (r + 1) // 2
        half, odd = divmod(a(k - 1) - a(k), 2)
        if odd:
            raise InternalError(f"odd middle defect difference at k={k}, r={r}")
        coeffs[k] = half
    return ExactPolynomial(coeffs)


def verify_stanley(P: GradedPoset, name: str = "") -> VerificationReport:
    """ĥ_i = ĥ_{d−i} on an Eulerian poset."""
    need_rank(P, 1, "stanley")
    cls = classify_poset(P)
    if not cls.eulerian:
        raise BadArguments("the symmetry theorem needs an Eulerian poset")
    pair = toric_pair(P)
    d = pair.d
    rows = [Row(index=f"k={k}", lhs=pair.h_indexed[k], rhs=pair.h_indexed[d - k])
            for k in range(d + 1)]
    return report("stanley", P, name, rows, d=d, h=[pair.h_indexed[k] for k in range(d + 1)])


def verify_swartz(P: GradedPoset, name: str = "") -> VerificationReport:
    """A_k = (−1)^{d−k+1} C(d,k) e(0̂,1̂) on a semi-Eulerian poset, for all k."""
    cls = classify_poset(P)
    if cls.min_j_sing > 0:
        raise BadArguments("the semi-Eulerian defect formula needs min_j_sing <= 0")
    d = P.rho - 1
    seq = defect_sequence(P)
    e = end_errors(P)[0][P.bottom_i]
    rows = [Row(index=f"k={k}", lhs=seq[k], rhs=sign(d - k + 1) * binom(d, k) * e)
            for k in range(d + 1)]
    return report("swartz", P, name, rows, d=d, e=e)


def verify_1sing(P: GradedPoset, name: str = "") -> VerificationReport:
    """The 1-Sing defect formula: asserted for i > ⌊d/2⌋, informational below."""
    need_rank(P, 2, "1sing")
    cls = classify_poset(P)
    if cls.min_j_sing > 1:
        raise NotOneSing(f"min_j_sing = {cls.min_j_sing}")
    d = P.rho - 1
    seq = defect_sequence(P)
    e_top, e_bot = end_errors(P)
    top_by_rank, bot_by_rank = rank_sums(P, e_top), rank_sums(P, e_bot)
    rows = []
    for i in range(d + 1):
        rhs = sign(d - i + 1) * (binom(d, i) * e_top[P.bottom_i]
                                 + binom(d, i) * bot_by_rank[d]
                                 + binom(d - 1, i - 1) * top_by_rank[1])
        rows.append(Row(index=f"i={i}", lhs=seq[i], rhs=rhs, asserted=i > d // 2,
                        note="" if i > d // 2 else "outside theorem range"))
    return report("1sing", P, name, rows, d=d, j=cls.min_j_sing)


def verify_euler_relation(P: GradedPoset, name: str = "") -> VerificationReport:
    """Euler-type relations among interval errors.

    Each relation gives its row when its hypothesis holds: the interval-sum
    balance (both parities of d) always, the vertex-link count relation for
    even d and a 1-Sing poset, and the bounded-face error relation for
    j < ⌊d/2⌋.
    """
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    e_top, e_bot = end_errors(P)
    e01 = e_top[P.bottom_i]
    sum_top = sum(rank_sums(P, e_top)[1:j + 1])  # ranks 1..j
    sum_bot = sum(rank_sums(P, e_bot)[d - j + 1:d + 1])  # ranks d−j+1..d
    rows = []
    if d % 2 == 0:
        rows.append(Row(index="interval-sums even d", lhs=2 * e01,
                        rhs=-sum_top - sum_bot))
    else:
        rows.append(Row(index="interval-sums odd d", lhs=sum_top, rhs=sum_bot))

    if d % 2 == 0 and j <= 1:
        mu_top = P.mobius_to_top()
        boundary = [q for q in range(P.n) if P.rank_of[q] in (1, d)]
        # χ̃(lk v_q) in O(P) is −μ(0̂,q)·μ(q,1̂) by the product formula
        chi_links = sum(-P.mobius_i(P.bottom_i, q) * mu_top[q] for q in boundary)
        chi_op = P.mobius_i(P.bottom_i, P.top_i)
        rows.append(Row(index="vertex-links", lhs=2 * (chi_op + 1),
                        rhs=len(boundary) - chi_links))

    if j < d // 2:
        # Σ ε(C) over the nonempty chains C of P∖{0̂,1̂}, from the buckets of
        # their rank sets (bit r−1 = rank r); a chain has as many elements as ranks
        buckets = _chain_error_buckets(P)
        jj = max(j, 0)
        if d % 2 == 0:
            # the sum runs over nonempty faces of O(P) of dimension < j
            small = sum(e for rm, e in buckets.items() if rm and rm.bit_count() <= jj)
            # ε_{O(P)}(∅) = e(0̂,1̂), the same parity of (-1)^{d±1}
            rows.append(Row(index="face-sums even d", lhs=2 * e01, rhs=-small))
        else:
            low = (1 << jj) - 1  # ranks 1..j
            high = ((1 << d) - 1) ^ ((1 << (d - jj)) - 1)  # ranks d−j+1..d
            top_side = sum(e for rm, e in buckets.items() if rm and not rm & ~low)
            bot_side = sum(e for rm, e in buckets.items() if rm and not rm & ~high)
            rows.append(Row(index="face-sums odd d", lhs=top_side, rhs=bot_side))

    return report("euler-rel", P, name, rows, d=d, j=j)


def verify_generalized(P: GradedPoset, name: str = "") -> VerificationReport:
    """The full polynomial identity for ĥ(P) − x^d ĥ(P,1/x) of a j-Sing poset,
    with j = min_j_sing, plus the unconditional graded-poset lemma as an
    independent intermediate."""
    need_rank(P, 1, "generalized")
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    table = toric_table(P)
    lhs = ExactPolynomial(table.defect(P.top_i))  # [x^k] ĥ(P) − x^d ĥ(P,1/x) is A_k
    e_top = end_errors(P)[0]
    mu_top = P.mobius_to_top()
    e01 = e_top[P.bottom_i]

    # for j >= floor(d/2) the two sums overlap on ranks (d-j, j]; such elements
    # contribute both the ghat-error term and the starred defect term. The
    # terms of both sums are added up by rank r as int coefficients (each has
    # degree <= r), and each rank's total is multiplied once by (x-1)^{d-r}.
    rhs_by_rank = [[0] * (r + 1) for r in range(d + 1)]
    lemma_by_rank = [[0] * (r + 1) for r in range(d + 1)]
    for q in range(P.n):
        r = P.rank_of[q]
        if r > d:
            continue
        g, mu = table.g[q], mu_top[q]
        acc = rhs_by_rank[r]
        if r <= j:  # e(q,1̂)·x^r ĝ(q, 1/x)
            for k, c in enumerate(g):
                acc[r - k] += e_top[q] * c
        if d - j < r:  # μ(q,1̂)·Σ*(q)
            for k, c in enumerate(star_sum(table.defect(q), r - 1).coeffs):
                acc[k] += mu * c
        if r >= 1:  # μ(q,1̂)·(ĝ(q) + (x−1)ĥ(q)) + (−1)^{d−r} x^r ĝ(q, 1/x)
            acc = lemma_by_rank[r]
            for k, c in enumerate(g):
                acc[k] += mu * c
                acc[r - k] += sign(d - r) * c
            for k, c in enumerate(table.h[q]):
                acc[k + 1] += mu * c
                acc[k] -= mu * c

    rhs = ExactPolynomial.zero()
    # unconditioned intermediate: the inclusion-exclusion lemma for any graded poset
    lemma = ExactPolynomial.x_minus_one_power(d).scale(-e01)
    for r in range(d + 1):
        y_pow = ExactPolynomial.x_minus_one_power(d - r)
        rhs = rhs - y_pow * ExactPolynomial(rhs_by_rank[r])
        lemma = lemma - y_pow * ExactPolynomial(lemma_by_rank[r])

    rows = [Row(index=f"x^{k}", lhs=lhs.coeff(k), rhs=rhs.coeff(k))
            for k in range(max(lhs.degree, rhs.degree, d) + 1)]
    rows += [Row(index=f"lemma x^{k}", lhs=lhs.coeff(k), rhs=lemma.coeff(k))
             for k in range(max(lhs.degree, lemma.degree, d) + 1)]

    return report("generalized", P, name, rows, d=d, j=j)


def verify_main(P: GradedPoset, name: str = "") -> VerificationReport:
    """A_k against the C(T,d,k)-weighted sum of upper-interval errors.

    Asserted only for k > (d+j)/2; other indices are reported informationally.
    Requires d > 2j.
    """
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    if d <= 2 * j:
        raise RangeViolation(f"needs d > 2j, got d={d}, j={j}")
    seq = defect_sequence(P)
    e_top = end_errors(P)[0]
    table = toric_table(P)
    rows = []
    for k in range(d + 1):
        rhs = sign(k) * sum(
            e_top[t] * _c_weight_from_g(table.g[t], P.rank_of[t], d, k)
            for t in range(P.n) if P.rank_of[t] <= j
        )
        ok_range = 2 * k > d + j
        rows.append(Row(index=f"k={k}", lhs=seq[k], rhs=rhs, asserted=ok_range,
                        note="" if ok_range else "outside theorem range"))
    return report("main", P, name, rows, d=d, j=j)


def lower_eulerian_defect(P: GradedPoset, k: int):
    """The lower-Eulerian ĝ-weighted specialization of the defect A_k.

    Derived by extracting [x^k] from the j-Sing polynomial identity once all
    proper lower intervals are Eulerian:
    Σ_{ρ(q) ≤ j} e(q,1̂) Σ_l (−1)^{d−k−l+1} ĝ_l(Q) C(d−ρ(q), k−ρ(q)+l).
    """
    cls = classify_poset(P)
    if not cls.lower_eulerian:
        raise NotLowerEulerian("some proper lower interval is not Eulerian")
    j = cls.min_j_sing
    d = P.rho - 1
    e_top = end_errors(P)[0]
    table = toric_table(P)
    total = 0
    for q in range(P.n):
        rq = P.rank_of[q]
        if rq > j or e_top[q] == 0:
            continue
        inner = sum(sign(d - k - l + 1) * c * binom(d - rq, k - rq + l)
                    for l, c in enumerate(table.g[q]))
        total += e_top[q] * inner
    return total


def verify_lower_eulerian(P: GradedPoset, name: str = "") -> VerificationReport:
    j = classify_poset(P).min_j_sing
    d = P.rho - 1
    rhs = [lower_eulerian_defect(P, k) for k in range(d + 1)]  # refuses before any table
    seq = defect_sequence(P)
    rows = []
    for k in range(d + 1):
        ok_range = 2 * k > d + j
        rows.append(Row(index=f"k={k}", lhs=seq[k], rhs=rhs[k],
                        asserted=ok_range, note="" if ok_range else "outside theorem range"))
    return report("lower-eulerian", P, name, rows, d=d, j=j)


def dual_defect_report(P: GradedPoset, name: str = "") -> VerificationReport:
    """A_k(P) next to A_k(P*): equality for j ≤ 0, and for j = 1 (even d) the
    explicit dual-difference formula, asserted in the range it is derived for."""
    seq_p = defect_sequence(P)
    seq_q = defect_sequence(dual(P))
    j = seq_p.j
    d = P.rho - 1
    rows = [Row(index="min_j_sing", lhs=j, rhs=seq_q.j)]
    e_top, e_bot = end_errors(P)
    top_by_rank, bot_by_rank = rank_sums(P, e_top), rank_sums(P, e_bot)
    for k in range(d + 1):
        if j <= 0:
            rows.append(Row(index=f"k={k}", lhs=seq_p[k], rhs=seq_q[k]))
        elif j == 1 and d % 2 == 0:
            rhs = seq_q[k] + sign(d - k) * binom(d - 1, k) * (top_by_rank[1] - bot_by_rank[d])
            rows.append(Row(index=f"k={k}", lhs=seq_p[k], rhs=rhs,
                            asserted=2 * k > d + 1,
                            note="" if 2 * k > d + 1 else "outside formula range"))
        else:
            rows.append(Row(index=f"k={k}", lhs=seq_p[k], rhs=seq_q[k], asserted=False,
                            note="side-by-side only"))
    return report("dual", P, name, rows, d=d, j=j)
