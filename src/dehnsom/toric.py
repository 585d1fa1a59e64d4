"""Toric h/g polynomials of graded posets and the singularity-weighted
symmetry defects.

Indexing follows Swartz: for rank d+1 the toric h-polynomial is written
ĥ(P,x) = ĥ_d + ĥ_{d−1}x + ... + ĥ_0 x^d, so ĥ_k is the coefficient of
x^{d−k} and ĥ_0 = 1 is the leading coefficient. The g-polynomial is the
degree-⌊d/2⌋ truncation of (1−x)·ĥ(P,x).
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .errors import (
    BadArguments,
    InternalError,
    NotLowerEulerian,
    NotOneSing,
    ParityNotApplicable,
    RangeViolation,
)
from .polynomial import ExactPolynomial, binom, sign
from .posets import (
    GradedPoset,
    _bits,
    _chain_error_buckets,
    classify_poset,
    dual,
    mobius_row,
)
from .reports import Row, VerificationReport


class ToricTable:
    """ĥ and ĝ of every lower interval [0̂, t], for a whole poset.

    Lower intervals of lower intervals are again lower intervals, so one table
    per poset feeds the recursion ĥ(q) = Σ_{u<q} ĝ(u)·(x−1)^{ρ(q)−1−ρ(u)} for
    every element; isomorphic intervals are not detected. The ĝ(u) below q
    are first summed coefficient-wise by rank, into G_0, ..., G_{ρ(q)−1};
    then ĥ(q) = (···(G_0·(x−1) + G_1)·(x−1) + ···)·(x−1) + G_{ρ(q)−1} is
    evaluated by Horner steps on int lists, each step a multiplication by
    (x−1) and one addition. ĝ(q) is the degree-⌊(ρ(q)−1)/2⌋ truncation of
    (1−x)·ĥ(q). No Möbius value is read.
    """

    def __init__(self, P: GradedPoset):
        self.P = P
        rank = P.rank_of
        h: list[list[int]] = [None] * P.n
        g: list[list[int]] = [None] * P.n
        for q in range(P.n):  # index order is rank order
            rq = rank[q]
            if rq == 0:
                h[q] = g[q] = [1]
                continue
            # ĝ of an element of rank r ≥ 1 has ⌊(r+1)/2⌋ coefficients; ĝ(0̂) = 1
            by_rank = [[0] * max(1, (r + 1) // 2) for r in range(rq)]
            for u in _bits(P._down[q] & ~(1 << q)):
                acc = by_rank[rank[u]]
                for k, c in enumerate(g[u]):
                    acc[k] += c
            hq = by_rank[0]
            for grouped in by_rank[1:]:
                # hq·(x−1) + G_r
                hq = [b - a for a, b in zip(hq + [0], [0] + hq)]
                for k, c in enumerate(grouped):
                    hq[k] += c
            h[q] = hq
            g[q] = [b - a for a, b in zip([0] + hq, hq[:(rq - 1) // 2 + 1])]
        self.h = [ExactPolynomial(c) for c in h]
        self.g = [ExactPolynomial(c) for c in g]

    def defect(self, q: int) -> list:
        """A_k(Q) = ĥ_{r−k}(Q) − ĥ_k(Q) for the lower interval at element q."""
        r = self.P.rank_of[q] - 1
        hq = self.h[q]
        return [hq.coeff(k) - hq.coeff(r - k) for k in range(r + 1)]


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
        return self.h_poly.degree


class DefectSequence(NamedTuple):
    """A_k = ĥ_{d−k} − ĥ_k for k = 0..d, antisymmetric around d/2."""

    j: int
    entries: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.entries[k]


class CCoefficient(NamedTuple):
    T: GradedPoset
    u: int
    v: int
    value: int


def toric_pair(P: GradedPoset) -> ToricPair:
    table = toric_table(P)
    h = table.h[P.top_i]
    g = table.g[P.top_i]
    if P.rho == 0:  # the trivial poset: hhat = ghat = 1
        return ToricPair(h, g, {})
    d = P.rho - 1
    if h.coeff(d) != 1:
        raise InternalError("toric h must have leading coefficient ĥ_0 = 1")
    indexed = {k: h.coeff(d - k) for k in range(d + 1)}
    return ToricPair(h, g, indexed)


def defect_sequence(P: GradedPoset, j: int | None = None) -> DefectSequence:
    """The defect of the top element's lower interval, P itself."""
    if P.rho == 0:  # the trivial poset: ĥ = 1 has degree 0, and A_0 = 0
        entries = (0,)
    else:
        entries = tuple(toric_table(P).defect(P.top_i))
    d = len(entries) - 1
    for k in range(d + 1):
        if entries[k] != -entries[d - k]:
            raise InternalError("defect sequence is not antisymmetric")
    if j is None:
        j = classify_poset(P).min_j_sing
    return DefectSequence(j, entries)


def _c_weight_from_g(g: ExactPolynomial, rho: int, u: int, v: int) -> int:
    return sum(sign(l) * c * binom(u - rho, v - l)
               for l, c in enumerate(g.coeffs))


def coeff_C(T: GradedPoset, u: int, v: int) -> int:
    """C(T,u,v): the ĝ-weighted alternating binomial sum attached to a lower
    interval; C(𝟙,u,v) is the plain binomial."""
    rho = T.rho
    if u < rho:
        raise BadArguments(f"u={u} below the interval rank {rho}")
    return _c_weight_from_g(toric_table(T).g[T.top_i], rho, u, v)


def c_coefficient(T: GradedPoset, u: int, v: int) -> CCoefficient:
    return CCoefficient(T, u, v, coeff_C(T, u, v))


def _e_to_top(P: GradedPoset) -> list[int]:
    mu_top = P.mobius_to_top()
    return [mu_top[q] - sign(P.rho - P.rank_of[q]) for q in range(P.n)]


def _e_from_bottom(P: GradedPoset) -> list[int]:
    row = mobius_row(P, P.bottom_i)
    return [row[t] - sign(P.rank_of[t]) for t in range(P.n)]


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
    cls = classify_poset(P)
    if not cls.eulerian:
        raise BadArguments("the symmetry theorem needs an Eulerian poset")
    pair = toric_pair(P)
    d = pair.d
    rows = [Row(index=f"k={k}", lhs=pair.h_indexed[k], rhs=pair.h_indexed[d - k])
            for k in range(d + 1)]
    return VerificationReport("stanley", {"object": name or repr(P), "d": d,
                                          "h": [pair.h_indexed[k] for k in range(d + 1)]},
                              tuple(rows))


def verify_swartz(P: GradedPoset, name: str = "") -> VerificationReport:
    """A_k = (−1)^{d−k+1} C(d,k) e(0̂,1̂) on a semi-Eulerian poset, for all k."""
    cls = classify_poset(P)
    if cls.min_j_sing > 0:
        raise BadArguments("the semi-Eulerian defect formula needs min_j_sing <= 0")
    d = P.rho - 1
    seq = defect_sequence(P, j=cls.min_j_sing)
    e = P.mobius_i(P.bottom_i, P.top_i) - sign(P.rho)
    rows = [Row(index=f"k={k}", lhs=seq[k], rhs=sign(d - k + 1) * binom(d, k) * e)
            for k in range(d + 1)]
    return VerificationReport("swartz", {"object": name or repr(P), "d": d, "e": e},
                              tuple(rows))


def verify_1sing(P: GradedPoset, name: str = "") -> VerificationReport:
    """The 1-Sing defect formula: asserted for i > ⌊d/2⌋, informational below."""
    cls = classify_poset(P)
    if cls.min_j_sing > 1:
        raise NotOneSing(f"min_j_sing = {cls.min_j_sing}")
    d = P.rho - 1
    seq = defect_sequence(P, j=cls.min_j_sing)
    e_top = _e_to_top(P)
    e_bot = _e_from_bottom(P)
    e01 = P.mobius_i(P.bottom_i, P.top_i) - sign(P.rho)
    sum_rank_d = sum(e_bot[t] for t in range(P.n) if P.rank_of[t] == d)
    sum_rank_1 = sum(e_top[s] for s in range(P.n) if P.rank_of[s] == 1)
    rows = []
    for i in range(d + 1):
        rhs = sign(d - i + 1) * (binom(d, i) * e01
                                     + binom(d, i) * sum_rank_d
                                     + binom(d - 1, i - 1) * sum_rank_1)
        rows.append(Row(index=f"i={i}", lhs=seq[i], rhs=rhs, asserted=i > d // 2,
                        note="" if i > d // 2 else "outside theorem range"))
    return VerificationReport("1sing", {"object": name or repr(P), "d": d,
                                        "j": cls.min_j_sing}, tuple(rows))


def verify_euler_relation(P: GradedPoset, which: str = "auto",
                          name: str = "") -> VerificationReport:
    """Euler-type relations among interval errors.

    Three relations are evaluated: the interval-sum balance (both parities of
    d), the vertex-link count relation (even d, 1-Sing), and the bounded-face
    error relation (j < floor(d/2)). ``which`` may pin a single relation; its
    hypothesis is then enforced. The default evaluates every applicable one.
    """
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    e_top = _e_to_top(P)
    e_bot = _e_from_bottom(P)
    e01 = P.mobius_i(P.bottom_i, P.top_i) - sign(P.rho)
    sum_top = sum(e_top[t] for t in range(P.n) if 1 <= P.rank_of[t] <= j)
    sum_bot = sum(e_bot[t] for t in range(P.n) if d - j + 1 <= P.rank_of[t] <= d)
    rows = []

    want_links = which in ("auto", "vertex-links")
    want_intervals = which in ("auto", "interval-sums")
    want_faces = which in ("auto", "face-sums")
    if which == "vertex-links" and not (d % 2 == 0 and j <= 1):
        raise ParityNotApplicable("the vertex-link relation needs even d and a 1-Sing poset")
    if which == "face-sums" and not j < d // 2:
        raise ParityNotApplicable("the face-error relation needs j < floor(d/2)")
    if which not in ("auto", "vertex-links", "interval-sums", "face-sums"):
        raise BadArguments(f"unknown relation {which!r}")

    if want_intervals:
        if d % 2 == 0:
            rows.append(Row(index="interval-sums even d", lhs=2 * e01,
                            rhs=-sum_top - sum_bot))
        else:
            rows.append(Row(index="interval-sums odd d", lhs=sum_top, rhs=sum_bot))

    if want_links and d % 2 == 0 and j <= 1:
        mu_top = P.mobius_to_top()
        boundary = [q for q in range(P.n) if P.rank_of[q] in (1, d)]
        # χ̃(lk v_q) in O(P) is −μ(0̂,q)·μ(q,1̂) by the product formula
        chi_links = sum(-P.mobius_i(P.bottom_i, q) * mu_top[q] for q in boundary)
        chi_op = P.mobius_i(P.bottom_i, P.top_i)
        rows.append(Row(index="vertex-links", lhs=2 * (chi_op + 1),
                        rhs=len(boundary) - chi_links))

    if want_faces and j < d // 2:
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

    return VerificationReport("euler-rel", {"object": name or repr(P), "d": d, "j": j},
                              tuple(rows))


def verify_generalized(P: GradedPoset, name: str = "") -> VerificationReport:
    """The full polynomial identity for ĥ(P) − x^d ĥ(P,1/x) of a j-Sing poset,
    with j = min_j_sing, plus the unconditional graded-poset lemma as an
    independent intermediate."""
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    table = toric_table(P)
    h_top = table.h[P.top_i]
    lhs = h_top - h_top.reversed_at(d)
    e_top = _e_to_top(P)
    mu_top = P.mobius_to_top()
    e01 = mu_top[P.bottom_i] - sign(P.rho)

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
        g, mu = table.g[q].coeffs, mu_top[q]
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
            for k, c in enumerate(table.h[q].coeffs):
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

    return VerificationReport("generalized", {"object": name or repr(P), "d": d, "j": j},
                              tuple(rows))


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
    seq = defect_sequence(P, j=j)
    e_top = _e_to_top(P)
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
    return VerificationReport("main", {"object": name or repr(P), "d": d, "j": j},
                              tuple(rows))


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
    e_top = _e_to_top(P)
    table = toric_table(P)
    total = 0
    for q in range(P.n):
        rq = P.rank_of[q]
        if rq > j or e_top[q] == 0:
            continue
        inner = sum(sign(d - k - l + 1) * c * binom(d - rq, k - rq + l)
                    for l, c in enumerate(table.g[q].coeffs))
        total += e_top[q] * inner
    return total


def verify_lower_eulerian(P: GradedPoset, name: str = "") -> VerificationReport:
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    seq = defect_sequence(P, j=j)
    rows = []
    for k in range(d + 1):
        ok_range = 2 * k > d + j
        rows.append(Row(index=f"k={k}", lhs=seq[k], rhs=lower_eulerian_defect(P, k),
                        asserted=ok_range, note="" if ok_range else "outside theorem range"))
    return VerificationReport("lower-eulerian", {"object": name or repr(P), "d": d, "j": j},
                              tuple(rows))


def dual_defect_report(P: GradedPoset, name: str = "") -> VerificationReport:
    """A_k(P) next to A_k(P*): equality for j ≤ 0, and for j = 1 (even d) the
    explicit dual-difference formula, asserted in the range it is derived for."""
    cls = classify_poset(P)
    j = cls.min_j_sing
    d = P.rho - 1
    Q = dual(P)
    cls_dual = classify_poset(Q)
    seq_p = defect_sequence(P, j=j)
    seq_q = defect_sequence(Q, j=cls_dual.min_j_sing)
    rows = [Row(index="min_j_sing", lhs=j, rhs=cls_dual.min_j_sing)]
    e_top = _e_to_top(P)
    e_bot = _e_from_bottom(P)
    sum_rank_1 = sum(e_top[q] for q in range(P.n) if P.rank_of[q] == 1)
    sum_rank_d = sum(e_bot[q] for q in range(P.n) if P.rank_of[q] == d)
    for k in range(d + 1):
        if j <= 0:
            rows.append(Row(index=f"k={k}", lhs=seq_p[k], rhs=seq_q[k]))
        elif j == 1 and d % 2 == 0:
            rhs = seq_q[k] + sign(d - k) * binom(d - 1, k) * (sum_rank_1 - sum_rank_d)
            rows.append(Row(index=f"k={k}", lhs=seq_p[k], rhs=rhs,
                            asserted=2 * k > d + 1,
                            note="" if 2 * k > d + 1 else "outside formula range"))
        else:
            rows.append(Row(index=f"k={k}", lhs=seq_p[k], rhs=seq_q[k], asserted=False,
                            note="side-by-side only"))
    return VerificationReport("dual", {"object": name or repr(P), "d": d, "j": j},
                              tuple(rows))
