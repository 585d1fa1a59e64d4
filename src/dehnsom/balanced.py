"""Balanced complexes: proper d-colorings, flag f/h-vectors, rank selection,
and the flag Dehn-Sommerville verification."""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import islice
from typing import Iterable, Mapping, NamedTuple

from .complexes import (
    SimplicialComplex,
    face_errors,
    flag_rows,
    label_sort_key,
    parse_facets,
    serialize_facets,
    subset_transform,
    _parse_label,
)
from .errors import ColorInS, NotBalanced, NotPure, ParseError
from .polynomial import binom, sign
from .reports import Row, VerificationReport


def _color_mask(colors: Iterable[int]) -> int:
    """The bitmask of a color set, bit c−1 for color c; repeats count once."""
    mask = 0
    for c in colors:
        if c < 1:
            raise NotBalanced(f"colors are numbered from 1, got {c}")
        mask |= 1 << (c - 1)
    return mask


class BalancedComplex:
    """A pure (d-1)-complex with a proper vertex coloring by [d].

    ``kappa`` maps every vertex to a color in 1..d; no face repeats a color.
    ``face_colors`` holds the color set of every face as a bitmask, aligned
    with ``complex._masks``. Instances are immutable; they compare by
    ``complex``, ``kappa`` and ``color_relabeling`` and are not hashable.
    """

    __slots__ = ("complex", "kappa", "color_relabeling", "face_colors")

    def __init__(self, complex: SimplicialComplex, kappa: Mapping,
                 color_relabeling: Mapping | None = None):
        cx = complex
        if not cx.pure:
            raise NotPure("balanced complexes are pure by definition")
        d = cx.dim + 1
        missing = [v for v in cx.vertices if v not in kappa]
        if missing:
            raise NotBalanced(f"vertices without a color: {missing}")
        bad_range = [v for v in cx.vertices
                     if not isinstance(kappa[v], int) or not 1 <= kappa[v] <= d]
        if bad_range:
            raise NotBalanced(f"colors outside 1..{d} at {bad_range}")
        # the faces with top vertex t are one run of the sorted masks, each with
        # its parent's colors and t's; a face repeats a color exactly when it
        # has fewer colors than vertices
        colors, lo = [0] * len(cx._masks), 1
        faces = islice(cx._drop, 1, None)  # one pass over the drops, run by run
        for t, v in enumerate(cx.vertices):
            bit, hi = 1 << (kappa[v] - 1), bisect_left(cx._masks, 2 << t)
            colors[lo:hi] = [colors[f[-1]] | bit for f in islice(faces, hi - lo)]
            lo = hi
        for m, c in zip(cx._masks, colors):  # in mask order: the smallest such face
            if c.bit_count() != m.bit_count():
                f = cx.face_of(m)
                raise NotBalanced(f"face {set(f)} repeats a color", witness=f)
        object.__setattr__(self, "complex", cx)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "color_relabeling", color_relabeling)
        object.__setattr__(self, "face_colors", tuple(colors))

    def __setattr__(self, name, value):
        raise AttributeError("BalancedComplex is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.complex, self.kappa, self.color_relabeling)
                == (other.complex, other.kappa, other.color_relabeling))

    __hash__ = None  # kappa is a dict

    def __repr__(self) -> str:
        return (f"BalancedComplex(complex={self.complex!r}, kappa={self.kappa!r}, "
                f"color_relabeling={self.color_relabeling!r})")

    @property
    def d(self) -> int:
        return self.complex.dim + 1


def validate_coloring(cx: SimplicialComplex, kappa: Mapping) -> BalancedComplex:
    """Canonicalize an arbitrary proper coloring to colors 1..d and validate it."""
    if not cx.pure:
        raise NotPure("balanced complexes are pure by definition")
    missing = [v for v in cx.vertices if v not in kappa]
    if missing:
        raise NotBalanced(f"vertices without a color: {missing}")
    palette = sorted({kappa[v] for v in cx.vertices}, key=label_sort_key)
    relabel = {c: i + 1 for i, c in enumerate(palette)}
    canonical = {v: relabel[kappa[v]] for v in cx.vertices}
    return BalancedComplex(cx, canonical, color_relabeling=relabel)


class FlagVector(NamedTuple):
    """Values indexed by color subsets of [d], stored by bitmask (colex order)."""

    d: int
    values: Mapping[int, int]

    def __getitem__(self, colors) -> int:
        return self.values.get(_color_mask(colors), 0)

    def by_mask(self, mask: int) -> int:
        return self.values.get(mask, 0)

    def items(self):
        for mask in range(1 << self.d):
            yield mask, self.values.get(mask, 0)


def flag_f_vector(bal: BalancedComplex) -> FlagVector:
    """f_S = number of faces whose color set is exactly S."""
    return FlagVector(bal.d, dict(Counter(bal.face_colors)))


def flag_h_vector(bal: BalancedComplex) -> FlagVector:
    """h_T = Σ_{S ⊆ T} (−1)^{|T|−|S|} f_S (Möbius inversion of the flag f)."""
    f = flag_f_vector(bal)
    h = subset_transform([f.by_mask(m) for m in range(1 << bal.d)], bal.d, signed=True)
    return FlagVector(bal.d, dict(enumerate(h)))


def rank_selected(bal: BalancedComplex, S: Iterable[int]) -> SimplicialComplex:
    """Δ_S: the subcomplex of faces whose color set lies in S."""
    smask = _color_mask(S)
    cx = bal.complex
    return SimplicialComplex.from_masks(
        cx.vertices, [m for m, c in zip(cx._masks, bal.face_colors) if not c & ~smask])


def verify_flag_ds(bal: BalancedComplex, name: str = "") -> VerificationReport:
    """h_S − h_{S^c} against (−1)^{d−|S|} Σ_{F ∈ Δ_S} ε_Δ(F) for every S.

    ε is always measured in the ambient complex Δ, never in Δ_S. The report
    also checks that summing the identity over |S| = i reproduces the pure
    Dehn-Sommerville equation at index i.
    """
    d = bal.d
    h = flag_h_vector(bal)
    err_by_mask = [0] * (1 << d)
    for c, e in zip(bal.face_colors, face_errors(bal.complex)):
        err_by_mask[c] += e
    err_by_size = [0] * (d + 1)  # a face has as many colors as vertices
    for c, e in enumerate(err_by_mask):
        err_by_size[c.bit_count()] += e
    rows = flag_rows(h.values, err_by_mask, d)
    # refinement: row sums over |S| = i must reproduce the pure identity at index i
    for i in range(d + 1):
        lhs = sum(r.lhs for m, r in enumerate(rows[:1 << d]) if m.bit_count() == i)
        rhs = sign(i - 1) * sum(binom(d - k, i) * e for k, e in enumerate(err_by_size))
        rows.append(Row(index=f"refine |S|={i}", lhs=lhs, rhs=rhs))
    return VerificationReport("flag-ds", {"object": name or repr(bal.complex), "d": d},
                              tuple(rows))


def short_flag_sum(bal: BalancedComplex, S: Iterable[int], i: int) -> int:
    """Σ over vertices of color i of h_S(lk v); equals h_{S∪{i}} + h_S.

    The link of a vertex keeps the ambient coloring, so S may be any color
    subset not containing i.
    """
    S = frozenset(S)
    if i in S:
        raise ColorInS(f"color {i} lies in S")
    if not S <= set(range(1, bal.d + 1)):
        raise NotBalanced(f"S must be a subset of the colors 1..{bal.d}")
    # flag f-vector of the disjoint union of the links of the color-i vertices:
    # a face with colors c ∋ i gives the face of colors c − {i} in one link
    counts = [0] * (1 << bal.d)
    bit = 1 << (i - 1) if 1 <= i <= bal.d else 0
    for c in bal.face_colors:
        if c & bit:
            counts[c ^ bit] += 1
    return subset_transform(counts, bal.d, signed=True)[_color_mask(S)]


# --- balanced text format ---------------------------------------------------

def parse_colors(text: str) -> dict:
    """A color map: whitespace-separated 'label=color' pairs, with an optional
    'colors:' prefix on a line; '#' comments are ignored. A label colored
    twice is a ParseError."""
    kappa = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("colors:"):
            line = line[len("colors:"):]
        for pair in line.split():
            label, eq, color = pair.partition("=")
            if not eq:
                raise ParseError(f"bad color assignment {pair!r}")
            try:
                color = int(color)
            except ValueError:
                raise ParseError(f"bad color in {pair!r}") from None
            label = _parse_label(label)
            if label in kappa:
                raise ParseError(f"label {label!r} is colored twice")
            kappa[label] = color
    return kappa


def parse_balanced(text: str) -> BalancedComplex:
    """Facet-list format preceded by a 'colors:' header mapping labels to colors."""
    kappa = None
    facet_lines = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("colors:"):
            if kappa is not None:
                raise ParseError("duplicate colors: header")
            kappa = parse_colors(stripped)
        else:
            facet_lines.append(stripped)
    if kappa is None:
        raise ParseError("missing colors: header")
    cx = parse_facets("\n".join(facet_lines))
    return validate_coloring(cx, kappa)


def serialize_balanced(bal: BalancedComplex) -> str:
    colors = " ".join(f"{v}={bal.kappa[v]}" for v in bal.complex.vertices)
    return f"colors: {colors}\n" + serialize_facets(bal.complex)
