"""Balanced complexes: proper d-colorings, flag f/h-vectors, rank selection,
and the flag Dehn-Sommerville verification."""

from __future__ import annotations

from collections import Counter
from itertools import compress
from operator import ne
from typing import Iterable, Mapping, NamedTuple

from .complexes import (
    SimplicialComplex,
    _face_sums,
    face_errors,
    flag_rows,
    label_sort_key,
    parse_facets,
    subset_transform,
    _parse_label,
    _text_lines,
)
from .errors import ColorInS, NotBalanced, NotPure, ParseError
from .polynomial import binom, sign
from .reports import Row, VerificationReport, report


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
        # a face's colors are its vertices' colors; it repeats one exactly when
        # the sum of its color bits carries, to fewer set bits than vertices,
        # and a scan in mask order names the smallest such face
        colors = _face_sums(cx, [1 << (kappa[v] - 1) for v in cx.vertices])
        if any(map(ne, map(int.bit_count, colors), cx._sizes)):
            m = next(m for m, c, k in zip(cx._masks, colors, cx._sizes) if c.bit_count() != k)
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
    """Canonicalize an arbitrary proper coloring to colors 1..d and validate it;
    ``BalancedComplex`` refuses an impure complex and an uncolored vertex."""
    colored = [v for v in cx.vertices if v in kappa]
    palette = sorted({kappa[v] for v in colored}, key=label_sort_key)
    relabel = {c: i + 1 for i, c in enumerate(palette)}
    canonical = {v: relabel[kappa[v]] for v in colored}
    return BalancedComplex(cx, canonical, color_relabeling=relabel)


class FlagVector(NamedTuple):
    """Values indexed by color subsets of [d], stored by bitmask (colex order)."""

    d: int
    values: Mapping[int, int]

    def __getitem__(self, colors) -> int:
        mask = _color_mask(colors)
        if mask >> self.d:
            raise NotBalanced(f"colors are numbered 1..{self.d}, got {mask.bit_length()}")
        return self.values.get(mask, 0)

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
    errors = face_errors(bal.complex)
    for c, e in compress(zip(bal.face_colors, errors), errors):  # most faces have ε = 0
        err_by_mask[c] += e
    err_by_size = [0] * (d + 1)  # a face has as many colors as vertices
    for c, e in enumerate(err_by_mask):
        err_by_size[c.bit_count()] += e
    rows = flag_rows(h.values, err_by_mask, d)
    # refinement: row sums over |S| = i must reproduce the pure identity at index i
    lhs_by_size = [0] * (d + 1)
    for m, r in enumerate(rows):
        lhs_by_size[m.bit_count()] += r.lhs
    for i, lhs in enumerate(lhs_by_size):
        rhs = sign(i - 1) * sum(binom(d - k, i) * e for k, e in enumerate(err_by_size))
        rows.append(Row(index=f"refine |S|={i}", lhs=lhs, rhs=rhs))
    return report("flag-ds", bal.complex, name, rows, d=d)


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
    for line in _text_lines(text):
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
    for line in _text_lines(text):
        if line.startswith("colors:"):
            if kappa is not None:
                raise ParseError("duplicate colors: header")
            kappa = parse_colors(line)
        else:
            facet_lines.append(line)
    if kappa is None:
        raise ParseError("missing colors: header")
    cx = parse_facets("\n".join(facet_lines))
    return validate_coloring(cx, kappa)
