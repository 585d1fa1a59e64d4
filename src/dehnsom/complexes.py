"""Simplicial complexes and their exact invariants.

Vertices are interned in label order and every face is an integer bitmask
over them (bit i is ``vertices[i]``). Every construction ends in one pass
over the masks (``SimplicialComplex.from_masks``, called directly by
``build_complex``, ``link``, ``join``, ``balanced.rank_selected`` and
``posets.order_complex``) that sorts them once, checks closure run by run of
faces with the same top vertex, finds purity and the facets, and keeps each
face's one-vertex-removed faces (``_drop``). Only that pass hashes masks,
into transient position tables; every later per-face pass, the link sweep
and the balanced coloring among them, addresses a face by its position in
the sorted ``_masks``, so χ̃(lk F), ε(F) and ``BalancedComplex.face_colors``
are lists aligned with ``_masks``. Frozensets
of opaque vertex labels are the boundary form: the label constructor takes
them, the public ``faces`` set is built from the masks on first read, and
``facets()`` and error records give labels. The empty face is always a
member, so f_{-1} = 1.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress, repeat
from operator import eq, ge, xor
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyInput, FaceNotInComplex, InternalError, NotPure, ParseError
from .polynomial import ExactPolynomial, binom, sign
from .reports import Row, VerificationReport

Face = frozenset


def label_sort_key(v):
    """Total order over mixed int/str labels: ints first, then everything by string form."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    return (1, 0, str(v))


def face_sort_key(face: Iterable) -> tuple:
    return (len(tuple(face)), tuple(sorted((label_sort_key(v) for v in face))))


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relabel(masks: Iterable[int], new_bits: Sequence[int]) -> list[int]:
    """Each mask with its bit i replaced by ``new_bits[i]``."""
    return [sum(new_bits[i] for i in _bits(m)) for m in masks]


class SimplicialComplex:
    """An inclusion-closed family of vertex subsets.

    Downward closure is checked on every construction: removing any single
    vertex from a face must give a face. The faces live as sorted bitmasks in
    ``_masks``; the check keeps, for the face at each position, the positions
    of its one-vertex-removed faces in ascending vertex order (``_drop``, a
    list of tuples aligned with ``_masks``), so the last is its parent, the
    face minus its top vertex. The frozenset form ``faces`` and the link-Euler
    values (``link_euler_values``) are built on first read. Instances are
    immutable and safe to share.
    """

    __slots__ = ("vertices", "dim", "pure", "_bit", "_masks", "_facet_masks", "_drop",
                 "_faces", "_link_chi")

    def __init__(self, faces: Iterable[Iterable]):
        fam = {Face(f) for f in faces}
        verts = tuple(sorted({v for f in fam for v in f}, key=label_sort_key))
        bit = {v: 1 << i for i, v in enumerate(verts)}
        self._set_masks(verts, [sum(map(bit.__getitem__, f)) for f in fam])

    @classmethod
    def from_masks(cls, vertices: Sequence, masks: Iterable[int]) -> "SimplicialComplex":
        """The complex whose faces are ``masks``, bit i standing for vertices[i].

        ``vertices`` must be distinct and sorted by ``label_sort_key``, which
        keeps the masks canonical; vertices that no face uses are dropped.
        ``masks`` may be any iterable, unsorted and with repeats: it is sorted
        once into a new list (a caller's list is never changed), and repeats
        are dropped only when a check of adjacent masks finds one.
        """
        cx = cls.__new__(cls)
        cx._set_masks(tuple(vertices), masks)
        return cx

    def _set_masks(self, verts: tuple, masks: Iterable[int]) -> None:
        masks = sorted(masks)
        if any(map(eq, masks, masks[1:])):  # drop repeats only when there are any
            masks = [m for m, n in zip(masks, masks[1:]) if m != n] + masks[-1:]
        if not masks:
            raise EmptyInput("a complex has at least the empty face")
        if masks[0]:
            raise InternalError("the empty face is missing")
        keys = [label_sort_key(v) for v in verts]
        if any(a > b for a, b in zip(keys, keys[1:])):
            raise InternalError("vertices are not in label order")
        if masks[-1].bit_length() > len(verts):
            raise InternalError(f"a face uses bit {masks[-1].bit_length() - 1}, "
                                f"past the {len(verts)} vertices")
        # the faces with top vertex t are one run of the sorted masks, each its
        # parent (the face minus t) plus t; a missing parent or drop is a KeyError
        ids = list(range(len(masks)))  # one int object per position, shared
        bounds = [bisect_left(masks, 1 << t) for t in range(len(verts) + 1)]
        runs = list(zip(bounds, bounds[1:]))
        position = dict(zip(masks, ids))
        try:
            parents = [list(map(position.__getitem__, map(xor, masks[lo:hi], repeat(1 << t))))
                       for t, (lo, hi) in enumerate(runs)]
            del position
            # F's drops in ascending vertex order: each drop of its parent with
            # t added (the run's face above that drop), then the parent
            drop = [()]
            for run, (lo, hi) in zip(parents, runs):
                face_at = dict(zip(run, ids[lo:hi])).__getitem__
                drop += [(*map(face_at, drop[p]), p) for p in run]
        except KeyError:  # name the smallest face that lacks a one-vertex-removed face
            family = set(masks)
            m = next(m for m in masks if any(m ^ (1 << i) not in family for i in _bits(m)))
            face = {verts[i] for i in _bits(m)}
            raise InternalError(f"family not closed under inclusion at {face}") from None
        covered = bytearray(len(masks))
        for faces in drop:
            for p in faces:
                covered[p] = 1
        keep = [t for t, (lo, hi) in enumerate(runs) if lo < hi]
        if len(keep) < len(verts):
            # drop the unused vertices; the bit map keeps order, so positions hold
            new_bits = [0] * len(verts)
            for j, i in enumerate(keep):
                new_bits[i] = 1 << j
            verts = tuple(verts[i] for i in keep)
            masks = _relabel(masks, new_bits)
        # the submasks reached are exactly the non-maximal faces
        facet_masks = [m for m, c in zip(masks, covered) if not c]
        dim = max(m.bit_count() for m in facet_masks) - 1
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pure", all(m.bit_count() == dim + 1 for m in facet_masks))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_bit", {v: 1 << i for i, v in enumerate(verts)})
        object.__setattr__(self, "_masks", tuple(masks))
        object.__setattr__(self, "_facet_masks", tuple(facet_masks))
        object.__setattr__(self, "_drop", drop)
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_link_chi", None)

    def __setattr__(self, name, value):
        raise AttributeError("SimplicialComplex is immutable")

    @property
    def faces(self) -> frozenset:
        """Every face as a frozenset of labels, built on first read."""
        if self._faces is None:
            object.__setattr__(self, "_faces", frozenset(map(self.face_of, self._masks)))
        return self._faces

    def _face_mask(self, face: Iterable) -> int | None:
        """The bitmask of ``face`` if it is a face of the complex, else None."""
        m = 0
        for v in face:
            b = self._bit.get(v)
            if b is None:
                return None
            m |= b
        k = bisect_left(self._masks, m)
        return m if k < len(self._masks) and self._masks[k] == m else None

    def __contains__(self, face: Iterable) -> bool:
        return self._face_mask(face) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return False
        if self.vertices == other.vertices:
            return self._masks == other._masks
        # equal vertex sets come in different orders only where labels tie
        # under label_sort_key (True and "True", say)
        return set(self.vertices) == set(other.vertices) and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), len(self._masks)))

    def __repr__(self) -> str:
        return f"SimplicialComplex(dim={self.dim}, f={f_vector(self).entries})"

    def face_of(self, mask: int) -> Face:
        verts = self.vertices
        return Face(verts[i] for i in _bits(mask))

    def facets(self) -> list[Face]:
        return sorted(map(self.face_of, self._facet_masks), key=face_sort_key)


class FVector(NamedTuple):
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); f_{-1} = 1 for the empty face."""

    entries: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> int:
        # indexed by dimension, so f[-1] is the first entry
        return self.entries[i + 1]


class HVector(NamedTuple):
    """Entries (h_0, ..., h_d) from sum h_i x^{d-i} = sum f_{i-1} (x-1)^{d-i}."""

    entries: tuple[int, ...]
    impure: bool = False

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


class FaceError(NamedTuple):
    face: Face
    epsilon: int


class SingularityProfile(NamedTuple):
    eulerian: bool
    semi_eulerian: bool
    min_singular_j: int
    error_set: tuple[FaceError, ...]


def build_complex(facets: Iterable[Iterable]) -> SimplicialComplex:
    """Downward closure of a facet list; duplicates and dominated facets absorbed."""
    facet_list = [Face(f) for f in facets]
    if not facet_list:
        raise EmptyInput("facet list is empty")
    verts = tuple(sorted({v for f in facet_list for v in f}, key=label_sort_key))
    bit = {v: 1 << i for i, v in enumerate(verts)}
    faces = set()
    for top in {sum(map(bit.__getitem__, f)) for f in facet_list}:
        sub = top
        while True:  # every submask of top, the empty face last
            faces.add(sub)
            if not sub:
                break
            sub = (sub - 1) & top
    return SimplicialComplex.from_masks(verts, faces)


def f_vector(cx: SimplicialComplex) -> FVector:
    counts = [0] * (cx.dim + 2)
    for m in cx._masks:
        counts[m.bit_count()] += 1
    return FVector(tuple(counts))


def h_from_f(f: Sequence[int], d: int) -> tuple[int, ...]:
    """(h_0, ..., h_d) from f = (f_{-1}, ..., f_{d-1}) by expanding
    sum h_i x^{d-i} = sum f_{i-1} (x-1)^{d-i} exactly."""
    poly = ExactPolynomial.zero()
    for i in range(d + 1):
        poly = poly + ExactPolynomial.x_minus_one_power(d - i).scale(f[i])
    return tuple(poly.coeff(d - i) for i in range(d + 1))


def h_vector(cx: SimplicialComplex) -> HVector:
    """The f→h transform of the face counts; impure input is allowed but flagged."""
    return HVector(h_from_f(f_vector(cx).entries, cx.dim + 1), impure=not cx.pure)


def subset_transform(values: Sequence[int], d: int, signed: bool) -> list[int]:
    """Yates's transform of a table indexed by the subsets of [d] (as bitmasks).

    out[T] = Σ_{S ⊆ T} values[S], or Σ_{S ⊆ T} (−1)^{|T∖S|} values[S] (Möbius
    inversion) when ``signed``; one pass per bit, O(d·2^d) in all.
    """
    out = list(values)
    for i in range(d):
        bit = 1 << i
        for m in range(1 << d):
            if m & bit:
                out[m] = out[m] - out[m ^ bit] if signed else out[m] + out[m ^ bit]
    return out


def flag_rows(h: Sequence[int], errors: Sequence[int], d: int) -> list[Row]:
    """h[S] − h[S^c] against (−1)^{d−|S|} Σ_{T ⊆ S} errors[T] for every S ⊆ [d],
    both tables indexed by bitmask."""
    full = (1 << d) - 1
    below = subset_transform(errors, d, signed=False)
    return [Row(index=f"S={subset_label(m)}", lhs=h[m] - h[full ^ m],
                rhs=sign(d - m.bit_count()) * below[m]) for m in range(1 << d)]


def ds_rows(h: Sequence[int], by_size: Sequence[int], d: int) -> list[Row]:
    """h_{d−j} − h_j against (−1)^j Σ_k C(d−k, j)·by_size[k] for j = 0, ..., d."""
    return [Row(index=f"j={j}", lhs=h[d - j] - h[j],
                rhs=sign(j) * sum(binom(d - k, j) * x for k, x in enumerate(by_size)))
            for j in range(d + 1)]


def subset_label(mask: int) -> str:
    """The subset of [d] held in ``mask`` (bit i for i+1), written like "{1,3}"."""
    return "{" + ",".join(str(i + 1) for i in _bits(mask)) + "}"


def reduced_euler_characteristic(cx: SimplicialComplex) -> int:
    return sum(sign(m.bit_count() - 1) for m in cx._masks)


def link(cx: SimplicialComplex, face: Iterable) -> SimplicialComplex:
    """lk F = {G : F ∪ G a face, F ∩ G = ∅}, i.e. {H \\ F : H a face containing F}."""
    f = Face(face)
    m = cx._face_mask(f)
    if m is None:
        raise FaceNotInComplex(f"{set(f)} is not a face")
    return SimplicialComplex.from_masks(cx.vertices, [h ^ m for h in cx._masks if h & m == m])


def join_with_mapping(a: SimplicialComplex, b: SimplicialComplex):
    """Join after relabeling both sides; returns (complex, left map, right map)."""
    left = {v: f"a:{v}" for v in a.vertices}
    right = {v: f"b:{v}" for v in b.vertices}
    verts = sorted([*left.values(), *right.values()], key=label_sort_key)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    a_masks = _relabel(a._masks, [bit[left[v]] for v in a.vertices])
    b_masks = _relabel(b._masks, [bit[right[v]] for v in b.vertices])
    faces = [x | y for x in a_masks for y in b_masks]
    return SimplicialComplex.from_masks(verts, faces), left, right


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    return join_with_mapping(a, b)[0]


def face_error(cx: SimplicialComplex, face: Iterable) -> int:
    """ε(F) = χ̃(lk F) − (−1)^{d−1−|F|}, the deviation of the link from a sphere."""
    if not cx.pure:
        raise NotPure("face errors are defined for pure complexes")
    f = Face(face)
    d = cx.dim + 1
    return reduced_euler_characteristic(link(cx, f)) - sign(d - 1 - len(f))


def _link_euler_sweep(drop: Sequence[tuple]) -> list[int]:
    """χ̃(lk F) for every face of a complex, as a list aligned with its sorted
    masks, from the per-face drops ``drop`` of the complex.

    χ̃(lk F) = Σ_{H ⊇ F, H a face} (−1)^{|H∖F|−1}: the signed superset
    (Yates) transform of the constant −1. Level j visits every face with at
    least j vertices, supersets first, and moves its value to the face minus
    its j-th highest vertex, so each pair H ⊇ G is joined by exactly one path:
    H∖G removed from the top down, level by level. It runs on the faces alone,
    since a set that is not a face has no face above it, in Σ |H| steps.
    """
    acc = [-1] * len(drop)
    sizes = list(map(len, drop))
    down = range(len(drop) - 1, -1, -1)
    for j in range(1, max(sizes) + 1):
        for k in compress(down, map(ge, reversed(sizes), repeat(j))):
            acc[drop[k][-j]] -= acc[k]
    return acc


def link_euler_values(cx: SimplicialComplex) -> tuple[int, ...]:
    """χ̃(lk F) for every face, aligned with ``cx._masks``; swept once per complex."""
    if cx._link_chi is None:
        object.__setattr__(cx, "_link_chi", tuple(_link_euler_sweep(cx._drop)))
    return cx._link_chi


def face_errors(cx: SimplicialComplex) -> list[int]:
    """ε(F) = χ̃(lk F) − (−1)^{d−1−|F|} for every face of a pure complex,
    aligned with ``cx._masks``."""
    if not cx.pure:
        raise NotPure("face errors are defined for pure complexes")
    d = cx.dim + 1
    sphere = [sign(d - 1 - k) for k in range(d + 1)]  # χ̃ of a sphere link, by |F|
    return [c - sphere[m.bit_count()] for m, c in zip(cx._masks, link_euler_values(cx))]


def link_euler_table(cx: SimplicialComplex) -> dict[int, int]:
    """χ̃(lk F) for every face at once, keyed by face bitmask in ``_masks`` order."""
    return dict(zip(cx._masks, link_euler_values(cx)))


def face_error_table(cx: SimplicialComplex) -> dict[Face, int]:
    """ε(F) for every face of a pure complex, keyed by face."""
    return dict(zip(map(cx.face_of, cx._masks), face_errors(cx)))


def short_h_vector(cx: SimplicialComplex) -> tuple[int, ...]:
    """h*_i = sum over vertices of h_i(lk v), for i = 0..d-1.

    Every vertex link of a pure complex has dimension d−2, and h is linear in
    f, so the sum is the h-vector of the summed link f-vectors. A face with k
    vertices gives lk v a face with k−1 vertices for each of its k vertices.
    """
    if not cx.pure:
        raise NotPure("short h-numbers need a pure complex")
    d = cx.dim + 1
    if d < 1:
        raise EmptyInput("short h-vector needs d >= 1")
    f = f_vector(cx).entries  # f[k] faces with k vertices
    return h_from_f([k * f[k] for k in range(1, d + 1)], d - 1)


def singularity_profile(cx: SimplicialComplex) -> SingularityProfile:
    bad = sorted(((cx.face_of(m), e) for m, e in zip(cx._masks, face_errors(cx)) if e),
                 key=lambda fe: face_sort_key(fe[0]))
    min_j = max((len(f) - 1 for f, _ in bad), default=-2) + 1
    return SingularityProfile(
        eulerian=not bad,
        semi_eulerian=all(f == Face() for f, _ in bad),
        min_singular_j=min_j,
        error_set=tuple(FaceError(f, e) for f, e in bad),
    )


def verify_pure_ds(cx: SimplicialComplex, name: str = "") -> VerificationReport:
    """h_{d−j} − h_j against (−1)^j Σ_F C(d−|F|, j) ε(F), both sides exact.

    The left side comes from the f→h transform, the right from the link-error
    sweep; the two paths share no intermediate values.
    """
    if not cx.pure:
        raise NotPure("the identity assumes a pure complex")
    d = cx.dim + 1
    h = h_vector(cx).entries
    eps = [0] * (d + 1)  # Σ ε(F) over the faces F of each size
    for m, e in zip(cx._masks, face_errors(cx)):
        eps[m.bit_count()] += e
    return VerificationReport(
        identity="ds",
        parameters={"object": name or repr(cx), "d": d, "h": list(h)},
        rows=tuple(ds_rows(h, eps, d)),
    )


# --- facet-list text format -------------------------------------------------

def _parse_label(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def parse_facets(text: str) -> SimplicialComplex:
    """One facet per line, whitespace-separated labels; '#' comments, blanks ignored."""
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        facets.append([_parse_label(tok) for tok in line.split()])
    if not facets:
        raise ParseError("no facets found")
    return build_complex(facets)


def serialize_facets(cx: SimplicialComplex) -> str:
    """Canonical form: facets sorted lexicographically by interned vertex index."""
    order = {v: i for i, v in enumerate(cx.vertices)}
    rows = sorted(tuple(sorted(f, key=order.__getitem__)) for f in cx.facets())
    lines = [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"
