"""Simplicial complexes and their exact invariants.

A face is addressed by its position in the order of the sorted face
bitmasks (bit i is ``vertices[i]``), over vertices in the order their
constructor chooses: label order for labels, facet lists and joins, P's
index order for O(P), the parent's order for ``link`` and
``rank_selected``. Every construction builds the faces run by run of the
same top vertex, checks closure, and keeps the run starts (``_starts``), the
face sizes (``_sizes``), the drop columns (``_cols``) and the facet
positions. ``from_masks`` sorts the masks and finds each face's parent (the
face minus its top vertex) in a transient position table, the only place a
mask is hashed, then makes each run's column slices by C-level gathers and
keeps no mask. ``from_order`` (for O(P)) is given a strict order: the run
of t is ∅ plus a shifted copy of the whole run of each vertex under t, so
it is copied block by block, closure is the order's transitivity, checked
first, and no mask is made. Per-face passes read positions only, so χ̃(lk
F), ε(F) and ``BalancedComplex.face_colors`` are lists aligned with them,
and the masks (``_masks``) are built from the runs on first read, for every
complex, a face's mask the sum of its vertex bits. A label's vertex index is
its place in ``vertices``. Frozensets of labels are the boundary form: ``faces`` is
built on first read, and ``facets()``, error records and the facet text
list labels in label order, whatever the vertex order. f_{-1} = 1: ∅ is
always a face.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import eq, itemgetter, lt, sub, xor
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyInput, FaceNotInComplex, InternalError, NotPure, ParseError
from .polynomial import ExactPolynomial, binom, sign
from .reports import Row, VerificationReport, report

Face = frozenset
_PLUS_ONE = bytes(range(1, 256)) + b"\0"  # bytes.translate table: a face size plus one
_NOT = b"\1" + bytes(255)  # bytes.translate table: a 0/1 flag negated


def label_sort_key(v):
    """Total order over mixed int/str labels: ints first, then everything by string form."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    return (1, 0, str(v))


def face_sort_key(face: Iterable) -> tuple:
    keys = tuple(sorted(map(label_sort_key, face)))
    return (len(keys), keys)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(keys: Sequence, seq) -> tuple:
    """(seq[k] for k in keys) as a tuple, by one C-level call; raises as seq[k] would."""
    if len(keys) > 1:
        return itemgetter(*keys)(seq)
    return (seq[keys[0]],) if keys else ()


def _check_distinct(verts: tuple) -> None:
    """Refuse a repeated vertex."""
    if len(set(verts)) != len(verts):
        raise InternalError("a vertex is repeated")


def _not_closed(verts: tuple, masks: Sequence[int]) -> InternalError:
    """The error that names the smallest face of the sorted distinct
    ``masks`` lacking a one-vertex-removed face."""
    family = set(masks)
    m = next(m for m in masks if any(m ^ (1 << i) not in family for i in _bits(m)))
    face = {verts[i] for i in _bits(m)}
    return InternalError(f"family not closed under inclusion at {face}")


def _chain_masks(below: Sequence[Sequence[int]]) -> list[int]:
    """The masks, sorted, of the family that ``SimplicialComplex.from_order``
    builds from ``below``: ∅, and t added to ∅ and to each face with top
    vertex s, for s in below[t]. Made only to name an unclosed face."""
    runs = []
    for t, low in enumerate(below):
        runs.append([1 << t, *(m | 1 << t for s in low for m in runs[s])])
    return [0, *chain.from_iterable(runs)]


def _vertex_sums(starts: Sequence[int], cols: Sequence[list], values: Sequence[int]) -> list[int]:
    """Σ values[i] over the vertices i of every face, in position order, of
    the faces with run starts ``starts`` and drop columns ``cols``. The faces
    with top vertex t are positions starts[t] .. starts[t + 1] − 1, each its
    parent ``cols[0][k]`` plus t, so a face takes one addition."""
    sums = [0] * starts[-1]
    for value, lo, hi in zip(values, starts, starts[1:]):
        if lo < hi:  # an empty run reads no column: only-∅ has none
            sums[lo:hi] = map(value.__add__, _gather(cols[0][lo:hi], sums))
    return sums


def _face_sums(cx: "SimplicialComplex", values: Sequence[int]) -> list[int]:
    """Σ values[i] over the vertices i of every face of ``cx``, in position order."""
    return _vertex_sums(cx._starts, cx._cols, values)


class SimplicialComplex:
    """An inclusion-closed family of vertex subsets.

    Downward closure is checked on every construction: removing any single
    vertex from a face must give a face (for ``from_order``, the order must
    be transitive). A face is addressed by its position
    k < n, in the order of the sorted face bitmasks (bit i is vertices[i]).
    The faces with top vertex t are positions ``_starts[t]`` up to
    ``_starts[t + 1]``, after ∅ at position 0. Aligned with the positions are
    the vertex count of every face (``_sizes``, bytes, so n = len(_sizes))
    and one drop column per level (``_cols``, lists): ``_cols[j][k]`` is the
    position of face k minus its (j+1)-th highest vertex, or n when face k
    has j or fewer vertices, so ``_cols[0]`` holds the parents. With the
    facet positions (``_facets``) that is all a complex keeps: the bitmasks
    (``_masks``, ``_facet_masks``), the frozenset form ``faces`` and the
    link-Euler values (``link_euler_values``) are built on first read.
    Instances are immutable and safe to share.
    """

    __slots__ = ("vertices", "dim", "pure", "_starts", "_sizes", "_cols", "_facets",
                 "_mask_tuple", "_faces", "_link_chi")

    def __init__(self, faces: Iterable[Iterable]):
        fam = {Face(f) for f in faces}
        verts = tuple(sorted({v for f in fam for v in f}, key=label_sort_key))
        bit = {v: 1 << i for i, v in enumerate(verts)}
        self._set_masks(verts, [sum(map(bit.__getitem__, f)) for f in fam])

    @classmethod
    def from_masks(cls, vertices: Sequence, masks: Iterable[int]) -> "SimplicialComplex":
        """The complex whose faces are ``masks``, bit i standing for vertices[i].

        ``vertices`` must be distinct, in any order: it is the complex's
        vertex order, and vertices that no face uses are dropped. ``masks``
        may be any iterable, unsorted and with repeats: it is sorted once
        into a new list (a caller's list is never changed), and repeats are
        dropped only when a check of adjacent masks finds one.
        """
        cx = cls.__new__(cls)
        cx._set_masks(tuple(vertices), masks)
        return cx

    @classmethod
    def from_order(cls, vertices: Sequence, below: Sequence[Sequence[int]]) -> "SimplicialComplex":
        """The order complex of a strict order on ``vertices``: its faces are
        the chains. ``below[t]`` lists the vertices under vertices[t], as
        increasing indexes less than t, so the vertex order extends the
        order. The chains with top vertex t are t added to ∅ and to the
        chains with top vertex s, for each s in ``below[t]``: run t is ∅ plus
        one block per s, each a shifted copy of the whole run of s. So the
        sizes, the parent column, the facet flags and each level of a block
        are slice copies and one gather, and no mask is made. The order must
        be transitive (then the chains are closed under inclusion); else the
        smallest face that lacks a face below it is named."""
        verts = tuple(vertices)
        if len(below) != len(verts):
            raise InternalError(f"{len(below)} lists for {len(verts)} vertices")
        _check_distinct(verts)
        # per vertex: the mask of below[t], which of those t covers, and the
        # size and largest face size of its run; `under` holds every vertex
        # that lies under another
        downs, covers, runs, depth, under = [], [], [], [], 0
        for t, low in enumerate(below):
            if not all(map(lt, low, low[1:])) or low and (low[0] < 0 or low[-1] >= t):
                raise InternalError(f"below[{t}] is not an increasing list of vertices before {t}")
            mask = reach = 0
            for s in low:
                mask |= 1 << s
                reach |= downs[s]
            if reach & ~mask:  # some s under t has a vertex under it that is not under t
                raise _not_closed(verts, _chain_masks(below[:t + 1]))
            downs.append(mask)
            covers.append(mask & ~reach)
            under |= mask
            runs.append(1 + sum(map(runs.__getitem__, low)))
            depth.append(1 + max(map(depth.__getitem__, low), default=0))
        starts = list(accumulate(runs, initial=1))
        n = starts[-1]
        ids = list(range(n))  # one int object per position, shared by the columns
        fa = [n] * (n + 1)  # a face of run s to its copy in the run being built; n to n
        sizes, within = bytearray(n), bytearray(n)  # within: in a larger face of the same top
        cols = [[n] * n for _ in range(max(depth, default=0))]
        for t, low in enumerate(below):
            lo = starts[t]
            sizes[lo], within[lo], cols[0][lo], fa[0] = 1, bool(low), 0, lo
            p = lo + 1
            for s in low:  # the block of run s: F + s + t for each F + s of run s
                a, b = starts[s], starts[s + 1]
                q = p + b - a
                fa[a:b] = ids[p:q]
                sizes[p:q] = sizes[a:b].translate(_PLUS_ONE)
                # F + s + t lies in a larger face of top t iff some vertex
                # lies between s and t, or F + s lies in a larger face of top s
                within[p:q] = within[a:b] if covers[t] >> s & 1 else b"\1" * (q - p)
                cols[0][p:q] = ids[a:b]
                for j in range(1, depth[s] + 1):  # deeper levels of the block are n
                    cols[j][p:q] = _gather(cols[j - 1][a:b], fa)
                p = q
        for t in _bits(under):  # a face under a later vertex lies in a larger face
            within[starts[t]:starts[t + 1]] = b"\1" * runs[t]
        within[0] = n > 1
        cx = cls.__new__(cls)
        cx._keep(verts, starts, sizes, cols, tuple(compress(ids, within.translate(_NOT))))
        return cx

    def _set_masks(self, verts: tuple, masks: Iterable[int]) -> None:
        """The closure pass of ``from_masks``. The faces with top vertex t are
        run t of the sorted distinct masks, from ``starts[t]``, each its parent
        (the face minus t) plus t, found in a transient position table. A
        run's sizes and column slices are C-level gathers (``_gather``), its
        levels stop at its largest size, and each level marks the faces it
        holds as non-facets. The masks are not kept."""
        masks = sorted(masks)
        if any(map(eq, masks, masks[1:])):  # drop repeats only when there are any
            masks = [m for m, n in zip(masks, masks[1:]) if m != n] + masks[-1:]
        if not masks:
            raise EmptyInput("a complex has at least the empty face")
        if masks[0]:
            raise InternalError("the empty face is missing")
        if masks[-1].bit_length() > len(verts):
            raise InternalError(f"a face uses bit {masks[-1].bit_length() - 1}, "
                                f"past the {len(verts)} vertices")
        n = len(masks)
        ids = list(range(n))  # one int object per position, shared by the columns
        starts = [bisect_left(masks, 1 << t) for t in range(len(verts) + 1)]
        position = dict(zip(masks, ids))  # a missing parent is position n
        parents = [list(map(position.get, map(xor, masks[lo:hi], repeat(1 << t)), repeat(n)))
                   for t, (lo, hi) in enumerate(zip(starts, starts[1:]))]
        del position
        _check_distinct(verts)
        # column 0 of F = p + t is p; column j is column j−1 of p with t added
        # (the run's face above it), or n where that is n. A missing parent (n)
        # is an IndexError of sizes, a missing face below a KeyError of face_at;
        # a face some column holds lies in a larger face, so it is no facet
        cols, sizes, facet = [], bytearray(n), bytearray(b"\1") * (n + 1)
        try:
            for run, lo, hi in zip(parents, starts, starts[1:]):
                sizes[lo:hi] = grown = bytes(_gather(run, sizes)).translate(_PLUS_ONE)
                depth = max(grown, default=0)
                cols += ([n] * n for _ in range(len(cols), depth))
                face_at = dict(zip(run, ids[lo:hi]))
                face_at[n] = n
                level = run
                for j, col in enumerate(cols[:depth]):
                    if j:
                        level = _gather(_gather(run, cols[j - 1]), face_at)
                    col[lo:hi] = level
                    for p in level:
                        facet[p] = 0
        except (IndexError, KeyError):
            raise _not_closed(verts, masks) from None
        # drop the unused vertices with their empty runs; positions and columns hold
        used = list(map(bool, parents))
        self._keep(tuple(compress(verts, used)), [*compress(starts, used), n], sizes, cols,
                   tuple(compress(ids, facet)))

    def _keep(self, verts: tuple, starts: list, sizes: bytearray, cols: list,
              facets: tuple) -> None:
        """Set the fields that both constructors end with; dim and purity
        are read off the sizes of the facets."""
        dim = max(sizes) - 1
        pure = all(map((dim + 1).__eq__, map(sizes.__getitem__, facets)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pure", pure)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_sizes", bytes(sizes))
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_facets", facets)
        object.__setattr__(self, "_mask_tuple", None)
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_link_chi", None)

    @property
    def _masks(self) -> tuple[int, ...]:
        """Every face as a bitmask, in position order: a face's mask is the
        sum of its vertex bits, built from the runs on first read."""
        if self._mask_tuple is None:
            bits = [1 << i for i in range(len(self.vertices))]
            object.__setattr__(self, "_mask_tuple",
                               tuple(_vertex_sums(self._starts, self._cols, bits)))
        return self._mask_tuple

    @property
    def _facet_masks(self) -> tuple[int, ...]:
        """The facets' bitmasks, in position order."""
        return tuple(map(self._masks.__getitem__, self._facets))

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
        try:
            m = sum({1 << self.vertices.index(v) for v in face})
        except ValueError:  # a vertex of no face
            return None
        masks = self._masks
        k = bisect_left(masks, m)
        return m if k < len(masks) and masks[k] == m else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return False
        if self.vertices == other.vertices:
            return self._masks == other._masks
        # equal vertex sets come in different orders when their constructors
        # chose different ones (O(P) in P's index order against label order)
        return set(self.vertices) == set(other.vertices) and self.faces == other.faces

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), len(self._sizes)))

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
    return FVector(tuple(map(cx._sizes.count, range(cx.dim + 2))))


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
    return [Row(index=index, lhs=h[m] - h[full ^ m], rhs=sign(d - m.bit_count()) * below[m])
            for m, index in enumerate(_flag_indexes(d))]


@lru_cache(maxsize=4)
def _flag_indexes(d: int) -> tuple[str, ...]:
    """The row index "S={…}" of every S ⊆ [d], by bitmask; made once per d,
    by doubling: the masks with bit i are those below 2^i, each with i+1 added."""
    inner = [""]
    for i in range(1, d + 1):
        inner += [f"{s},{i}" if s else str(i) for s in inner]
    return tuple(f"S={{{s}}}" for s in inner)


def ds_rows(h: Sequence[int], by_size: Sequence[int], d: int) -> list[Row]:
    """h_{d−j} − h_j against (−1)^j Σ_k C(d−k, j)·by_size[k] for j = 0, ..., d."""
    return [Row(index=f"j={j}", lhs=h[d - j] - h[j],
                rhs=sign(j) * sum(binom(d - k, j) * x for k, x in enumerate(by_size)))
            for j in range(d + 1)]


def reduced_euler_characteristic(cx: SimplicialComplex) -> int:
    return sum(sign(k - 1) * f for k, f in enumerate(f_vector(cx).entries))


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
    a_masks = _face_sums(a, [bit[left[v]] for v in a.vertices])
    b_masks = _face_sums(b, [bit[right[v]] for v in b.vertices])
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


def _link_euler_sweep(sizes: bytes, cols: Sequence[list]) -> list[int]:
    """χ̃(lk F) for every face of a complex, as a list aligned with its sorted
    masks, from the face sizes and the drop columns ``cols`` of the complex.

    χ̃(lk F) = Σ_{H ⊇ F, H a face} (−1)^{|H∖F|−1}: the signed superset
    (Yates) transform of the constant −1. Level j = 0, 1, ... visits every
    face, supersets first, and moves its value to the face minus its
    (j+1)-th highest vertex, so each pair H ⊇ G is joined by exactly one
    path: H∖G removed from the top down, level by level. A face of j or
    fewer vertices is dead at level j: it moves its value to slot n =
    len(sizes), which is never read and is dropped at the end. Where fewer
    than half the faces are live, the level walks only the live ones, picked
    by ``compress``; on a denser level the mask costs more than the dead
    moves it saves. It runs on the faces alone, since a set that is not a
    face has no face above it.
    """
    n = len(sizes)
    acc = [-1] * (n + 1)
    for j, col in enumerate(cols):
        values = reversed(acc)  # live: each value is read when its face is reached
        next(values)  # slot n
        live = sizes.translate(bytes(j + 1) + b"\1" * (255 - j))  # 1 where |F| > j
        if 2 * live.count(1) < n:
            keep = live[::-1]
            pairs = zip(compress(values, keep), compress(reversed(col), keep))
        else:
            pairs = zip(values, reversed(col))
        for v, t in pairs:
            acc[t] -= v
    del acc[n]
    return acc


def link_euler_values(cx: SimplicialComplex) -> tuple[int, ...]:
    """χ̃(lk F) for every face, aligned with ``cx._masks``; swept once per complex."""
    if cx._link_chi is None:
        object.__setattr__(cx, "_link_chi", tuple(_link_euler_sweep(cx._sizes, cx._cols)))
    return cx._link_chi


def face_errors(cx: SimplicialComplex) -> list[int]:
    """ε(F) = χ̃(lk F) − (−1)^{d−1−|F|} for every face of a pure complex,
    aligned with ``cx._masks``."""
    if not cx.pure:
        raise NotPure("face errors are defined for pure complexes")
    d = cx.dim + 1
    sphere = [sign(d - 1 - k) for k in range(d + 1)]  # χ̃ of a sphere link, by |F|
    return list(map(sub, link_euler_values(cx), map(sphere.__getitem__, cx._sizes)))


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


def _singular_faces(cx: SimplicialComplex) -> tuple[list[tuple[int, int]], bool, bool, int]:
    """The (mask, ε) pairs of the faces of a pure complex with ε ≠ 0, in mask
    order, and (eulerian, semi_eulerian, min_singular_j) read from their
    sizes; no face set is built."""
    errors = face_errors(cx)
    bad = list(compress(zip(cx._masks, errors), errors))
    sizes = bytes(compress(cx._sizes, errors))
    return bad, not bad, not any(sizes), max(sizes, default=-1)


def singularity_profile(cx: SimplicialComplex) -> SingularityProfile:
    bad, eulerian, semi_eulerian, min_j = _singular_faces(cx)
    # each face's label keys sorted, as face_sort_key does, whatever the vertex order
    verts = cx.vertices
    keys = list(map(label_sort_key, verts))
    faces = [(list(_bits(m)), e) for m, e in bad]
    faces.sort(key=lambda fe: (len(fe[0]), sorted(map(keys.__getitem__, fe[0]))))
    return SingularityProfile(eulerian, semi_eulerian, min_j, tuple(
        FaceError(Face(map(verts.__getitem__, ix)), e) for ix, e in faces))


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
    for k, e in zip(cx._sizes, face_errors(cx)):
        eps[k] += e
    return report("ds", cx, name, ds_rows(h, eps, d), d=d, h=list(h))


# --- facet-list text format -------------------------------------------------

def _parse_label(token: str):
    """An int when the token is its canonical decimal form, else the token itself:
    "01", "+1", "1_0" and non-ASCII digits stay distinct strings."""
    try:
        value = int(token)
    except ValueError:
        return token
    return value if str(value) == token else token


def _text_lines(text: str) -> list[str]:
    """The lines of a text input, each cut at '#' and stripped; blank ones dropped."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    return [line for line in lines if line]


def parse_facets(text: str) -> SimplicialComplex:
    """One facet per line, whitespace-separated labels; '#' comments, blanks ignored."""
    facets = [[_parse_label(tok) for tok in line.split()] for line in _text_lines(text)]
    if not facets:
        raise ParseError("no facets found")
    return build_complex(facets)


def serialize_facets(cx: SimplicialComplex) -> str:
    """Canonical form: facets as rows of labels in label order, rows sorted by label.

    A label that ``parse_facets`` would read back as another label, or that
    would make the CLI read the text as another format, is a ParseError.
    """
    for v in cx.vertices:
        text = str(v)
        if (text.split() != [text] or "#" in text or text.startswith(("{", "colors:"))
                or _parse_label(text) != v):
            raise ParseError(f"label {v!r} does not read back as itself in the facet format")
    rows = [sorted(cx.face_of(m), key=label_sort_key) for m in cx._facet_masks]
    rows.sort(key=lambda row: list(map(label_sort_key, row)))
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)
