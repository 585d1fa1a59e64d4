"""Deterministic catalog of complexes and posets, plus seeded random families.

Every generator is a pure function of its (name, params): byte-identical
canonical serialization across runs. Random families use a documented 64-bit
linear congruential generator so other implementations can reproduce them.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .complexes import SimplicialComplex, _bits, _face_sums, build_complex, join, label_sort_key
from .errors import BadParams, ParseError, UnknownGenerator
from .posets import GradedPoset, build_poset, dual

# Knuth's MMIX constants; state advances as x -> (a*x + c) mod 2^64.
LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """Seeded 64-bit linear congruential generator (documented constants above)."""

    def __init__(self, seed: int):
        self.state = ((seed ^ 0x9E3779B97F4A7C15) * LCG_MULT + LCG_INC) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * LCG_MULT + LCG_INC) & _MASK64
        return self.state

    def uniform(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise BadParams("randrange needs n > 0")
        return self.next_u64() % n


class GeneratorSpec(NamedTuple):
    name: str
    params: tuple = ()


# --- deterministic complexes --------------------------------------------------

def simplex_boundary(d: int) -> SimplicialComplex:
    if d < 1:
        raise BadParams("simplex_boundary needs d >= 1")
    verts = range(d + 1)
    return build_complex(itertools.combinations(verts, d))


def cross_polytope(d: int) -> SimplicialComplex:
    if d < 1:
        raise BadParams("cross_polytope needs d >= 1")
    axes = [(i, -i) for i in range(1, d + 1)]
    return build_complex(itertools.product(*axes))


def cycle(n: int) -> SimplicialComplex:
    if n < 3:
        raise BadParams("cycle needs n >= 3")
    return build_complex([(i, (i + 1) % n) for i in range(n)])


def torus_7() -> SimplicialComplex:
    """Vertex-transitive 7-vertex torus: orbits {i,i+1,i+3} and {i,i+2,i+3} mod 7."""
    facets = [((i) % 7, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    facets += [((i) % 7, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    return build_complex(facets)


def rp2_6() -> SimplicialComplex:
    """6-vertex real projective plane (antipodal quotient of the icosahedron)."""
    facets = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
              (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    return build_complex(facets)


def two_points() -> SimplicialComplex:
    return build_complex([("N",), ("S",)])


def suspension(x: SimplicialComplex) -> SimplicialComplex:
    return join(two_points(), x)


def cone(x: SimplicialComplex) -> SimplicialComplex:
    return join(build_complex([("apex",)]), x)


def circle_join(n: int, x: SimplicialComplex) -> SimplicialComplex:
    return join(cycle(n), x)


# --- deterministic posets ----------------------------------------------------

def boolean_lattice(n: int) -> GradedPoset:
    """The subsets of {1, ..., n}, each labeled by its members in increasing
    order: run together up to n = 9, comma-separated from n = 10 on, where
    run-together labels are ambiguous ("12" would be both {12} and {1, 2})."""
    if not 0 <= n <= 12:
        raise BadParams("boolean_lattice supports 0 <= n <= 12")
    sep = "" if n <= 9 else ","
    label = {sum(1 << i for i in s): sep.join(str(i + 1) for i in s)
             for k in range(n + 1) for s in itertools.combinations(range(n), k)}
    covers = [(name, label[m | 1 << i]) for m, name in label.items()
              for i in range(n) if not m >> i & 1]
    return build_poset(list(label.values()), covers)


def chain(n: int) -> GradedPoset:
    if n < 0:
        raise BadParams("chain needs n >= 0")
    elements = [f"c{i}" for i in range(n + 1)]
    return build_poset(elements, list(zip(elements, elements[1:])))


def face_poset(x: SimplicialComplex, with_top: bool = True) -> GradedPoset:
    """Faces of x ordered by inclusion, 0̂ = ∅; adjoins 1̂ when with_top.

    A face is labeled by its vertices in label order, e.g. "(0,1,3)",
    whatever the vertex order of x. Faces are read by position: face k
    covers the faces in its drop columns, and the facets lie under 1̂.
    """
    verts = sorted(x.vertices, key=label_sort_key)
    bit = {v: 1 << i for i, v in enumerate(verts)}
    elements = ["(" + ",".join(str(verts[i]) for i in _bits(r)) + ")"
                for r in _face_sums(x, [bit[v] for v in x.vertices])]
    covers = [(elements[col[k]], name) for k, name in enumerate(elements)
              for col in x._cols[:x._sizes[k]]]
    if with_top:
        covers.extend((elements[k], "TOP") for k in x._facets)
        elements.append("TOP")
    elif len(x._facets) != 1:
        raise BadParams("face poset without a top needs a unique maximal face")
    return build_poset(elements, covers)


def polygon_lattice(n: int) -> GradedPoset:
    if n < 3:
        raise BadParams("polygon_lattice needs n >= 3")
    return face_poset(cycle(n), with_top=True)


# --- seeded random families ----------------------------------------------------

def random_pure_complex(d: int, n: int, density: float, seed: int) -> SimplicialComplex:
    """Facets of size d over n vertices, each kept with the given probability.

    The closure of equal-size facets is automatically pure; at least one facet
    is forced so the result is never empty.
    """
    if not 1 <= d <= n:
        raise BadParams("need 1 <= d <= n")
    if not 0.0 <= density <= 1.0:
        raise BadParams("density must lie in [0, 1]")
    rng = Lcg(seed)
    combos = list(itertools.combinations(range(n), d))
    facets = [c for c in combos if rng.uniform() < density]
    if not facets:
        facets = [combos[rng.randrange(len(combos))]]
    return build_complex(facets)


def random_graded_poset(ranks, density: float, seed: int) -> GradedPoset:
    """Layered poset with the given middle-layer sizes between 0̂ and 1̂.

    Covers between adjacent layers are sampled independently; every element is
    then guaranteed at least one lower and one upper cover, which makes the
    result graded by construction.
    """
    ranks = tuple(ranks)
    if not ranks or any(isinstance(r, bool) or not isinstance(r, int) or r < 1
                        for r in ranks):
        raise BadParams("ranks must be a nonempty tuple of positive integer layer sizes")
    if not 0.0 <= density <= 1.0:
        raise BadParams("density must lie in [0, 1]")
    rng = Lcg(seed)
    layers = [["bot"]] + [[f"r{i + 1}n{j}" for j in range(sz)]
                          for i, sz in enumerate(ranks)] + [["top"]]
    covers = set()
    for lo_layer, hi_layer in zip(layers, layers[1:]):
        forced = len(lo_layer) == 1 or len(hi_layer) == 1
        for lo in lo_layer:
            for hi in hi_layer:
                if forced or rng.uniform() < density:
                    covers.add((lo, hi))
        for hi in hi_layer:
            if not any((lo, hi) in covers for lo in lo_layer):
                covers.add((lo_layer[rng.randrange(len(lo_layer))], hi))
        for lo in lo_layer:
            if not any((lo, hi) in covers for hi in hi_layer):
                covers.add((lo, hi_layer[rng.randrange(len(hi_layer))]))
    elements = [v for layer in layers for v in layer]
    return build_poset(elements, sorted(covers))


# --- dispatch ------------------------------------------------------------------

_CATALOG = {
    "simplex_boundary": (simplex_boundary, (int,), 1),
    "cross_polytope": (cross_polytope, (int,), 1),
    "cycle": (cycle, (int,), 1),
    "torus_7": (torus_7, (), 0),
    "rp2_6": (rp2_6, (), 0),
    "suspension": (suspension, (SimplicialComplex,), 1),
    "cone": (cone, (SimplicialComplex,), 1),
    "join": (join, (SimplicialComplex, SimplicialComplex), 2),
    "circle_join": (circle_join, (int, SimplicialComplex), 2),
    "boolean_lattice": (boolean_lattice, (int,), 1),
    "chain": (chain, (int,), 1),
    "face_poset": (face_poset, (SimplicialComplex, bool), 1),  # with_top defaults true
    "polygon_lattice": (polygon_lattice, (int,), 1),
    "dual": (dual, (GradedPoset,), 1),
    "random_pure_complex": (random_pure_complex, (int, int, float, int), 4),
    "random_graded_poset": (random_graded_poset, (tuple, float, int), 3),
}


def generate(spec: GeneratorSpec, memo: dict | None = None):
    """Build a catalog object; the same (name, params) always gives the same object.
    A random family's seed is its last parameter. Nested specs are built
    through ``built`` with ``memo`` (a new dict when none is given), so a
    memo passed to several calls shares their inner objects."""
    if spec.name not in _CATALOG:
        raise UnknownGenerator(spec.name)
    fn, sig, required = _CATALOG[spec.name]
    if not required <= len(spec.params) <= len(sig):
        raise BadParams(f"{spec.name} takes {required}..{len(sig)} parameters, "
                        f"got {len(spec.params)}")
    args = []
    memo = {} if memo is None else memo
    for value, want in zip(spec.params, sig):
        if isinstance(value, GeneratorSpec):
            value = built(value, memo)
        if want in (SimplicialComplex, GradedPoset):
            if not isinstance(value, want):
                raise BadParams(f"{spec.name} wants a {want.__name__} argument")
        elif want is bool:
            if not isinstance(value, bool):
                raise BadParams(f"{spec.name} wants a boolean, got {value!r}")
        elif want in (int, float):  # an int is a float too, a bool is neither
            if isinstance(value, bool) or not isinstance(value, (want, int)):
                kind = "an integer" if want is int else "a number"
                raise BadParams(f"{spec.name} wants {kind}, got {value!r}")
            value = want(value)
        elif want is tuple:
            if not isinstance(value, (tuple, list)):
                raise BadParams(f"{spec.name} wants a list of layer sizes")
            value = tuple(value)
        args.append(value)
    return fn(*args)


def built(spec: GeneratorSpec, memo: dict):
    """``generate(spec)``, kept in ``memo`` under ``repr(spec)`` (so that
    ``1`` and ``true``, equal as values, stay apart) and generated only when
    it is not there yet."""
    key = repr(spec)
    if key not in memo:
        memo[key] = generate(spec, memo)
    return memo[key]


# deepest nesting of generator calls and lists parse_spec accepts; the parser
# recurses once per level, so deeper input would overflow the interpreter stack
MAX_SPEC_DEPTH = 100


_SPACE = re.compile(r"\s*")  # str.isspace() characters
_NAME = re.compile(r"\w*")  # str.isalnum() characters and "_"


def parse_spec(text: str) -> GeneratorSpec:
    """Tiny prefix grammar: name, name(arg, ...); args are ints, floats, true/false,
    [int,...] lists, or nested generator specs, at most MAX_SPEC_DEPTH levels deep.
    The parser's parts below read ``text`` from ``pos`` and return what they
    read with the position after it."""
    node, pos = _parse_node(text, 0, 0)
    pos = _SPACE.match(text, pos).end()
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}")
    return node


def _parse_node(text: str, pos: int, depth: int) -> tuple[GeneratorSpec, int]:
    start = _SPACE.match(text, pos).end()
    pos = _NAME.match(text, start).end()
    if start == pos:
        raise ParseError(f"expected a name at position {start} in {text!r}")
    name, params = text[start:pos], ()
    pos = _SPACE.match(text, pos).end()
    if text.startswith("(", pos):
        params, pos = _parse_items(text, pos + 1, depth, ")")
    return GeneratorSpec(name, params), pos


def _parse_items(text: str, pos: int, depth: int, close: str) -> tuple[tuple, int]:
    """The comma-separated values of a list or an argument list, up to and
    including the closing bracket."""
    items = []
    while True:
        pos = _SPACE.match(text, pos).end()
        if text.startswith(close, pos):
            return tuple(items), pos + 1
        item, pos = _parse_value(text, pos, depth + 1)
        items.append(item)
        pos = _SPACE.match(text, pos).end()
        if text.startswith(",", pos):
            pos += 1
        elif not text.startswith(close, pos):
            raise ParseError("unterminated list" if close == "]" else
                             f"expected ',' or ')' at {pos} in {text!r}")


def _parse_value(text: str, pos: int, depth: int) -> tuple:
    if depth > MAX_SPEC_DEPTH:
        raise ParseError(f"spec nested deeper than {MAX_SPEC_DEPTH} levels "
                         f"at position {pos}")
    pos = _SPACE.match(text, pos).end()
    if text.startswith("[", pos):
        return _parse_items(text, pos + 1, depth, "]")
    if text[pos:pos + 1].isalpha() or text.startswith("_", pos):
        node, end = _parse_node(text, pos, depth)
        if node.name in ("true", "false"):
            if node.params:
                raise ParseError(f"bad boolean at {pos} in {text!r}")
            return node.name == "true", end
        return node, end
    start = pos
    while pos < len(text) and (text[pos].isdigit() or text[pos] in "+-.e"):
        pos += 1
    token = text[start:pos]
    try:
        return int(token), pos
    except ValueError:
        pass
    try:
        return float(token), pos
    except ValueError:
        raise ParseError(f"bad argument {token!r} in {text!r}") from None


def generate_from_string(text: str):
    return generate(parse_spec(text))
