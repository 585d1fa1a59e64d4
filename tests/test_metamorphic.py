"""Metamorphic relations: the same object under other names gives the same rows.

Every kernel depends on an order that the mathematics ignores: the closure
pass runs by top vertex in the vertex order, the vertices of O(P) follow P's
index order, poset indices follow rank and label order, and colors are
numbered.
Each test renames or reorders an input through public entry points only and
asserts equal (index, lhs, rhs) rows for every identity that
``suite.verify_all`` runs (T. Y. Chen, S. C. Cheung and S. M. Yiu,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01, 1998).
"""

import contextlib
import io
import json
import random

from hypothesis import given, settings, strategies as st

from dehnsom import cli
from dehnsom.balanced import BalancedComplex
from dehnsom.complexes import parse_facets, serialize_facets
from dehnsom.generators import face_poset, generate_from_string, torus_7
from dehnsom.posets import classify_poset, dual, order_complex, parse_poset_json, serialize_poset_json
from dehnsom.suite import verify_all

from conftest import seeded_poset

COMPLEX_SPECS = ("torus_7", "rp2_6", "suspension(torus_7)")


def _rows(obj):
    """{identity: [(index, lhs, rhs), ...]} for every report of ``verify_all``."""
    return {r.identity: [(row.index, row.lhs, row.rhs) for row in r.rows]
            for r in verify_all(obj, "X")}


def _renaming(labels, kind, rng):
    """A bijection of ``labels``: a shuffle onto ints, the label order
    reversed, a shuffle onto strings, or a shuffle onto a mix of both."""
    n = len(labels)
    targets = rng.sample(range(n), n)
    if kind == "reverse":
        return {v: n - i for i, v in enumerate(labels)}
    if kind == "str":
        return {v: f"v{t}" for v, t in zip(labels, targets)}
    if kind == "mixed":
        return {v: t if rng.random() < 0.5 else f"s{t}" for v, t in zip(labels, targets)}
    return dict(zip(labels, targets))


def _renamed_facets(cx, kind, rng):
    """The facet text of ``cx`` under a ``_renaming`` of its vertices, with the
    lines and the labels in each line shuffled."""
    new = _renaming(cx.vertices, kind, rng)
    lines = [[str(new[v]) for v in facet] for facet in cx.facets()]
    for line in lines:
        rng.shuffle(line)
    rng.shuffle(lines)
    return "".join(" ".join(line) + "\n" for line in lines)


def _shuffled_json(P, kind, rng):
    """The poset JSON of ``P`` with its elements renamed by a ``_renaming``
    (kept as they are for "none"), and the element and cover lists shuffled."""
    data = json.loads(serialize_poset_json(P))
    new = {v: v for v in P.labels} if kind == "none" else _renaming(P.labels, kind, rng)
    elements = [new[v] for v in data["elements"]]
    covers = [[new[a], new[b]] for a, b in data["covers"]]
    rng.shuffle(elements)
    rng.shuffle(covers)
    return json.dumps({"elements": elements, "covers": covers})


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10**9),
       spec=st.sampled_from(COMPLEX_SPECS),
       kind=st.sampled_from(("shuffle", "reverse", "str", "mixed")))
def test_renamed_vertices_give_the_same_rows(seed, spec, kind):
    cx = generate_from_string(spec)
    renamed = parse_facets(_renamed_facets(cx, kind, random.Random(seed)))
    assert len(renamed.vertices) == len(cx.vertices)
    assert _rows(renamed) == _rows(cx)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9),
       kind=st.sampled_from(("none", "shuffle", "reverse", "str", "mixed")))
def test_shuffled_poset_json_gives_the_same_rows(seed, kind):
    P = face_poset(torus_7(), True) if seed % 4 == 0 else seeded_poset(seed)
    Q = parse_poset_json(_shuffled_json(P, kind, random.Random(seed)))
    assert _rows(Q) == _rows(P)
    assert classify_poset(Q) == classify_poset(P)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_dual_of_dual_gives_the_same_rows(seed):
    P = seeded_poset(seed)
    assert _rows(dual(dual(P))) == _rows(P)
    assert classify_poset(dual(dual(P))) == classify_poset(P)


def _moved(rows, perm):
    """The flag rows, sorted, with the color set S of each index "S={...}"
    moved to perm(S); the refinement rows as they are."""
    out = []
    for index, lhs, rhs in rows:
        if index.startswith("S="):
            colors = sorted(perm[int(c)] for c in index[3:-1].split(",") if c)
            index = "S={" + ",".join(map(str, colors)) + "}"
        out.append((index, lhs, rhs))
    return sorted(out)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_permuted_colors_move_the_flag_rows(seed):
    bal = order_complex(seeded_poset(seed))
    d = bal.d
    perm = dict(zip(range(1, d + 1), random.Random(seed).sample(range(1, d + 1), d)))
    recolored = BalancedComplex(bal.complex, {v: perm[c] for v, c in bal.kappa.items()})
    got, want = _rows(recolored), _rows(bal)
    assert got.keys() == want.keys() == {"ds", "flag-ds"}
    assert got["ds"] == want["ds"]
    assert sorted(got["flag-ds"]) == _moved(want["flag-ds"], perm)


def _cli_verify_all(path):
    """(exit code, stdout) of ``verify all PATH --json``, with the object's
    name masked: the path, which flag-ds writes as O(PATH) for a poset."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "all", str(path), "--json"])
    return code, out.getvalue().replace(str(path), "X")


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=10**9),
       kind=st.sampled_from(("shuffle", "reverse", "str", "mixed")))
def test_cli_gives_the_same_output_for_renamed_inputs(tmp_path_factory, seed, kind):
    rng = random.Random(seed)
    torus, P = torus_7(), seeded_poset(seed)
    pairs = [(serialize_facets(torus), _renamed_facets(torus, kind, rng)),
             (serialize_poset_json(P), _shuffled_json(P, kind, rng))]
    folder = tmp_path_factory.mktemp("renamed")
    for k, (text, renamed) in enumerate(pairs):
        given_path, renamed_path = folder / f"given-{k}", folder / f"renamed-{k}"
        given_path.write_text(text)
        renamed_path.write_text(renamed)
        code, out = _cli_verify_all(given_path)
        assert out.startswith("[")
        assert _cli_verify_all(renamed_path) == (code, out)
