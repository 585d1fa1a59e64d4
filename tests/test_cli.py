import argparse
import errno
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from dehnsom.cli import build_parser, main
from dehnsom.cli import run as run_process
from dehnsom.reports import VerificationReport
from dehnsom.suite import IDENTITIES

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"
C4, C4_COLORS = "0 1\n1 2\n2 3\n0 3\n", "0=1 1=2 2=1 3=2"  # a 4-cycle, properly colored


def run(*args):
    """``python -m dehnsom.cli`` in a new process: its exit code and streams."""
    return subprocess.run([sys.executable, "-m", "dehnsom.cli", *args],
                          capture_output=True, text=True)


def cli(capsys, *argv):
    """``main(argv)`` in this process: its stdout, once exit code 0 is checked
    and the cyclic collector is found still on (only ``run()`` turns it off)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    assert gc.isenabled()
    return out


def test_verify_ds_torus_exit_zero():
    r = run("verify", "ds", "--gen", "torus_7")
    assert r.returncode == 0
    assert "h=[1, 4, 10, -1]" in r.stdout and "PASS" in r.stdout


def test_verify_json_output(capsys):
    data = json.loads(cli(capsys, "verify", "ds", "--gen", "torus_7", "--json"))
    assert data[0]["schema"] == 1
    assert data[0]["pass"] is True
    assert {"index", "lhs", "rhs", "residual", "asserted"} <= set(data[0]["rows"][0])


def test_compute_toric_polygon(capsys):
    data = json.loads(cli(capsys, "compute", "toric", "--gen", "polygon_lattice(5)", "--json"))
    assert data["h_poly"] == [1, 3, 1]


def test_compute_toric_boolean_lattice_ten(capsys):
    out = cli(capsys, "compute", "toric", "--gen", "boolean_lattice(10)", "--json")
    assert json.loads(out)["h_poly"] == [1] * 10


def test_compute_euler(capsys):
    # χ̃ = χ − 1: the torus has χ = 0 and the projective plane χ = 1
    assert cli(capsys, "compute", "euler", "--gen", "torus_7") == "chi_tilde = -1\n"
    out = cli(capsys, "compute", "euler", "--gen", "torus_7", "--json")
    assert json.loads(out) == {"euler": -1}
    assert cli(capsys, "compute", "euler", "--gen", "rp2_6") == "chi_tilde = 0\n"


def test_verify_main_default_top_spec(capsys):
    out = cli(capsys, "verify", "main", "--gen", "face_poset(suspension(torus_7))")
    assert "outside theorem range" in out


def test_classify_complex_and_poset(capsys):
    data = json.loads(cli(capsys, "classify", "--gen", "torus_7", "--json"))
    assert data["semi_eulerian"] is True and data["min_singular_j"] == 0
    data = json.loads(cli(capsys, "classify", "--gen", "face_poset(torus_7,true)", "--check",
                          "--json"))
    assert data["min_j_sing"] == 0 and data["simplicial"] is True


def test_generate_round_trip(tmp_path, capsys):
    path = str(tmp_path / "torus.facets")
    cli(capsys, "generate", "circle_join(4,torus_7)", "-o", path)
    cli(capsys, "verify", "ds", path)
    # canonical round trip: serialize(parse(serialize(X))) == serialize(X)
    assert cli(capsys, "generate", "circle_join(4,torus_7)") == Path(path).read_text()


def test_generate_poset_round_trip(tmp_path, capsys):
    path = str(tmp_path / "poset.json")
    cli(capsys, "generate", "face_poset(rp2_6,true)", "-o", path)
    cli(capsys, "verify", "simplicial-ds", path)
    cli(capsys, "verify", "all", path)
    assert all(rep["pass"] for rep in json.loads(cli(capsys, "verify", "all", "--json", path)))


def test_balanced_file_input(tmp_path, capsys):
    path = tmp_path / "c4.bal"
    path.write_text(f"colors: {C4_COLORS}\n{C4}")
    cli(capsys, "verify", "flag-ds", str(path))
    # a comment mentioning colors: does not make a facet file balanced
    path.write_text("# colors: none here\n0 1\n1 2\n2 0\n")
    assert json.loads(cli(capsys, "compute", "f", str(path), "--json"))["f"] == [1, 3, 3]


def test_flag_ds_from_poset_spec(capsys):
    cli(capsys, "verify", "flag-ds", "--gen", "boolean_lattice(3)")


def test_report_rendering(tmp_path, capsys):
    out = tmp_path / "report.json"
    cli(capsys, "verify", "swartz", "--gen", "face_poset(torus_7,true)", "-o", str(out))
    assert "swartz" in cli(capsys, "report", str(out))

    bad = {"schema": 1, "identity": "demo", "parameters": {},
           "rows": [{"index": "k=0", "lhs": 1, "rhs": 0, "asserted": True}],
           "pass": False}
    out.write_text(json.dumps(bad))
    r = run("report", str(out))  # exit 1 through the process
    assert r.returncode == 1 and "FAIL" in r.stdout


def test_report_json_round_trip(tmp_path, capsys):
    # a saved file reads back as the bytes `verify --json` prints for the same input
    out = tmp_path / "report.json"
    for argv in (["swartz", "--gen", "face_poset(torus_7,true)"], ["all"]):  # all: the catalog
        printed = cli(capsys, "verify", *argv, "--json")
        cli(capsys, "verify", *argv, "-o", str(out))
        assert cli(capsys, "report", str(out), "--json") == printed


def test_colors_option(tmp_path, capsys):
    facets, colors = tmp_path / "c4.facets", tmp_path / "c4.colors"
    facets.write_text(C4)
    colors.write_text(C4_COLORS + "\n")
    cli(capsys, "verify", "flag-ds", str(facets), "--colors", str(colors))


# --- refusals: exit 2, nothing on stdout, one JSON diagnostic on stderr -------

def _poset(elements, covers):
    return json.dumps({"elements": elements, "covers": covers})


def _report(*rows, **fields):
    return json.dumps({"identity": "demo", "rows": list(rows), **fields})


def _row(lhs, **fields):
    return {"index": "k=0", "lhs": lhs, "rhs": 0, **fields}


NINES = "9" * 4300  # the most digits Python prints; lhs − rhs has one more
AB = _poset(["a", "b"], [["a", "b"]])
CHOICES = ", ".join(map(repr, [*IDENTITIES, "all"]))
NOT_A_REPORT = ("ParseError: a report is an object with a string 'identity', an object "
                "'parameters' and a list 'rows'")
RANKS = "ranks must be a nonempty tuple of positive integer layer sizes"
DEEP = "ParseError: spec nested deeper than 100 levels at position "


def refusal(id, line, diagnostic, **files):
    """A row of REFUSALS: ``line`` is split as a shell splits it and run in a
    directory that holds ``files`` (file name=text or bytes); ``diagnostic`` is
    "error: message". A message that ends in "..." is a prefix, for text that
    Python or the OS words."""
    return pytest.param(shlex.split(line), files, diagnostic, id=id)


# every refusal a CLI input reaches: a new one gets its row here
REFUSALS = [
    # the argument parser (seed-classify reads the file poset); a random family's seed is
    # the last parameter of its spec, not an option
    refusal("no-verb", "", "UsageError: dehnsom: the following arguments are required: verb"),
    refusal("unknown-identity", "verify nonsense", "UsageError: dehnsom verify: argument "
            f"identity: invalid choice: 'nonsense' (choose from {CHOICES})"),
    *[refusal(id, f"{line} {extra}", f"UsageError: dehnsom {line.split()[0]}: unrecognized "
              f"arguments: {extra}", poset=AB) for id, line, extra in [
        ("unknown-option", "compute h --gen torus_7", "--bogus"),
        ("generate-json", "generate torus_7", "--json"),
        ("bad-seed", "verify ds --gen torus_7", "--seed x"),
        ("seed-compute", "compute f --gen random_pure_complex(3,8,0.4)", "--seed 5"),
        ("seed-classify", "classify poset", "--seed 5"),
        ("seed-verify", "verify all", "--seed 5"),
        ("seed-generate", "generate random_pure_complex(3,8,0.4)", "--seed 5")]],
    refusal("missing-file", "compute h missing", "OSError: [Errno 2] ..."),
    # -o PATH is opened before any report is printed
    *[refusal(f"unwritable-out{id}", f"verify ds --gen torus_7{flag} -o nodir/x.json",
              "OSError: [Errno 2] ...") for id, flag in [("", ""), ("-json", " --json")]],
    # which input: a file or --gen SPEC, and its kind
    refusal("file-with-gen", "compute h --gen torus_7 /nonexistent",
            "ParseError: give a file path or --gen SPEC, not both"),
    refusal("file-with-empty-gen", "compute h --gen '' poset",
            "ParseError: give a file path or --gen SPEC, not both", poset=AB),
    refusal("colors-with-catalog", "verify all --colors poset",
            "ParseError: provide a file path or --gen SPEC", poset=AB),
    refusal("f-on-poset", "compute f --gen polygon_lattice(5)",
            "ParseError: compute f needs a complex or balanced input, got a poset"),
    refusal("flag-on-complex", "compute flag --gen torus_7", "ParseError: compute flag needs a "
            "balanced or poset input, got a complex (give --colors)"),
    refusal("defect-on-complex", "compute defect --gen torus_7",
            "ParseError: compute defect needs a poset input, got a complex"),
    refusal("flag-ds-without-colors", "verify flag-ds c4", "ParseError: flag-ds needs a balanced "
            "or poset input, got a complex (give --colors)", c4=C4),
    refusal("check-with-complex", "classify --gen torus_7 --check",
            "ParseError: --check needs a poset input, got a complex"),
    refusal("colors-on-poset", "compute toric --gen=polygon_lattice(5) --colors missing",
            "ParseError: --colors needs a complex input, got a poset"),
    refusal("colors-on-balanced", "compute toric c4 --colors missing",
            "ParseError: --colors needs a complex input, got a balanced",
            c4=f"colors: {C4_COLORS}\n{C4}"),
    *[refusal(f"utf8-{id}", "verify all input", "ParseError: input: 'utf-8' codec can't "
              "decode ...", input=text) for id, text in [
        ("facets", b"0 1\n1 \xff\n"), ("poset", b'{"elements": ["\xff"], "covers": []}')]],
    refusal("utf8-colors", "verify all input --colors colors",
            "ParseError: colors: 'utf-8' codec can't decode ...", input=C4,
            colors=C4_COLORS.encode() + b" \xff\n"),
    # facet files and colors; "0=2" alone would leave a proper coloring
    refusal("no-facets", "compute f input", "ParseError: no facets found", input="# none\n"),
    refusal("impure-ds", "verify ds input", "NotPure: the identity assumes a pure complex",
            input="0 1 2\n2 3\n"),
    refusal("impure-classify", "classify input",
            "NotPure: face errors are defined for pure complexes", input="0 1 2\n2 3\n"),
    refusal("impure-balanced", "verify flag-ds input",
            "NotPure: balanced complexes are pure by definition",
            input="colors: 0=1 1=2 2=3 3=1\n0 1 2\n2 3\n"),
    refusal("colored-twice-header", "verify flag-ds c4", "ParseError: label 0 is colored twice",
            c4=f"colors: 0=2 {C4_COLORS}\n{C4}"),
    refusal("colored-twice-option", "verify flag-ds c4 --colors colors",
            "ParseError: label 0 is colored twice", c4=C4, colors=f"0=2 {C4_COLORS}\n"),
    refusal("duplicate-header", "verify flag-ds c4", "ParseError: duplicate colors: header",
            c4=f"colors: 0=1 1=2\ncolors: 2=1 3=2\n{C4}"),
    refusal("bad-color-assignment", "verify flag-ds c4", "ParseError: bad color assignment '0'",
            c4=f"colors: 0 1=2 2=1 3=2\n{C4}"),
    refusal("bad-color", "verify flag-ds c4", "ParseError: bad color in '0=x'",
            c4=f"colors: 0=x 1=2 2=1 3=2\n{C4}"),
    refusal("uncolored-vertex", "verify flag-ds c4 --colors colors",
            "NotBalanced: vertices without a color: [3]", c4=C4, colors="0=1 1=2 2=1\n"),
    refusal("colors-outside-1-to-d", "verify flag-ds path --colors colors",
            "NotBalanced: colors outside 1..2 at [2]", path="0 1\n1 2\n", colors="0=1 1=2 2=3\n"),
    refusal("repeated-color", "verify flag-ds c4 --colors colors",
            "NotBalanced: face {0, 1} repeats a color", c4=C4, colors="0=1 1=1 2=2 3=2\n"),
    # poset files
    refusal("bad-poset-json", "classify p", "ParseError: bad poset JSON: ...", p="{not json"),
    refusal("poset-too-deep", "classify p", "ParseError: bad poset JSON: ...",
            p='{"elements": ' + "[" * 200_000 + "]" * 200_000 + ', "covers": []}'),
    refusal("poset-missing-key", "classify p", "ParseError: bad poset JSON: 'covers'",
            p='{"elements": []}'),
    refusal("poset-5000-digits", "classify p", "ParseError: bad poset JSON: Exceeds the "
            "limit (4300 digits) for integer string conversion...",
            p='{"elements": [' + "9" * 5000 + '], "covers": []}'),
    *[refusal(id, "classify p", diagnostic, p=_poset(elements, covers))
      for id, diagnostic, elements, covers in [
        ("poset-not-lists", "ParseError: bad poset JSON: elements and covers must be lists",
         "ab", []),
        ("cover-triple", "ParseError: bad poset JSON: cover ['a', 'b', 'a'] is not a pair",
         ["a", "b"], [["a", "b", "a"]]),
        ("cover-string", "ParseError: bad poset JSON: cover 'ab' is not a pair", ["a", "b"],
         ["ab"]),
        ("label-not-scalar", "ParseError: bad poset JSON: [1] is not a scalar label", [[1], [2]],
         [[[1], [2]]]),
        ("empty-poset", "NoUniqueBottom: empty element list", [], []),
        ("duplicate-labels", "ParseError: duplicate element labels", ["a", "a"], []),
        ("unknown-element", "ParseError: cover ('a', 'c') uses unknown elements", ["a", "b"],
         [["a", "c"]]),
        ("self-cover", "CycleDetected: self-cover at 'a'", ["a", "b"], [["a", "a"]]),
        ("cycle", "CycleDetected: cover relation contains a cycle", ["a", "b"],
         [["a", "b"], ["b", "a"]]),
        ("two-bottoms", "NoUniqueBottom: minimal elements: ['a', 'b']", ["a", "b", "t"],
         [["a", "t"], ["b", "t"]]),
        ("two-tops", "NoUniqueTop: maximal elements: ['x', 'y']", ["b", "x", "y"],
         [["b", "x"], ["b", "y"]]),
        ("not-graded", "NotGraded: maximal chains of lengths 2 and 3", ["0", "a", "b", "1"],
         [["0", "a"], ["a", "b"], ["b", "1"], ["0", "b"]])]],
    # generator specs: the grammar, one level past the deepest accepted, and
    # deep enough to overflow a recursive parser
    refusal("empty-gen", "verify all --gen ''",
            "ParseError: expected a name at position 0 in ''"),
    *[refusal(id, f"generate '{spec}'", f"ParseError: {message}") for id, spec, message in [
        ("bad-argument", "cycle(", "bad argument '' in 'cycle('"),
        ("unclosed-call", "cycle(3", "expected ',' or ')' at 7 in 'cycle(3'"),
        ("unterminated-list", "random_graded_poset([2,3", "unterminated list"),
        ("trailing-input", "cycle(3) trailing", "trailing input 'trailing'"),
        ("bad-boolean", "face_poset(torus_7,true(1))",
         "bad boolean at 19 in 'face_poset(torus_7,true(1))'")]],
    refusal("call-101-deep", "generate " + "cone(" * 101 + "torus_7" + ")" * 101, DEEP + "505"),
    refusal("list-101-deep", "generate random_graded_poset(" + "[" * 101 + "]" * 101 + ")",
            DEEP + "120"),
    refusal("call-1500-deep", "verify all --gen " + "suspension(" * 1500 + "torus_7" + ")" * 1500,
            DEEP + "1111"),
    # generator specs: names and parameters; a list, a built object or a
    # boolean where a number is wanted, or a layer size that is not an integer
    refusal("unknown-generator", "generate dodecahedron(12)", "UnknownGenerator: dodecahedron"),
    *[refusal(id, f"generate {spec}", f"BadParams: {message}") for id, spec, message in [
        ("parameter-count", "cycle(3,4)", "cycle takes 1..1 parameters, got 2"),
        ("complex-argument", "suspension(3)", "suspension wants a SimplicialComplex argument"),
        ("poset-argument", "dual(torus_7)", "dual wants a GradedPoset argument"),
        ("boolean-argument", "face_poset(torus_7,1)", "face_poset wants a boolean, got 1"),
        ("integer-argument", "cycle(3.5)", "cycle wants an integer, got 3.5"),
        ("number-list", "random_pure_complex(3,9,[1],1)",
         "random_pure_complex wants a number, got (1,)"),
        ("number-object", "random_pure_complex(3,9,torus_7,1)",
         "random_pure_complex wants a number, got SimplicialComplex(dim=2, f=(1, 7, 21, 14))"),
        ("number-boolean", "random_pure_complex(3,9,true,1)",
         "random_pure_complex wants a number, got True"),
        ("layer-list", "random_graded_poset(2,0.5,1)",
         "random_graded_poset wants a list of layer sizes"),
        ("layer-object", "random_graded_poset([2,torus_7],0.5,1)", RANKS),
        ("layer-nested", "random_graded_poset([[2]],0.5,1)", RANKS),
        ("layer-float", "random_graded_poset([2,1.5],0.5,1)", RANKS),
        ("layer-boolean", "random_graded_poset([2,true],0.5,1)", RANKS),
        ("no-layers", "random_graded_poset([],0.4,3)", RANKS),
        ("graded-density", "random_graded_poset([2],1.5,1)", "density must lie in [0, 1]"),
        ("pure-density", "random_pure_complex(2,5,1.5,0)", "density must lie in [0, 1]"),
        ("d-above-n", "random_pure_complex(5,3,0.5,0)", "need 1 <= d <= n"),
        ("simplex-boundary-0", "simplex_boundary(0)", "simplex_boundary needs d >= 1"),
        ("cross-polytope-0", "cross_polytope(0)", "cross_polytope needs d >= 1"),
        ("cycle-2", "cycle(2)", "cycle needs n >= 3"),
        ("boolean-lattice-13", "boolean_lattice(13)", "boolean_lattice supports 0 <= n <= 12"),
        ("chain-negative", "chain(-1)", "chain needs n >= 0"),
        ("face-poset-without-top", "face_poset(torus_7,false)",
         "face poset without a top needs a unique maximal face")]],
    refusal("polygon-lattice-2", "classify --gen polygon_lattice(2)",
            "BadParams: polygon_lattice needs n >= 3"),
    # verifiers: a rank below the least, or an unmet hypothesis
    refusal("flag-chain-0", "compute flag --gen chain(0)",
            "RangeViolation: order complex needs rank >= 1, got rank 0"),
    refusal("flag-boolean-lattice-0", "compute flag --gen boolean_lattice(0)",
            "RangeViolation: order complex needs rank >= 1, got rank 0"),
    refusal("stanley-not-eulerian", "verify stanley --gen face_poset(torus_7,true)",
            "BadArguments: the symmetry theorem needs an Eulerian poset"),
    refusal("swartz-j-1", "verify swartz --gen face_poset(suspension(torus_7),true)",
            "BadArguments: the semi-Eulerian defect formula needs min_j_sing <= 0"),
    refusal("1sing-j-3", "verify 1sing --gen face_poset(cone(torus_7),true)",
            "NotOneSing: min_j_sing = 3"),
    refusal("main-d-at-most-2j", "verify main --gen face_poset(cone(torus_7),true)",
            "RangeViolation: needs d > 2j, got d=4, j=3"),
    refusal("not-lower-eulerian",
            "verify lower-eulerian --gen dual(face_poset(suspension(torus_7),true))",
            "NotLowerEulerian: some proper lower interval is not Eulerian"),
    refusal("not-simplicial", "verify simplicial-ds --gen dual(face_poset(cross_polytope(3),true))",
            "NotSimplicial: some proper lower interval is not a Boolean lattice"),
    # saved reports
    refusal("not-json", "report r", "ParseError: not a JSON report: ...", r="not json"),
    refusal("too-deep", "report r", "ParseError: not a JSON report: ...", r="[" * 100_000),
    refusal("not-an-object", "report r", NOT_A_REPORT, r="[1,2]"),
    refusal("no-identity", "report r", NOT_A_REPORT, r='[{"rows": []}]'),
    *[refusal(f"schema-{id}", "report r", f"ParseError: a report has schema 1, got {schema!r}",
              r=_report(schema=schema)) for id, schema in [(2, 2), ("string", "1"),
                                                           ("boolean", True)]],
    refusal("row-without-rhs", "report r", "ParseError: a report row needs a string 'index', "
            "'lhs' and 'rhs': {'index': 'k=0', 'lhs': 0}", r=_report({"index": "k=0", "lhs": 0})),
    *[refusal(id, "report r", "ParseError: a report row's 'asserted' must be a boolean and its "
              f"'note' a string: {_row(0, **field)!r}", r=_report(_row(0, **field)))
      for id, field in [("asserted-string", {"asserted": "false"}),
                        ("asserted-zero", {"asserted": 0}), ("asserted-null", {"asserted": None}),
                        ("note-number", {"note": 5}), ("note-null", {"note": None})]],
    *[refusal(id, "report r", f"ParseError: report value {lhs!r} is not an integer",
              r=_report(_row(lhs)))
      for id, lhs in [("zero-denominator", "1/0"), ("not-a-number", "abc"),
                      ("exponent", "1e5000"), ("boolean", True), ("fraction-string", "1/2"),
                      ("integer-string", "3"), ("negative-fraction-string", "-4/6")]],
    *[refusal(f"{id}-{mode}", f"report r {flag}", f"ParseError: {message}", r=text)
      for id, message, text in [
        ("digit-strings", f"report value {NINES!r} is not an integer",
         _report({"index": "k=0", "lhs": NINES, "rhs": "-" + NINES})),
        ("json-ints", "report row 'k=0' has a value too long to print",
         _report({"index": "k=0", "lhs": int(NINES), "rhs": -int(NINES)}))]
      for mode, flag in [("table", ""), ("json", "--json")]],
]


def _assert_refusal(code, out, err, diagnostic):
    assert (code, out, len(err.splitlines())) == (2, "", 1), err
    diag = json.loads(err)
    error, message = diagnostic.split(": ", 1)
    assert set(diag) == {"error", "message"} and diag["error"] == error, diag
    if message.endswith("..."):
        assert diag["message"].startswith(message[:-3]), diag["message"]
    else:
        assert diag["message"] == message


@pytest.mark.parametrize("argv, files, diagnostic", REFUSALS)
def test_refusal(argv, files, diagnostic, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    code = main(argv)
    _assert_refusal(code, *capsys.readouterr(), diagnostic)


def test_error_exit_codes():
    # exit 2 through `python -m dehnsom.cli`; REFUSALS runs every refusal in-process
    r = run("verify", "ds", "--gen", "unknown_thing(3)")
    _assert_refusal(r.returncode, r.stdout, r.stderr, "UnknownGenerator: unknown_thing")


def test_verify_all_catalog_matches_golden(capsys):
    golden = REFERENCE / "catalog.json"
    assert main(["verify", "all", "--json"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_verify_all_order_complex_matches_golden(capsys):
    golden = REFERENCE / "order-complex-smoke.json"
    assert main(["verify", "all", "--json", "--gen", "face_poset(torus_7,true)"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


# README's minimum poset ranks, with the name each refusal gives; the rest take rank 0
MIN_RANK = {"flag-poset": (1, "flag-poset"), "generalized": (1, "generalized"),
            "flag-ds": (1, "order complex"), "stanley": (1, "stanley"), "1sing": (2, "1sing")}


@pytest.mark.parametrize("identity", [*IDENTITIES, "all"])
@pytest.mark.parametrize("spec", ["chain(0)", "chain(1)"])
def test_degenerate_ranks(spec, identity, capsys):
    code = main(["verify", identity, "--gen", spec, "--json"])
    out, err = capsys.readouterr()
    entry = IDENTITIES.get(identity)
    rho = int(spec[len("chain("):-1])
    least, what = MIN_RANK.get(identity, (0, identity))
    if identity == "all":
        assert code == 0
        names = [rep["identity"] for rep in json.loads(out)]
        assert names and all(MIN_RANK.get(n, (0,))[0] <= rho for n in names)
    elif "poset" not in entry.kinds:
        assert code == 2 and json.loads(err)["error"] == "ParseError"
    elif rho < least:
        assert code == 2 and json.loads(err) == {
            "error": "RangeViolation", "message": f"{what} needs rank >= {least}, got rank {rho}"}
    else:
        assert code == 0, err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: dehnsom" in capsys.readouterr().out


def test_dual_spec_on_the_command_line(capsys):
    assert main(["compute", "toric", "--gen", "dual(polygon_lattice(5))", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["h_poly"] == [1, 3, 1]


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipes_exit_2(monkeypatch):
    # stdout and stderr both closed, as by `2>&1 | head`: the report and then
    # the diagnostic fail to write, and exit 1 stays for a failed verification
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert main(["verify", "all", "--gen", "chain(1)", "--json"]) == 2


class _FailsAtFlush(io.StringIO):
    """Takes every write and fails at the flush, as a block-buffered stream on
    a full disk, or on a descriptor that cannot be written, does."""

    def __init__(self, err=errno.ENOSPC):
        super().__init__()
        self.err = err

    def flush(self):
        raise OSError(self.err, os.strerror(self.err))


@pytest.mark.parametrize("stdout, diagnostic", [
    (None, "OSError: [Errno 9] stdout is closed"),
    (_FailsAtFlush(), "OSError: [Errno 28] No space left on device")], ids=["closed", "full"])
def test_unwritable_stdout_exits_2(stdout, diagnostic, monkeypatch, capsys):
    # `>&-` leaves sys.stdout None, where print() writes nothing; a full disk
    # takes the report into the buffer and fails at the flush
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["verify", "ds", "--gen", "cycle(5)", "--json"])
    _assert_refusal(code, *capsys.readouterr(), diagnostic)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_disk_exits_2_through_the_process():
    # without PYTHONUNBUFFERED a child's stdout is block-buffered, so the
    # write fails only at the flush, not inside print()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        r = subprocess.run([sys.executable, "-m", "dehnsom.cli", "verify", "ds", "--gen",
                            "cycle(5)", "--json"], stdout=full, stderr=subprocess.PIPE,
                           text=True, env=env)
    _assert_refusal(r.returncode, "", r.stderr, "OSError: [Errno 28] No space left on device")


class _Exited(Exception):
    pass


def _run_exit_code(monkeypatch, *argv):
    """The code that ``run()``, the process entry point, gives ``os._exit``."""
    def _exit(code):
        raise _Exited(code)

    monkeypatch.setattr(os, "_exit", _exit)
    monkeypatch.setattr(sys, "argv", ["dehnsom", *argv])
    try:
        with pytest.raises(_Exited) as exc:
            run_process()
        assert not gc.isenabled()  # the request ran without the cyclic collector
    finally:
        gc.enable()
    return exc.value.args[0]


def test_run_exits_0_after_help(monkeypatch, capsys):
    # main() ends --help by SystemExit(0); the other codes are checked through
    # `python -m dehnsom.cli` by test_report_rendering and test_error_exit_codes
    assert _run_exit_code(monkeypatch, "--help") == 0
    assert "usage: dehnsom" in capsys.readouterr().out


@pytest.mark.parametrize("stderr", [None, _FailsAtFlush(errno.EBADF)], ids=["closed", "bad-fd"])
def test_run_keeps_exit_2_when_stderr_is_closed(stderr, monkeypatch, capsys):
    # `2>&-` leaves sys.stderr None, or on a descriptor that start-up opened
    # read-only; the diagnostic must not land on stdout either
    monkeypatch.setattr(sys, "stderr", stderr)
    assert _run_exit_code(monkeypatch, "verify", "ds", "--gen", "unknown(3)") == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["--help"], ["verify", "ds", "--gen", "cycle(5)", "--json"]],
                         ids=["help", "verify"])
def test_run_exits_2_once_when_stdout_fails_at_the_last_flush(argv, monkeypatch, capsys):
    # --help leaves its text in the buffer for run() to flush; a report's
    # failed flush was diagnosed by main(), so run() adds no second diagnostic
    monkeypatch.setattr(sys, "stdout", _FailsAtFlush())
    code = _run_exit_code(monkeypatch, *argv)
    _assert_refusal(code, *capsys.readouterr(), "OSError: [Errno 28] No space left on device")


@pytest.mark.parametrize("argv", [["verify", "all", "--json"],
                                  ["verify", "all", "--json", "--gen",
                                   "random_graded_poset([3,3,3,3],0.5,7)"],
                                  ["classify", "--check", "--gen", "face_poset(torus_7,true)"]],
                         ids=["catalog", "poset", "classify-check"])
def test_a_request_leaves_no_cyclic_garbage_of_dehnsom(argv, capsys):
    # run() serves its request with the collector off, which frees nothing
    # only if nothing dehnsom builds is cyclic, be it an instance or a function
    # (a closure that calls itself); main() leaves the collector as it found
    # it. The parsers are argparse's graph, cyclic by argparse's design
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        assert not gc.isenabled()
        gc.collect()
        kinds = [o if isinstance(o, types.FunctionType) else type(o) for o in gc.garbage
                 if not isinstance(o, argparse.ArgumentParser)]
        ours = sorted({k.__qualname__ for k in kinds if (k.__module__ or "").startswith("dehnsom")})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert ours == []


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_verify_out_serializes_each_report_once(tmp_path, monkeypatch, as_json, capsys):
    calls = []
    to_dict = VerificationReport.to_dict

    def counted(self):
        calls.append(self.identity)
        return to_dict(self)

    monkeypatch.setattr(VerificationReport, "to_dict", counted)
    golden = REFERENCE / "catalog.json"
    path = tmp_path / "all.json"
    assert main(["verify", "all", "-o", str(path)] + ["--json"] * as_json) == 0
    out = capsys.readouterr().out
    dicts = json.loads(golden.read_bytes())
    assert calls == [d["identity"] for d in dicts]
    # the same bytes as before: stdout is the golden, the file its indent=1 form
    assert path.read_text(encoding="utf-8") == json.dumps(dicts, indent=1)
    if as_json:
        assert out.encode() == golden.read_bytes()


# each pair of tokens names two vertices: only a canonical decimal is an int label
LOOKALIKES = [("01", "1"), ("+1", "1"), ("1_0", "10"), ("١", "1")]


@pytest.mark.parametrize("a, b", LOOKALIKES, ids=["leading-zero", "plus", "underscore",
                                                  "arabic-indic"])
def test_lookalike_labels_stay_distinct(tmp_path, a, b, capsys):
    facets = tmp_path / "facets"
    facets.write_text(f"{a} 2 3\n{b} 2 4\n", encoding="utf-8")
    assert main(["compute", "f", str(facets), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"f": [1, 5, 6, 2]}
    # a 4-cycle a-b-2-3 properly colored; merged, a and b would be one label colored twice
    balanced = tmp_path / "balanced"
    balanced.write_text(f"colors: {a}=1 {b}=2 2=1 3=2\n{a} {b}\n{b} 2\n2 3\n3 {a}\n",
                        encoding="utf-8")
    assert main(["compute", "f", str(balanced), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"f": [1, 4, 4]}


def _readme_cli_section() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_flags() -> set:
    section = _readme_cli_section().replace("python -m", "")  # the interpreter's flag, not dehnsom's
    return set(re.findall(r"(?<![\w-])(--[a-z][a-z-]*|-[a-z])\b", section))


def test_readme_cli_block_runs_in_order(tmp_path, monkeypatch, capsys):
    # later lines read the files that earlier ones write; a comment `name = value`
    # states what the line prints
    block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    ran, stated = 0, []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if not command.strip():
            continue
        argv = shlex.split(command)
        assert argv[0] == "dehnsom" and main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        ran += 1
        if " = " in comment:
            assert comment.strip() in out, line
            stated.append(comment.strip())
    assert (ran, stated) == (16, ["hhat = [1, 3, 1]"])


def test_readme_names_every_option_and_only_real_ones():
    parser, verbs = build_parser()
    options = [a.option_strings for p in (parser, *verbs.values())
               for a in p._actions if a.option_strings]
    named = _readme_cli_flags()
    assert [o for o in options if not named & set(o)] == []
    assert named - {flag for o in options for flag in o} == set()
