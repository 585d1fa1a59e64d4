import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dehnsom.cli import build_parser, main
from dehnsom.reports import VerificationReport
from dehnsom.suite import IDENTITIES

CLI = [sys.executable, "-m", "dehnsom.cli"]


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=full_env)


def test_verify_ds_torus_exit_zero():
    r = run("verify", "ds", "--gen", "torus_7")
    assert r.returncode == 0
    assert "h=[1, 4, 10, -1]" in r.stdout
    assert "PASS" in r.stdout


def test_verify_json_output():
    r = run("verify", "ds", "--gen", "torus_7", "--json")
    data = json.loads(r.stdout)
    assert data[0]["schema"] == 1
    assert data[0]["pass"] is True
    assert {"index", "lhs", "rhs", "residual", "asserted"} <= set(data[0]["rows"][0])


def test_compute_toric_polygon():
    r = run("compute", "toric", "--gen", "polygon_lattice(5)", "--json")
    data = json.loads(r.stdout)
    assert data["h_poly"] == [1, 3, 1]


def test_compute_toric_boolean_lattice_ten():
    r = run("compute", "toric", "--gen", "boolean_lattice(10)", "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["h_poly"] == [1] * 10


def test_verify_main_default_top_spec():
    r = run("verify", "main", "--gen", "face_poset(suspension(torus_7))")
    assert r.returncode == 0
    assert "outside theorem range" in r.stdout


def test_classify_complex_and_poset():
    r = run("classify", "--gen", "torus_7", "--json")
    data = json.loads(r.stdout)
    assert data["semi_eulerian"] is True and data["min_singular_j"] == 0
    r = run("classify", "--gen", "face_poset(torus_7,true)", "--check", "--json")
    data = json.loads(r.stdout)
    assert data["min_j_sing"] == 0 and data["simplicial"] is True


def test_generate_round_trip(tmp_path):
    path = tmp_path / "torus.facets"
    r = run("generate", "circle_join(4,torus_7)", "-o", str(path))
    assert r.returncode == 0
    r = run("verify", "ds", str(path))
    assert r.returncode == 0
    # canonical round trip: serialize(parse(serialize(X))) == serialize(X)
    text = path.read_text()
    r = run("generate", "circle_join(4,torus_7)")
    assert r.stdout == text


def test_generate_poset_round_trip(tmp_path):
    path = tmp_path / "poset.json"
    run("generate", "face_poset(rp2_6,true)", "-o", str(path))
    r = run("verify", "simplicial-ds", str(path))
    assert r.returncode == 0
    r = run("verify", "all", str(path))
    assert r.returncode == 0
    r = run("verify", "all", "--json", str(path))
    assert r.returncode == 0 and all(rep["pass"] for rep in json.loads(r.stdout))


def test_balanced_file_input(tmp_path):
    path = tmp_path / "c4.bal"
    path.write_text("colors: 0=1 1=2 2=1 3=2\n0 1\n1 2\n2 3\n0 3\n")
    r = run("verify", "flag-ds", str(path))
    assert r.returncode == 0


def test_flag_ds_from_poset_spec():
    r = run("verify", "flag-ds", "--gen", "boolean_lattice(3)")
    assert r.returncode == 0


def test_report_rendering(tmp_path):
    out = tmp_path / "report.json"
    run("verify", "swartz", "--gen", "face_poset(torus_7,true)", "-o", str(out))
    r = run("report", str(out))
    assert r.returncode == 0 and "swartz" in r.stdout

    bad = {"schema": 1, "identity": "demo", "parameters": {},
           "rows": [{"index": "k=0", "lhs": 1, "rhs": 0, "asserted": True}],
           "pass": False}
    out.write_text(json.dumps(bad))
    r = run("report", str(out))
    assert r.returncode == 1 and "FAIL" in r.stdout


def test_report_json_round_trip(tmp_path, capsys):
    # a saved file reads back as the bytes `verify --json` prints for the same input
    out = tmp_path / "report.json"
    for argv in (["swartz", "--gen", "face_poset(torus_7,true)"], ["all"]):  # all: the catalog
        assert main(["verify", *argv, "--json"]) == 0
        printed = capsys.readouterr().out
        assert main(["verify", *argv, "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out), "--json"]) == 0
        assert capsys.readouterr().out == printed


def _row_report(lhs, **fields):
    return json.dumps({"identity": "demo",
                       "rows": [{"index": "k=0", "lhs": lhs, "rhs": 0, **fields}]})


def _schema_report(schema):
    return json.dumps({"schema": schema, "identity": "demo", "rows": []})


@pytest.mark.parametrize("text", [
    "not json",
    '[{"rows": []}]',
    _row_report("1/0"),
    _row_report("abc"),
    _row_report("1e5000"),
    _row_report(True),
    _row_report("1/2"),
    _row_report("3"),
    _row_report("-4/6"),
    "[1,2]",
    "[" * 100_000,
    _row_report(0, asserted="false"),
    _row_report(0, asserted=0),
    _row_report(0, asserted=None),
    _row_report(0, note=5),
    _row_report(0, note=None),
    _schema_report(2),
    _schema_report("1"),
    _schema_report(True),
], ids=["not-json", "no-identity", "zero-denominator", "not-a-number", "exponent",
        "boolean", "fraction-string", "integer-string", "negative-fraction-string",
        "not-an-object", "too-deep", "asserted-string", "asserted-zero",
        "asserted-null", "note-number", "note-null", "schema-2", "schema-string",
        "schema-boolean"])
def test_report_malformed_input_is_parse_error(tmp_path, text, capsys):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ParseError"


def test_deeply_nested_poset_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"elements": ' + "[" * 200_000 + "]" * 200_000 + ', "covers": []}')
    assert main(["classify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("target, colors", [
    (b"0 1\n1 \xff\n", None),
    (b'{"elements": ["\xff"], "covers": []}', None),
    (b"0 1\n1 2\n2 3\n0 3\n", b"0=1 1=2 2=1 3=2 \xff\n"),
], ids=["facets", "poset", "colors"])
def test_non_utf8_input_is_parse_error(tmp_path, capsys, target, colors):
    argv = ["verify", "all", str(tmp_path / "input")]
    (tmp_path / "input").write_bytes(target)
    if colors:
        (tmp_path / "colors").write_bytes(colors)
        argv += ["--colors", str(tmp_path / "colors")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    diag = json.loads(err)
    assert out == "" and diag["error"] == "ParseError" and "utf-8" in diag["message"]


def test_error_exit_codes(tmp_path):
    r = run("verify", "ds", "--gen", "unknown_thing(3)")
    assert r.returncode == 2
    diag = json.loads(r.stderr)
    assert diag["error"] == "UnknownGenerator"

    r = run("verify", "stanley", "--gen", "face_poset(torus_7,true)")
    assert r.returncode == 2  # not Eulerian: validation error

    bad = tmp_path / "bad.facets"
    bad.write_text("# nothing here\n")
    r = run("compute", "f", str(bad))
    assert r.returncode == 2

    # a comment mentioning colors: does not make a facet file balanced
    commented = tmp_path / "commented.facets"
    commented.write_text("# colors: none here\n0 1\n1 2\n2 0\n")
    r = run("compute", "f", str(commented), "--json")
    assert r.returncode == 0 and json.loads(r.stdout)["f"] == [1, 3, 3]

    for poset in ({"elements": [[1], [2]], "covers": [[[1], [2]]]},
                  {"elements": ["a", "b"], "covers": [["a", "b", "a"]]},
                  {"elements": ["a", "b"], "covers": ["ab"]}):
        path = tmp_path / "bad_poset.json"
        path.write_text(json.dumps(poset))
        r = run("classify", str(path))
        assert r.returncode == 2
        assert json.loads(r.stderr)["error"] == "ParseError"

    # nesting deep enough to overflow a recursive parser
    r = run("verify", "all", "--gen", "suspension(" * 1500 + "torus_7" + ")" * 1500)
    assert r.returncode == 2
    assert json.loads(r.stderr)["error"] == "ParseError"


def test_polygon_lattice_names_itself_in_its_error(capsys):
    assert main(["classify", "--gen", "polygon_lattice(2)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "BadParams", "message": "polygon_lattice needs n >= 3"}


@pytest.mark.parametrize("argv", [
    ["compute", "f", "--gen", "random_pure_complex(3,8,0.4)"],
    ["classify", "POSET"],
    ["verify", "all"],
    ["generate", "random_pure_complex(3,8,0.4)"],
], ids=["compute", "classify", "verify", "generate"])
def test_seed_option(tmp_path, argv, capsys):
    # a random family's seed is the last parameter of its spec; --seed is no option
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    argv = [str(poset) if a == "POSET" else a for a in argv]
    assert main(argv + ["--seed", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "UsageError",
                               "message": f"dehnsom {argv[0]}: unrecognized arguments: --seed 5"}


def test_colors_option(tmp_path):
    facets = tmp_path / "c4.facets"
    facets.write_text("0 1\n1 2\n2 3\n0 3\n")
    colors = tmp_path / "c4.colors"
    colors.write_text("0=1 1=2 2=1 3=2\n")
    r = run("verify", "flag-ds", str(facets), "--colors", str(colors))
    assert r.returncode == 0
    r = run("verify", "flag-ds", str(facets))
    assert r.returncode == 2


@pytest.mark.parametrize("source", ["header", "option"])
def test_label_colored_twice_is_parse_error(tmp_path, source, capsys):
    # the last color alone would make a proper coloring
    colors, facets = "0=2 0=1 1=2 2=1 3=2", "0 1\n1 2\n2 3\n0 3\n"
    target = tmp_path / "c4"
    argv = ["verify", "flag-ds", str(target)]
    if source == "header":
        target.write_text(f"colors: {colors}\n{facets}")
    else:
        target.write_text(facets)
        (tmp_path / "c4.colors").write_text(colors + "\n")
        argv += ["--colors", str(tmp_path / "c4.colors")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "ParseError",
                                             "message": "label 0 is colored twice"}


def test_verify_all_catalog_matches_golden(capsys):
    golden = Path(__file__).resolve().parent.parent / "bench" / "reference" / "catalog.json"
    assert main(["verify", "all", "--json"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_verify_all_order_complex_matches_golden(capsys):
    golden = (Path(__file__).resolve().parent.parent / "bench" / "reference"
              / "order-complex-smoke.json")
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


@pytest.mark.parametrize("spec", ["chain(0)", "boolean_lattice(0)"])
def test_flag_of_rank_zero_poset_is_range_violation(spec, capsys):
    assert main(["compute", "flag", "--gen", spec]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "RangeViolation",
                                    "message": "order complex needs rank >= 1, got rank 0"}


@pytest.mark.parametrize("spec", [
    "random_pure_complex(3,9,[1],1)",
    "random_pure_complex(3,9,torus_7,1)",
    "random_pure_complex(3,9,true,1)",
    "random_graded_poset([2,torus_7],0.5,1)",
    "random_graded_poset([[2]],0.5,1)",
    "random_graded_poset([2,1.5],0.5,1)",
    "random_graded_poset([2,true],0.5,1)",
])
def test_generate_wrong_parameter_type_is_bad_params(spec, capsys):
    # a list, a built object or a boolean where a number is wanted, or a
    # layer size that is not an integer
    assert main(["generate", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "BadParams"


@pytest.mark.parametrize("argv", [
    [],
    ["verify", "nonsense"],
    ["compute", "h", "--gen", "torus_7", "--bogus"],
    ["generate", "torus_7", "--json"],
    ["verify", "ds", "--gen", "torus_7", "--seed", "x"],
], ids=["no-verb", "unknown-identity", "unknown-option", "generate-json", "bad-seed"])
def test_usage_error_is_one_json_object(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "UsageError"


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: dehnsom" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["--gen=polygon_lattice(5)", "balanced"])
def test_colors_needs_a_plain_complex(tmp_path, target, capsys):
    if target == "balanced":
        target = str(tmp_path / "c4.bal")
        Path(target).write_text("colors: 0=1 1=2 2=1 3=2\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["compute", "toric", target, "--colors", str(tmp_path / "missing")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ParseError"
    assert json.loads(err)["message"].startswith("--colors needs a complex input")


@pytest.mark.parametrize("argv, message", [
    (["compute", "f", "--gen", "polygon_lattice(5)"],
     "compute f needs a complex or balanced input, got a poset"),
    (["compute", "flag", "--gen", "torus_7"],
     "compute flag needs a balanced or poset input, got a complex (give --colors)"),
    (["compute", "defect", "--gen", "torus_7"],
     "compute defect needs a poset input, got a complex"),
], ids=["f-on-poset", "flag-on-complex", "defect-on-complex"])
def test_compute_wrong_kind_is_parse_error(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "ParseError", "message": message}


def test_dual_spec_on_the_command_line(capsys):
    assert main(["compute", "toric", "--gen", "dual(polygon_lattice(5))", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["h_poly"] == [1, 3, 1]


NINES = "9" * 4300  # the most digits Python prints; lhs − rhs has one more


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
@pytest.mark.parametrize("text", [
    json.dumps({"identity": "demo", "rows": [{"index": "k=0", "lhs": NINES,
                                              "rhs": "-" + NINES}]}),
    '{"identity": "demo", "rows": [{"index": "k=0", "lhs": %s, "rhs": -%s}]}' % (NINES, NINES),
], ids=["digit-strings", "json-ints"])
def test_report_value_too_long_to_print_is_parse_error(tmp_path, text, as_json, capsys):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", str(path)] + ["--json"] * as_json) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ParseError"


@pytest.mark.parametrize("argv, message", [
    (["compute", "h", "--gen", "torus_7", "/nonexistent"],
     "give a file path or --gen SPEC, not both"),
    (["verify", "all", "--colors", "POSET"], "provide a file path or --gen SPEC"),
    (["compute", "h", "--gen", "", "POSET"], "give a file path or --gen SPEC, not both"),
    (["verify", "all", "--gen", ""], "expected a name at position 0 in ''"),
    (["classify", "--gen", "torus_7", "--check"], "--check needs a poset input, got a complex"),
], ids=["file-with-gen", "colors-with-catalog",
        "file-with-empty-gen", "empty-gen", "check-with-complex"])
def test_ignored_input_is_refused(tmp_path, argv, message, capsys):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    assert main([str(poset) if a == "POSET" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "ParseError", "message": message}


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipes_exit_2(monkeypatch):
    # stdout and stderr both closed, as by `2>&1 | head`: the report and then
    # the diagnostic fail to write, and exit 1 stays for a failed verification
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert main(["verify", "all", "--gen", "chain(1)", "--json"]) == 2


@pytest.mark.parametrize("as_json", [False, True], ids=["table", "json"])
def test_verify_out_serializes_each_report_once(tmp_path, monkeypatch, as_json, capsys):
    calls = []
    to_dict = VerificationReport.to_dict

    def counted(self):
        calls.append(self.identity)
        return to_dict(self)

    monkeypatch.setattr(VerificationReport, "to_dict", counted)
    golden = Path(__file__).resolve().parent.parent / "bench" / "reference" / "catalog.json"
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


def _readme_cli_flags() -> set:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    section = section.replace("python -m", "")  # the interpreter's flag, not dehnsom's
    return set(re.findall(r"(?<![\w-])(--[a-z][a-z-]*|-[a-z])\b", section))


def test_readme_names_every_option_and_only_real_ones():
    parser, verbs = build_parser()
    options = [a.option_strings for p in (parser, *verbs.values())
               for a in p._actions if a.option_strings]
    named = _readme_cli_flags()
    assert [o for o in options if not named & set(o)] == []
    assert named - {flag for o in options for flag in o} == set()
