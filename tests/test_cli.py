import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dehnsom.cli import main
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


def test_report_json_round_trip(tmp_path):
    out = tmp_path / "report.json"
    run("verify", "swartz", "--gen", "face_poset(torus_7,true)", "-o", str(out))
    r = run("report", str(out), "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout) == json.loads(out.read_text())


SAVED_FRACTIONS = {"schema": 1, "identity": "ds", "parameters": {"object": "saved", "d": 2},
                   "rows": [{"index": "a", "lhs": "1/2", "rhs": "1/2"},
                            {"index": "b", "lhs": "3/1", "rhs": 3},
                            {"index": "c", "lhs": "-4/6", "rhs": 0, "asserted": False,
                             "note": "by hand"}]}


def test_report_renders_saved_fractions(tmp_path):
    # "p/q" values are read back as Fractions; fractions is imported only then
    path = tmp_path / "report.json"
    path.write_text(json.dumps(SAVED_FRACTIONS))
    r = run("report", str(path))
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == ("identity: ds\n"
                        "object=saved  d=2\n"
                        "index  lhs   rhs  residual\n"
                        "a      1/2   1/2  0         ok\n"
                        "b      3     3    0         ok\n"
                        "c      -2/3  0    -2/3      info  by hand\n"
                        "result: PASS\n\n")
    r = run("report", str(path), "--json")
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout == (
        '[{"schema": 1, "identity": "ds", "parameters": {"object": "saved", "d": 2}, '
        '"rows": [{"index": "a", "lhs": "1/2", "rhs": "1/2", "residual": 0, "asserted": true}, '
        '{"index": "b", "lhs": 3, "rhs": 3, "residual": 0, "asserted": true}, '
        '{"index": "c", "lhs": "-2/3", "rhs": 0, "residual": "-2/3", "asserted": false, '
        '"note": "by hand"}], "pass": true}]\n')


def _row_report(lhs):
    return json.dumps({"identity": "demo", "rows": [{"index": "k=0", "lhs": lhs, "rhs": 0}]})


@pytest.mark.parametrize("text", [
    "not json",
    '[{"rows": []}]',
    _row_report("1/0"),
    _row_report("abc"),
    "[1,2]",
    "[" * 100_000,
], ids=["not-json", "no-identity", "zero-denominator", "not-a-number", "not-an-object",
        "too-deep"])
def test_report_malformed_input_is_parse_error(tmp_path, text, capsys):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ParseError"


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


def test_seed_option():
    a = run("generate", "random_pure_complex(3,8,0.4)", "--seed", "5")
    b = run("generate", "random_pure_complex(3,8,0.4,5)")
    assert a.stdout == b.stdout


def test_colors_option(tmp_path):
    facets = tmp_path / "c4.facets"
    facets.write_text("0 1\n1 2\n2 3\n0 3\n")
    colors = tmp_path / "c4.colors"
    colors.write_text("0=1 1=2 2=1 3=2\n")
    r = run("verify", "flag-ds", str(facets), "--colors", str(colors))
    assert r.returncode == 0
    r = run("verify", "flag-ds", str(facets))
    assert r.returncode == 2


def test_verify_all_catalog_matches_golden(capsys):
    golden = Path(__file__).resolve().parent.parent / "bench" / "reference" / "catalog.json"
    assert main(["verify", "all", "--json"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_verify_all_order_complex_matches_golden(capsys):
    golden = (Path(__file__).resolve().parent.parent / "bench" / "reference"
              / "order-complex-smoke.json")
    assert main(["verify", "all", "--json", "--gen", "face_poset(torus_7,true)"]) == 0
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("identity", [*IDENTITIES, "all"])
@pytest.mark.parametrize("spec", ["chain(0)", "chain(1)"])
def test_degenerate_ranks(spec, identity, capsys):
    code = main(["verify", identity, "--gen", spec, "--json"])
    out, err = capsys.readouterr()
    entry = IDENTITIES.get(identity)
    rho = int(spec[len("chain("):-1])
    if identity == "all":
        assert code == 0
        names = [rep["identity"] for rep in json.loads(out)]
        assert names and all(IDENTITIES[n].min_rho <= rho for n in names)
    elif "poset" not in entry.kinds:
        assert code == 2 and json.loads(err)["error"] == "ParseError"
    elif rho < entry.min_rho:
        assert code == 2 and json.loads(err)["error"] == "RangeViolation"
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
