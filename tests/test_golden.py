"""CLI output against recorded references, byte for byte.

`verify all --json` is held to the benchmark's reference reports under
bench/reference/, which are only read; the toric reports and `verify all` in
human form are held to the references under tests/reference/. The CLI runs
in-process.
"""

from pathlib import Path

import pytest

from dehnsom.cli import main

HERE = Path(__file__).resolve().parent
REFERENCE = HERE.parent / "bench" / "reference"
TORIC_POSETS = {"polygon5": "polygon_lattice(5)", "dual-polygon5": "dual(polygon_lattice(5))",
                "torus7": "face_poset(torus_7,true)", "b4": "boolean_lattice(4)"}


@pytest.mark.parametrize("argv, reference", [
    (["verify", "all", "--json"], "catalog.json"),
    (["verify", "all", "--json", "--gen", "face_poset(suspension(suspension(torus_7)),true)"],
     "order-complex.json"),
])
def test_verify_all_json_matches_reference(capsys, argv, reference):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (REFERENCE / reference).read_bytes()


REPORTS = {
    "verify-all-susp-torus7.txt": ["verify", "all", "--gen", "face_poset(suspension(torus_7),true)"],
    "verify-all-chain0.txt": ["verify", "all", "--gen", "chain(0)"],
    **{f"{what}-{tag}.{ext}": ["compute", what, "--gen", spec, *flag]
       for what in ("toric", "defect") for tag, spec in TORIC_POSETS.items()
       for flag, ext in (([], "txt"), (["--json"], "json"))},
}


@pytest.mark.parametrize("reference, argv", REPORTS.items(), ids=list(REPORTS))
def test_report_matches_reference(capsys, argv, reference):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (HERE / "reference" / reference).read_bytes()
