"""`verify all --json` against the benchmark's reference reports, byte for byte.

The CLI runs in-process; the reference files under bench/reference/ are only
read.
"""

from pathlib import Path

import pytest

from dehnsom.cli import main

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"


@pytest.mark.parametrize("argv, reference", [
    (["verify", "all", "--json"], "catalog.json"),
    (["verify", "all", "--json", "--gen", "face_poset(suspension(suspension(torus_7)),true)"],
     "order-complex.json"),
])
def test_verify_all_json_matches_reference(capsys, argv, reference):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (REFERENCE / reference).read_bytes()
