"""The summary arithmetic of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# order-complex wall_s of BENCH_order_complex_masks.json, seeds 901-910
PARENT = [0.5941, 0.5706, 0.5467, 0.5766, 0.5611, 0.5702, 0.575, 0.5863, 0.6002, 0.5832]
CHANGE = [0.4009, 0.3793, 0.3754, 0.3782, 0.3796, 0.3739, 0.3743, 0.3687, 0.3833, 0.3842]


def test_quartiles_use_the_exclusive_method(bp):
    assert [round(v, 4) for v in bp.quartiles(PARENT)] == [0.5758, 0.5679, 0.5883]
    assert [round(v, 4) for v in bp.quartiles(CHANGE)] == [0.3788, 0.3742, 0.3835]
    assert bp.quartiles([1, 2, 3, 4]) == [2.5, 1.25, 3.75]
    assert bp.quartiles([0.3]) == [0.3, 0.3, 0.3]


def test_better_pairs_count_strict_wins(bp):
    assert bp.better_pairs(PARENT, CHANGE, "lower") == 10
    assert bp.better_pairs(PARENT, CHANGE, "higher") == 0
    assert bp.better_pairs([1, 2, 3], [1, 1, 4], "lower") == 1
    assert bp.better_pairs([1, 2, 3], [1, 1, 4], "higher") == 1


def test_summary_and_claim(bp):
    m = bp.summarize(PARENT, CHANGE, "s", "lower")
    assert m["parent_median_q1_q3"] == [0.5758, 0.5679, 0.5883]
    assert m["change_median_q1_q3"] == [0.3788, 0.3742, 0.3835]
    assert m["change_better_pairs"] == 10 and m["parent"] == PARENT
    record = {"workloads": {"order-complex": {"metrics": {"wall_s": m}}}}
    c = bp.claim(record, "order-complex", "wall_s", "lower")
    assert c["parent_iqr"] == 0.0204
    assert c["better_pairs"] == "10/10"
    assert c["drop"] == "34.2 %"
    assert c["gap_exceeds_parent_iqr"]
    # a change inside the parent's spread does not clear the gap test
    near = [v - 0.001 for v in PARENT]
    record["workloads"]["order-complex"]["metrics"]["wall_s"] = bp.summarize(
        PARENT, near, "s", "lower")
    assert not bp.claim(record, "order-complex", "wall_s", "lower")["gap_exceeds_parent_iqr"]


def test_parse_seeds(bp):
    assert bp.parse_seeds(["1001-1003", "7"]) == [1001, 1002, 1003, 7]


def test_within_bound_on_both_sides(bp):
    # the parent's median is 0.5758; a 5 % bound allows up to 0.6046 when lower is better
    assert bp.within_bound(PARENT, CHANGE, "lower", 0.05)
    assert bp.within_bound(PARENT, [v * 1.049 for v in PARENT], "lower", 0.05)
    assert not bp.within_bound(PARENT, [v * 1.051 for v in PARENT], "lower", 0.05)
    assert bp.within_bound(PARENT, [v * 0.951 for v in PARENT], "higher", 0.05)
    assert not bp.within_bound(PARENT, [v * 0.949 for v in PARENT], "higher", 0.05)
    assert not bp.within_bound(PARENT, CHANGE, "higher", 0.25)
    assert bp.within_bound([2, 2, 2], [2.5, 2.5, 2.5], "lower", 0.25)


def test_summary_reports_the_bound(bp):
    assert "within_bound" not in bp.summarize(PARENT, CHANGE, "s", "lower")
    m = bp.summarize(PARENT, [v * 1.3 for v in PARENT], "s", "lower", 0.25)
    assert m["bound"] == 0.25 and m["within_bound"] is False
    m = bp.summarize(PARENT, CHANGE, "s", "lower", bound=0.25)
    assert m["within_bound"] is True and m["change_better_pairs"] == 10


def test_checkouts_of_unequal_path_length_are_refused(bp, tmp_path, capsys):
    argv = ["--workload", "catalog", "--seeds", "1", "--out", str(tmp_path / "out.json")]
    (tmp_path / "c1").mkdir()
    (tmp_path / "change").mkdir()
    code = bp.main(["--parent", str(tmp_path / "c1"), "--change", str(tmp_path / "change")]
                   + argv)
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "differ in path length" in err
    assert not (tmp_path / "out.json").exists()
    # paths are compared as they resolve: c1/../c2 and change12 are both 9
    # characters long as given, but c1/../c2 resolves to c2
    assert bp.main(["--parent", f"{tmp_path}/c1/../c2", "--change", f"{tmp_path}/change12"]
                   + argv) == 2
    # equal lengths pass the check and go on to read the change's BENCHMARK.json
    with pytest.raises(FileNotFoundError):
        bp.main(["--parent", str(tmp_path / "c1"), "--change", str(tmp_path / "c2")] + argv)
