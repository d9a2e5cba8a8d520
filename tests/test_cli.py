"""End-to-end CLI behavior: reports, exit codes, CSV, determinism."""

import csv
import io
import json
import subprocess
import sys
from time import perf_counter

from hassecones import SplittingProfile, gfpoly
from hassecones.cli import main, render, run
from hassecones.profile import profile_from_data
from hassecones.selftest import MAX_PANEL_DEGREE

from helpers import profile_of

RAMIFIED = '{"p": 2, "loci": [{"e": 2, "f": 1}]}'
INERT = '{"p": 2, "loci": [{"e": 1, "f": 2}]}'
SPLIT = '{"p": 3, "loci": [{"e": 1, "f": 1}, {"e": 1, "f": 1}]}'


def _payload(argv):
    report, code = run(argv)
    assert code == 0, report
    assert report["schema_version"] == "1"
    assert report["exit_status"] == 0
    assert report["command"]["argv"] == argv
    return report["payload"]


# ---------------------------------------------------------------------------
# Worked examples from the command surface


def test_cones_report_worked_example():
    payload = _payload(["cones", "--profile", RAMIFIED])
    assert payload["min_cone"]["rays"] == [[1, 1], [1, 2]]
    assert payload["hasse_cone"]["rays"] == [[-1, 2], [1, -1]]
    assert payload["hasse_cone"]["normals"] == [[1, 1], [2, 1]]
    assert payload["determinant"] == -1
    assert payload["hasse_lattice_index"] == 1
    assert payload["chain"] == {"min_in_std": True, "std_in_hasse": True}
    assert payload["split"] == {"totally_split": False, "cones_equal": False}


def test_reduce_report_vanishing_example():
    payload = _payload(["reduce", "--profile", RAMIFIED, "--weight", "[-1,0]"])
    assert payload["hasse_coordinates"] == ["-1/1", "-2/1"]
    assert payload["in_hasse_cone"] is False
    assert payload["outcome"]["kind"] == "vanishing"
    assert payload["outcome"]["tau"] == "P0:b0:i1"
    assert payload["outcome"]["coordinate"] == "-1/1"
    assert payload["outcome"]["weight_at_detection"] == [-1, 0]
    assert payload["outcome"]["steps"] == []


def test_reduce_report_in_min_cone_example():
    payload = _payload(["reduce", "--profile", RAMIFIED, "--weight", "[0,1]"])
    assert payload["outcome"]["kind"] == "in_min_cone"
    assert payload["outcome"]["w"] == [0, 0]
    assert payload["outcome"]["a"] == [1, 1]
    assert payload["outcome"]["steps"] == ["P0:b0:i1", "P0:b0:i2"]
    assert payload["reducible_directions"] == ["P0:b0:i1"]


def test_picard_report_single_stratum():
    payload = _payload(["picard", "--profile", RAMIFIED, "--stratum", "10"])
    (row,) = payload["strata"]
    assert row["stratum"] == "10"
    assert row["dimension"] == 1
    assert row["invariant_factors"] == [1, 3]
    assert row["torsion_orders"] == [3, 3]
    assert row["group_order"] == 3
    assert row["divisibility"] == "pass"


def test_picard_full_sweep_has_all_strata():
    payload = _payload(["picard", "--profile", RAMIFIED])
    assert [row["stratum"] for row in payload["strata"]] == ["00", "01", "10", "11"]


def test_profile_report_carousel():
    payload = _payload(["profile", "--profile", INERT])
    assert payload["degree"] == 2
    assert payload["embeddings"] == ["P0:b0:i1", "P0:b1:i1"]
    assert payload["sigma"] == ["P0:b1:i1", "P0:b0:i1"]
    assert payload["multipliers"] == [2, 2]
    assert payload["totally_split"] is False
    assert payload["hasse_lattice_index"] == 3


def test_profile_report_from_minpoly():
    payload = _payload(["profile", "--minpoly", "[-1,-1,1]", "--p", "5"])
    assert payload["profile"] == {"p": 5, "loci": [{"e": 2, "f": 1}]}
    assert payload["mod_p_factorization"] == [{"coefficients": [2, 1], "multiplicity": 2}]


def test_bridge_report_worked_example():
    payload = _payload(["bridge", "--profile", INERT, "--weight", "[0,1]", "--tau", "0", "--r", "1"])
    assert payload["fibre_degree"] == -1
    assert payload["negative"] is True
    assert payload["reducible"] is True
    assert payload["multiplier"] == 2


def test_selftest_passes_on_default_panel():
    report, code = run(["selftest"])
    assert code == 0
    payload = report["payload"]
    assert payload["all_passed"] is True
    assert payload["vacuous"] is False
    assert payload["panel_size"] == 6
    names = {row["check"] for row in payload["checks"]}
    assert names == {
        "determinant_identity",
        "cone_chain",
        "split_criterion",
        "bridge_identity",
        "torsion_bound",
    }


# ---------------------------------------------------------------------------
# Profile echo and file input


def test_reports_echo_reparseable_profiles():
    commands = [
        ["profile", "--profile", SPLIT],
        ["cones", "--profile", SPLIT],
        ["reduce", "--profile", SPLIT, "--weight", "[1,2]"],
        ["picard", "--profile", SPLIT, "--stratum", "01"],
        ["profile", "--minpoly", "[1,0,1]", "--p", "5"],
    ]
    for argv in commands:
        payload = _payload(argv)
        echoed = profile_from_data(payload["profile"])
        assert isinstance(echoed, SplittingProfile)
        if "--minpoly" not in argv:
            assert echoed == profile_from_data(json.loads(argv[2]))


def test_profile_from_file(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(RAMIFIED, encoding="utf-8")
    payload = _payload(["profile", "--profile", f"@{path}"])
    assert payload["degree"] == 2


def test_weight_accepts_comma_separated_values():
    bracketed = _payload(["reduce", "--profile", RAMIFIED, "--weight", "[0,1]"])
    bare = _payload(["reduce", "--profile", RAMIFIED, "--weight", "0,1"])
    assert bracketed["outcome"] == bare["outcome"]


# ---------------------------------------------------------------------------
# CSV


def test_picard_csv_output():
    report, code = run(["picard", "--profile", RAMIFIED, "--csv"])
    assert code == 0
    text = render(report, args_csv=True)
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["stratum", "dimension", "invariant_factors", "torsion_orders", "group_order", "divisibility"]
    by_stratum = {row[0]: row for row in rows[1:]}
    assert by_stratum["10"][3] == "3 3"
    assert by_stratum["10"][5] == "pass"
    assert len(rows) == 1 + 4


def test_csv_flag_leaves_json_commands_untouched():
    report, code = run(["cones", "--profile", RAMIFIED, "--csv"])
    assert code == 0
    text = render(report, args_csv=True)
    assert json.loads(text)["payload"]["determinant"] == -1


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_2():
    cases = [
        [],
        ["unknown"],
        ["reduce", "--profile", RAMIFIED],  # missing --weight
        ["reduce", "--profile", "not json", "--weight", "[0,1]"],
        ["reduce", "--profile", RAMIFIED, "--weight", "[0,1,2]"],  # wrong length
        ["picard", "--profile", RAMIFIED, "--stratum", "101"],  # wrong length
        ["picard", "--profile", RAMIFIED, "--stratum", "1x"],  # not a bitstring
        ["bridge", "--profile", SPLIT, "--weight", "[1,1]", "--tau", "0", "--r", "1"],  # singleton
        ["bridge", "--profile", RAMIFIED, "--weight", "[1,1]", "--tau", "0", "--r", "0"],  # n does not divide
        ["profile", "--profile", RAMIFIED, "--minpoly", "[1,0,1]", "--p", "5"],  # both inputs
        ["profile"],
        ["profile", "--profile", "@/no/such/file.json"],
    ]
    for argv in cases:
        report, code = run(argv)
        assert code == 2, (argv, report)
        assert report["exit_status"] == 2


def test_invariant_errors_exit_3():
    cases = [
        ["profile", "--profile", '{"p": 4, "loci": [{"e": 2, "f": 1}]}'],
        ["profile", "--profile", '{"p": 2, "loci": [{"e": 0, "f": 1}]}'],
        ["profile", "--minpoly", "[-8,-2,-1,1]", "--p", "2"],  # Dedekind rejects
    ]
    for argv in cases:
        report, code = run(argv)
        assert code == 3, (argv, report)
        assert report["error"]["type"] in {"InvariantError", "NotPMaximal"}


def test_selftest_negative_control_exits_4():
    report, code = run(["selftest", "--debug-bad-hasse"])
    assert code == 4
    payload = report["payload"]
    assert payload["all_passed"] is False
    failed = [row for row in payload["checks"] if not row["pass"]]
    assert failed
    assert all(row["check"] == "determinant_identity" for row in failed)


def test_selftest_empty_panel_is_vacuous(capsys):
    report, code = run(["selftest", "--panel", "[]"])
    assert code == 0
    assert report["payload"]["vacuous"] is True
    assert report["payload"]["checks"] == []
    assert "vacuous" in capsys.readouterr().err


def test_selftest_panel_refuses_degree_above_cap():
    assert MAX_PANEL_DEGREE == 7
    panel = json.dumps([{"p": 2, "loci": [{"e": 2, "f": 1}]}, {"p": 3, "loci": [{"e": 1, "f": 8}]}])
    start = perf_counter()
    report, code = run(["selftest", "--panel", panel])
    assert perf_counter() - start < 1.0
    assert code == 2
    assert report["error"]["type"] == "DimensionTooLarge"
    message = report["error"]["message"]
    assert "degree 8" in message and "d <= 7" in message


def test_selftest_custom_panel():
    panel = json.dumps([{"p": 2, "loci": [{"e": 2, "f": 1}]}])
    report, code = run(["selftest", "--panel", panel])
    assert code == 0
    assert report["payload"]["panel_size"] == 1


def test_minpoly_commands_factor_once(monkeypatch):
    # every factor_mod_p call, however it is imported, starts with exactly one
    # squarefree decomposition looked up in the gfpoly namespace
    calls = []
    original = gfpoly.squarefree_decomposition

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gfpoly, "squarefree_decomposition", counting)
    payload = _payload(["profile", "--minpoly=-1,-1,1", "--p", "5"])
    assert payload["mod_p_factorization"] == [{"coefficients": [2, 1], "multiplicity": 2}]
    assert len(calls) == 1
    _payload(["reduce", "--minpoly=1,1,1", "--p", "2", "--weight", "4,1"])
    assert len(calls) == 2


def test_cones_beyond_degree_16():
    # double description used to refuse d > 16; the closed forms have no cap
    for p, pairs in ((2, [(1, 17)]), (3, [(1, 64)]), (2**61 - 1, [(1, 16), (2, 8), (4, 4), (1, 8)] + [(1, 1)] * 8)):
        payload = _payload(["cones", "--profile", json.dumps(profile_of(p, pairs).as_dict())])
        d = sum(e * f for e, f in pairs)
        assert payload["determinant"] in (payload["hasse_lattice_index"], -payload["hasse_lattice_index"])
        assert payload["chain"] == {"min_in_std": True, "std_in_hasse": True}
        assert payload["split"] == {"totally_split": False, "cones_equal": False}
        for cone in (payload["min_cone"], payload["hasse_cone"]):
            assert len(cone["rays"]) == len(cone["normals"]) == d
            for normal in cone["normals"]:
                for ray in cone["rays"]:
                    assert sum(a * r for a, r in zip(normal, ray) if a) >= 0


# ---------------------------------------------------------------------------
# Determinism


def test_reports_are_deterministic_in_process():
    for argv in (
        ["cones", "--profile", INERT],
        ["reduce", "--profile", INERT, "--weight", "[3,-2]"],
        ["selftest"],
    ):
        first = render(run(argv)[0], args_csv=False)
        second = render(run(argv)[0], args_csv=False)
        assert first == second


def test_reports_are_deterministic_across_processes():
    argv = [sys.executable, "-m", "hassecones", "reduce", "--profile", RAMIFIED, "--weight", "[5,-3]"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"}\n")


def test_main_prints_report_and_returns_status(capsys):
    status = main(["profile", "--profile", RAMIFIED])
    assert status == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["payload"]["degree"] == 2


def test_main_usage_failure_status(capsys):
    status = main(["reduce", "--profile", RAMIFIED, "--weight", "bogus"])
    assert status == 2
    capsys.readouterr()
