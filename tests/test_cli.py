"""End-to-end CLI behavior: reports, exit codes, CSV, determinism."""

import contextlib
import csv
import io
import json
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hassecones import SplittingProfile, cli, cones, errors, gfpoly, selftest
from hassecones.cli import MAX_BRIDGE_POWER, MAX_WEIGHT_BITS, UsageError, main, render, run
from hassecones.profile import profile_from_data

from helpers import profile_of

RAMIFIED = '{"p": 2, "loci": [{"e": 2, "f": 1}]}'
INERT = '{"p": 2, "loci": [{"e": 1, "f": 2}]}'
SPLIT = '{"p": 3, "loci": [{"e": 1, "f": 1}, {"e": 1, "f": 1}]}'
# CPython refuses to convert an integer of more than 4,300 digits to or from text
OVER_LIMIT = "9" * 4400
OVER_LIMIT_ARGVS = [
    ["profile", "--profile", '{"p": %s, "loci": [{"e": 1, "f": 2}]}' % OVER_LIMIT],
    ["reduce", "--profile", INERT, f"--weight=[-{OVER_LIMIT},0]"],
    ["selftest", "--panel", '[{"p": %s, "loci": [{"e": 1, "f": 2}]}]' % OVER_LIMIT],
    ["bridge", "--profile", '{"p":3,"loci":[{"e":1,"f":2}]}', "--weight=1,2", "--tau", "0", "--r", "10000"],
]
# Inputs CPython can parse whose reports it could not print: weights whose
# Hasse coordinates or fibre degree pass 4,300 digits over a large prime, and
# a total degree of 8,001 digits.
BIG_P = 2**64 - 59
BIG_INERT = json.dumps({"p": BIG_P, "loci": [{"e": 1, "f": 2}]})
UNPRINTABLE_ARGVS = [
    ["reduce", "--profile", BIG_INERT, "--weight=-%s,0" % ("9" * 4300)],
    ["bridge", "--profile", BIG_INERT, "--weight=%s,0" % ("9" * 4000), "--tau", "0", "--r", "64"],
    ["profile", "--profile", '{"p": 2, "loci": [{"e": 1%s, "f": 1%s}]}' % ("0" * 4000, "0" * 4000)],
]


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


def test_minpoly_degree_64_within_budget():
    # A random monic degree-64 polynomial over p = 2^61 - 1: with the
    # Frobenius matrix on Montgomery slots the `profile` run takes 0.22 s
    # (best of 7 in one process), with one powmod per degree it took 3.4 s
    # (shared 2-vCPU x86-64 machine, Python 3.11).
    rng = random.Random(2)
    g = [rng.randrange(-(10**6), 10**6) for _ in range(64)] + [1]
    p = 2**61 - 1
    start = perf_counter()
    report, code = run(["profile", "--minpoly=" + ",".join(map(str, g)), "--p", str(p)])
    elapsed = perf_counter() - start
    assert code == 0, report
    product = gfpoly.ONE
    for factor in report["payload"]["mod_p_factorization"]:
        for _ in range(factor["multiplicity"]):
            product = gfpoly.mul(product, tuple(factor["coefficients"]), p)
    assert product == gfpoly.normalize(g, p)
    assert elapsed < 1.5


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
    spaced = _payload(["reduce", "--profile", RAMIFIED, "--weight", " 0 , 1 "])
    assert spaced["outcome"] == bare["outcome"]


@pytest.mark.parametrize(
    "flag, text, index",
    [
        ("--weight", "1,,2", 1),
        ("--weight", ",1,2", 0),
        ("--weight", "1,2,", 2),
        ("--weight", "1, ,2", 1),
        ("--weight", "", 0),
        ("--weight", "1_0,2", 0),
        ("--minpoly", "-1,,-1,1", 1),
        ("--minpoly", "-1,-1,1,", 3),
        ("--minpoly", "-1,-1,1_0", 2),
    ],
)
def test_integer_lists_refuse_empty_and_underscored_fields(flag, text, index):
    # int() would read "1_0" as 10, and skipping an empty field would shift
    # every later entry to the wrong embedding
    if flag == "--weight":
        argv = ["reduce", "--profile", INERT, f"--weight={text}"]
    else:
        argv = ["profile", f"--minpoly={text}", "--p", "5"]
    report, code = run(argv)
    assert code == 2, report
    field = text.split(",")[index]
    assert report["error"] == {
        "type": "UsageError",
        "message": f"{flag} field {index} is {field!r}: fields must be nonempty integers without '_'",
    }


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["bridge", "--profile", INERT, "--weight=0,1", "--tau", "0", "--r", "1_0"], "--r", "1_0"),
        (["profile", "--minpoly=-1,-1,1", "--p", "\uff15"], "--p", "\uff15"),
        (["profile", "--minpoly=-1,-1,1", "--p", "5_0"], "--p", "5_0"),
        (["profile", "--minpoly=-1,-1,1", "--p", "5", "--seed", "\u0663"], "--seed", "\u0663"),
        (["bridge", "--profile", INERT, "--weight=0,1", "--tau", "\u0661", "--r", "1"], "--tau", "\u0661"),
        (["bridge", "--profile", INERT, "--weight=0,1", "--tau", "0", "--r", "x"], "--r", "x"),
    ],
)
def test_integer_flags_read_ascii_digits_only(argv, flag, value, capsys):
    # int() reads "1_0" as 10 and any Unicode decimal digit; argparse words
    # the refusal as it words one of a value int() refuses
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid int value: {value!r}\n")


@pytest.mark.parametrize("text", ["\u0663,\u0661", "3,\u0661", "\uff13,1", "3,1\u00b2"])
def test_integer_lists_read_ascii_digits_only(text):
    report, code = run(["reduce", "--profile", INERT, f"--weight={text}"])
    assert code == 2, report
    assert report["error"] == {
        "type": "UsageError",
        "message": "--weight must be a JSON array or comma-separated integers",
    }


def test_integer_flags_accept_signs_and_surrounding_space():
    assert _payload(["reduce", "--profile", INERT, "--weight= +3 , -1 "])["weight"] == [3, -1]
    assert _payload(["bridge", "--profile", INERT, "--weight=0,1", "--tau", " +1 ", "--r", " 2"])["r"] == 2


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


def test_csv_flag_is_refused_off_picard(capsys):
    # --csv is a picard flag: any other subcommand refuses it like any unknown flag
    assert main(["cones", "--profile", RAMIFIED, "--csv"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"schema_version": "1", "error": "usage", "exit_status": 2}
    assert "unrecognized arguments: --csv" in captured.err


def test_csv_is_rendered_from_the_parsed_flag(capsys):
    # only the full spelling of --csv renders CSV: the parser takes no
    # abbreviation, so a prefix is refused like any unknown flag
    assert main(["picard", "--profile", INERT, "--csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "stratum" and len(rows) == 1 + 4
    for argv in (["picard", "--profile", INERT, "--cs"], ["picard", "--profile", INERT, "--c"], ["cones", "--profile", INERT, "--c"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"schema_version": "1", "error": "usage", "exit_status": 2}
        assert f"unrecognized arguments: {argv[-1]}" in captured.err


# ---------------------------------------------------------------------------
# Flag contract: each subcommand accepts the long options it reads, and no other

PROFILE_FLAGS = {"--profile", "--minpoly", "--p", "--seed"}
ACCEPTED_FLAGS = {
    "profile": PROFILE_FLAGS,
    "cones": PROFILE_FLAGS,
    "reduce": PROFILE_FLAGS | {"--weight"},
    "picard": PROFILE_FLAGS | {"--stratum", "--csv"},
    "bridge": PROFILE_FLAGS | {"--weight", "--tau", "--r"},
    # --seed is accepted by every subcommand, and selftest draws nothing
    "selftest": {"--seed", "--panel", "--debug-bad-hasse"},
}
# a well-formed argv of each subcommand, exit 0
WELL_FORMED = {
    "profile": ["profile", "--profile", INERT],
    "cones": ["cones", "--profile", INERT],
    "reduce": ["reduce", "--profile", INERT, "--weight=0,1"],
    "picard": ["picard", "--profile", INERT],
    "bridge": ["bridge", "--profile", INERT, "--weight=0,1", "--tau", "0", "--r", "1"],
    "selftest": ["selftest"],
}


# each flag with a value well-formed for the subcommands that read it
FLAG_ARGS = {
    "--profile": ["--profile", INERT],
    "--minpoly": ["--minpoly=-1,-1,1"],
    "--p": ["--p", "5"],
    "--seed": ["--seed", "1"],
    "--weight": ["--weight=0,1"],
    "--stratum": ["--stratum", "10"],
    "--csv": ["--csv"],
    "--tau": ["--tau", "0"],
    "--r": ["--r", "1"],
    "--panel": ["--panel", "[]"],
    "--debug-bad-hasse": ["--debug-bad-hasse"],
}


@pytest.mark.parametrize("subcommand", sorted(ACCEPTED_FLAGS))
def test_each_subcommand_refuses_every_flag_it_does_not_read(subcommand, capsys):
    assert set(FLAG_ARGS) == set().union(*ACCEPTED_FLAGS.values())
    assert main([subcommand, "-h"]) == 2
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().err))
    assert listed == ACCEPTED_FLAGS[subcommand] | {"--help"}
    assert main(WELL_FORMED[subcommand]) == 0
    for flag in sorted(set(FLAG_ARGS) - ACCEPTED_FLAGS[subcommand]):
        capsys.readouterr()
        assert main(WELL_FORMED[subcommand] + FLAG_ARGS[flag]) == 2, flag
        # no flag is read as a prefix of another: selftest refuses --p 5
        # itself, not as --panel 5
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err, flag


def test_the_library_refuses_what_the_cli_passes_through():
    cases = [
        # --p goes only with --minpoly, and a polynomial is not a profile document
        (["cones", "--profile", INERT, "--p", "5"], "UsageError"),
        (["profile", "--profile", '{"p": 5, "minpoly": [-1, -1, 1]}'], "SchemaError"),
        # positions and strata are checked by the library alone
        (["bridge", "--profile", INERT, "--weight=0,1", "--tau", "2", "--r", "1"], "ForeignEmbedding"),
        (["bridge", "--profile", INERT, "--weight=0,1", "--tau", "-1", "--r", "1"], "ForeignEmbedding"),
        (["picard", "--profile", INERT, "--stratum", "1x"], "SchemaError"),
    ]
    for argv, error in cases:
        report, code = run(argv)
        assert (code, report["error"]["type"]) == (2, error), argv


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
        ["profile", "--profile", "@bad\x00path"],  # open() raises ValueError, not OSError
        ["profile", "--profile", "[" * 100_000],  # nesting beyond the recursion limit
    ] + OVER_LIMIT_ARGVS + UNPRINTABLE_ARGVS[:2]
    for argv in cases:
        report, code = run(argv)
        assert code == 2, (argv, report)
        assert report["exit_status"] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["profile", "--minpoly=-1,-1,1"], "--minpoly requires --p"),
        (["bridge", "--profile", INERT, "--weight=0,1", "--r", "1"], "bridge requires --tau (canonical embedding index)"),
        (["selftest", "--panel", "{}"], "--panel must be a JSON array of profile objects"),
    ],
)
def test_usage_refusals_name_what_is_missing(argv, message, capsys):
    report, code = run(argv)
    assert code == report["exit_status"] == 2
    assert report["error"] == {"type": "UsageError", "message": message}
    assert capsys.readouterr().err == f"error: {message}\n"


# each guard of `cones` and `bridge` with the computation under it planted
# wrong: the command must stop with exit 4 and name the failed check
PLANTED_FAULTS = [
    (["cones", "--profile", INERT], "cycle_determinant", lambda c, rows: 7, "determinant 7 does not match the locus product 3"),
    (["cones", "--profile", INERT], "split_criterion", lambda *cones: False, "split criterion and cone equality disagree"),
    (["cones", "--profile", INERT], "cone_chain", lambda *cones: (True, False), "cone chain containment failed"),
    (
        ["bridge", "--profile", INERT, "--weight=0,1", "--tau", "0", "--r", "1"],
        "bridge_agrees",
        lambda *args: False,
        "fibre-degree sign disagrees with reducibility",
    ),
]


@pytest.mark.parametrize("argv, name, planted, message", PLANTED_FAULTS, ids=[fault[1] for fault in PLANTED_FAULTS])
def test_each_command_guard_stops_a_planted_fault(argv, name, planted, message, monkeypatch, capsys):
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, name, planted)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"internal check failure: {message}\n"
    report = json.loads(captured.out)
    assert report["exit_status"] == 4
    assert report["error"] == {"type": "InternalCheckError", "message": message}


def test_bridge_power_cap_names_cap_and_value():
    assert MAX_BRIDGE_POWER == 64
    argv = ["bridge", "--profile", INERT, "--weight", "[0,1]", "--tau", "0", "--r"]
    assert run(argv + [str(MAX_BRIDGE_POWER)])[1] == 0
    report, code = run(argv + [str(MAX_BRIDGE_POWER + 1)])
    assert code == 2
    assert report["error"] == {
        "type": "UsageError",
        "message": "--r is 65; the power of p must satisfy 0 <= r <= 64",
    }


def test_bridge_refuses_a_negative_power_naming_both_bounds():
    # n_tau = 1 at the second embedding of the ramified locus, so r = 0 is allowed there
    argv = ["bridge", "--profile", RAMIFIED, "--weight", "[0,1]", "--tau", "1"]
    assert run(argv + ["--r", "0"])[1] == 0
    for r in ("-1", "-65", str(-(10**100))):
        report, code = run(argv + [f"--r={r}"])
        assert code == 2, r
        assert report["error"] == {
            "type": "UsageError",
            "message": f"--r is {r}; the power of p must satisfy 0 <= r <= 64",
        }


def test_weight_cap_names_cap_and_value():
    assert MAX_WEIGHT_BITS == 10_000
    at_cap, above = 2**MAX_WEIGHT_BITS - 1, 2**MAX_WEIGHT_BITS
    inert_64 = json.dumps({"p": BIG_P, "loci": [{"e": 1, "f": 64}]})
    zeros = ",0" * 63
    # at the cap the longest integers of each report still print
    for argv in (
        ["reduce", "--profile", inert_64, f"--weight=-{at_cap}{zeros}"],
        ["bridge", "--profile", BIG_INERT, f"--weight={at_cap},0", "--tau", "0", "--r", "64"],
    ):
        report, code = run(argv)
        assert code == 0, argv[0]
        assert json.loads(render(report, args_csv=False))["exit_status"] == 0
    for argv in (
        ["reduce", "--profile", inert_64, f"--weight=-{above}{zeros}"],
        ["bridge", "--profile", BIG_INERT, f"--weight=0,{above}", "--tau", "0", "--r", "64"],
    ):
        report, code = run(argv)
        assert code == 2, argv[0]
        assert report["error"]["type"] == "UsageError"
        message = report["error"]["message"]
        assert "10001 bits" in message and "capped at 10000 bits" in message


# The README's exit-code list, by error class.
EXIT_STATUS = {
    errors.SchemaError: 2,
    errors.ForeignEmbedding: 2,
    errors.DimensionMismatch: 2,
    errors.SingletonOrbit: 2,
    errors.MultiplierNotDividing: 2,
    errors.ReductionTooLong: 2,
    UsageError: 2,
    errors.InvariantError: 3,
    errors.NotPMaximal: 3,
    errors.InternalCheckError: 4,
}


def _error_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_every_error_class_is_listed():
    assert set(_error_classes(errors.HasseConesError)) == set(EXIT_STATUS)


@pytest.mark.parametrize("error", sorted(EXIT_STATUS, key=lambda cls: cls.__name__))
def test_run_exits_with_the_status_of_the_raised_error(error, monkeypatch, capsys):
    assert error.exit_status == EXIT_STATUS[error]

    def failing(profile):
        raise error("planted")

    monkeypatch.setattr(cli, "build_carousel", failing)
    report, code = run(["cones", "--profile", RAMIFIED])
    assert code == report["exit_status"] == EXIT_STATUS[error]
    assert report["error"] == {"type": error.__name__, "message": "planted"}
    prefix = "internal check failure" if code == 4 else "error"
    assert capsys.readouterr().err == f"{prefix}: planted\n"


def test_invariant_errors_exit_3():
    cases = [
        ["profile", "--profile", '{"p": 4, "loci": [{"e": 2, "f": 1}]}'],
        ["profile", "--profile", '{"p": 2, "loci": [{"e": 0, "f": 1}]}'],
        ["profile", "--minpoly", "[-8,-2,-1,1]", "--p", "2"],  # Dedekind rejects
        UNPRINTABLE_ARGVS[2],
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
    # dropping the -e_tau term gives |det| = prod p**f on every profile, so
    # every panel entry fails the determinant check and no other
    failed = [(row["profile"], row["check"]) for row in payload["checks"] if not row["pass"]]
    assert failed == [(profile.as_dict(), "determinant_identity") for profile in selftest.DEFAULT_PANEL]


def test_selftest_empty_panel_is_vacuous(capsys):
    report, code = run(["selftest", "--panel", "[]"])
    assert code == 0
    assert report["payload"]["vacuous"] is True
    assert report["payload"]["checks"] == []
    assert "vacuous" in capsys.readouterr().err


def test_selftest_custom_panel():
    panel = json.dumps([{"p": 2, "loci": [{"e": 2, "f": 1}]}])
    report, code = run(["selftest", "--panel", panel])
    assert code == 0
    assert report["payload"]["panel_size"] == 1


def test_minpoly_commands_factor_once(monkeypatch):
    # every factor_mod_p call, however it is imported, starts with exactly one
    # squarefree decomposition looked up in the gfpoly namespace; the memo is
    # emptied first so that no earlier test decides what is already factored
    calls = []
    original = gfpoly.squarefree_decomposition

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gfpoly, "squarefree_decomposition", counting)
    gfpoly.profile_from_minpoly.cache_clear()
    payload = _payload(["profile", "--minpoly=-1,-1,1", "--p", "5"])
    assert payload["mod_p_factorization"] == [{"coefficients": [2, 1], "multiplicity": 2}]
    assert len(calls) == 1
    # the same polynomial asked for again in one process is factored once
    _payload(["reduce", "--minpoly=-1,-1,1", "--p", "5", "--weight", "4,1"])
    assert len(calls) == 1
    _payload(["reduce", "--minpoly=1,1,1", "--p", "2", "--weight", "4,1"])
    assert len(calls) == 2


@pytest.mark.parametrize("minpoly, p", [("-1,0,1", "5"), ("1,0,0,0,1", "3"), ("2,0,0,0,1", "2")])
def test_seed_changes_no_minpoly_payload(minpoly, p, capsys):
    # the factorization draws one fixed stream, so --seed is accepted and
    # inert; the memo is emptied before each command so that each one factors
    degree = len(minpoly.split(",")) - 1
    weight = ",".join(str(j + 1) for j in range(degree))
    for command in (["profile"], ["reduce", "--weight", weight]):
        payloads = []
        for seed in (None, "0", "3", "12345"):
            argv = command + [f"--minpoly={minpoly}", "--p", p] + ([] if seed is None else ["--seed", seed])
            gfpoly.profile_from_minpoly.cache_clear()
            assert main(argv) == 0
            payloads.append(json.loads(capsys.readouterr().out)["payload"])
        assert all(payload == payloads[0] for payload in payloads), (command, minpoly, p)


def test_cones_builds_each_cone_once(monkeypatch):
    # the split check compares the cones `cones` already built, in either namespace
    calls = Counter()
    for module in (cli, cones):
        for name in ("min_cone", "std_cone", "hasse_cone"):

            def counting(c, _name=name, _build=getattr(module, name)):
                calls[_name] += 1
                return _build(c)

            monkeypatch.setattr(module, name, counting)
    for profile in (RAMIFIED, SPLIT):
        calls.clear()
        _payload(["cones", "--profile", profile])
        assert calls == {"min_cone": 1, "std_cone": 1, "hasse_cone": 1}


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
# The report writer, against json.dumps as the oracle


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2)


# Quotes, backslashes, control characters, the separators JavaScript treats as
# line ends, non-ASCII and astral characters: everything json escapes.
ESCAPES = st.text(alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u2029\ufeff\U0001f600 a{}[],:'))
# Up to 4,000 digits: CPython refuses to print an int of more than 4,300.
HUGE_INTS = st.builds(lambda digits, sign: sign * (10**digits - 7), st.integers(1, 4000), st.sampled_from((1, -1)))
REPORT_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), HUGE_INTS, st.text(), ESCAPES)
REPORT_VALUES = st.recursive(
    REPORT_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.one_of(st.text(), ESCAPES), children, max_size=6),
    ),
    max_leaves=40,
)


# Small ints repeat, so the writer's memo of int lists is hit as well as missed.
INT_LISTS = st.lists(st.one_of(st.integers(-2, 2), st.integers()), max_size=4)
TABLE_CELLS = (
    st.integers(),
    HUGE_INTS,
    st.booleans(),
    st.none(),
    st.text(),
    ESCAPES,
    INT_LISTS,
    INT_LISTS.map(tuple),
    st.one_of(INT_LISTS, INT_LISTS.map(tuple)),
    st.dictionaries(ESCAPES, st.one_of(REPORT_SCALARS, INT_LISTS), max_size=3),
    # a column of mixed kinds, written cell by cell
    st.one_of(REPORT_SCALARS, INT_LISTS, st.lists(st.booleans(), max_size=2)),
    # a table in each cell: a column of tables
    st.lists(st.fixed_dictionaries({"a": INT_LISTS, "{": st.one_of(st.integers(), ESCAPES)}), min_size=2, max_size=3),
)


@st.composite
def report_tables(draw):
    """A list of 2 to 6 dicts over one key set, one cell strategy per column.

    A column may hold one object in every row, as a report does when its
    rows share a list.
    """
    keys = draw(st.lists(ESCAPES, min_size=1, max_size=5, unique=True))
    cells = {key: draw(st.sampled_from(TABLE_CELLS)) for key in keys}
    shared = {key: draw(cells[key]) for key in keys if draw(st.booleans())}
    size = draw(st.integers(2, 6))
    return [{key: shared[key] if key in shared else draw(cells[key]) for key in keys} for _ in range(size)]


SHARED = [3, -1, 4]
# the shape of a full d = 10 `picard` sweep: 1,024 rows, two int-list columns
# in which lists repeat, and str and int columns
PICARD_ROWS = [
    {
        "stratum": format(i, "010b"),
        "dimension": 10 - bin(i).count("1"),
        "invariant_factors": [1] * (i % 3) + [2 ** (i % 5), 6 * (i % 7)],
        "torsion_orders": [i % 4 + 1] * 10,
        "group_order": 2**70 * (i % 11),
        "divisibility": "pass" if i % 13 else "fail",
    }
    for i in range(1024)
]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(REPORT_VALUES)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [[], {}, ()]})
@example([True, False, None, 0, -1, 1])
@example({"\u00e9": "\U0001f600", "": "", "\"": "\\"})
@example([10**4000 - 1, -(10**4000 - 1)])
@example({"steps": ["P0:b0:i1", "P0:b1:i1"] * 3, "one": ("\u2028",), "escapes": ["\"", "\\", "\x00", "\U0001f600", ""]})
@example([["a", "b"], ("c",), ["d", 1]])
def test_writer_prints_what_json_dumps_prints(value):
    assert cli._json_text(value) == _dumps(value)
    if isinstance(value, dict) and "command" not in value:
        assert render(value, args_csv=False) == _dumps(value) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(report_tables())
@example([{"a": 1}, {"a": 2}])
@example([{"{": [1, 2]}, {"{": (1, 2)}, {"{": []}])
@example([{"}": "{}", "a": True}, {"}": "", "a": None}])
@example([{"a": [1]}, {"a": [True]}, {"a": (1,)}])
@example([{"a": [1], "b": {"c": [1]}}, {"a": [1], "b": {"c": [[1]]}}])
@example([{"a": [[1], [True]]}, {"a": [[True], []]}])
@example([{"a": 1, "b": 2}, {"b": 3, "a": 4}])
@example([{"t": [{"a": [1], "b": 2}, {"a": [1], "b": 3}]}, {"t": [{"a": [], "b": "x"}, {"a": [1], "b": 5}]}])
@example([{"t": [{"a": [{"b": 1}, {"b": 2}]}, {"a": []}]}, {"t": [{"a": [{"b": 3}, {"b": [4]}]}, {"a": [[5]]}]}])
@example([{"a": SHARED, "b": i} for i in range(3)])
@example([{"a": SHARED, "b": [SHARED, SHARED]}, {"a": SHARED, "b": [SHARED]}])
@example(PICARD_ROWS)
def test_writer_prints_tables_as_json_dumps_prints(rows):
    assert cli._json_text(rows) == _dumps(rows)
    assert cli._json_text({"rows": rows, "again": rows}) == _dumps({"rows": rows, "again": rows})


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        {"a": 0.0},
        [1, 2, 3.0],
        Fraction(1, 2),
        {"a": [Fraction(3, 4)]},
        {1: "a"},
        {"a": 1, 2: "b"},
        {True: 1},
        {None: 1},
        {"a": {"b": {3: []}}},
        [object()],
        {"a": {1, 2}},
        [{"a": 1}, {"a": 1.5}],
        [{"a": [1]}, {"a": [2.0]}],
        [{"a": 1}, {"a": 1, 2: 0}],
        [{"a": [1]}, {"a": [1.0]}],
        [[1], [1.0]],
        [{1: 0}, {1: 1}],
        [{"a": Fraction(1, 2)}, {"a": Fraction(1, 2)}],
        [{"a": {1}}, {"a": {2}}],
        [{"a": {1: 0}}, {"a": {1: 0}}],
    ],
)
def test_writer_refuses_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_render_refuses_a_float_in_a_report():
    report, code = run(["cones", "--profile", RAMIFIED])
    report["payload"]["determinant"] = -1.0
    with pytest.raises(TypeError):
        render(report, args_csv=False)


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


def test_one_parser_serves_every_invocation(capsys):
    # The parser is built once per process; a usage error and --help before
    # two commands leave every report, stderr and status as a fresh process
    # prints them.
    cli._build_parser.cache_clear()
    argvs = [
        ["reduce", "--profile", RAMIFIED, "--weight", "[1,2]", "--bogus"],
        ["-h"],
        ["cones", "--profile", INERT],
        ["profile", "--minpoly=-1,-1,1", "--p", "5"],
    ]
    for argv in argvs:
        status = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "hassecones", *argv], capture_output=True, text=True)
        assert (out, err, status) == (fresh.stdout, fresh.stderr, fresh.returncode)


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


# ---------------------------------------------------------------------------
# Contract: any argv gives one report, a documented exit code, no traceback



def _mostly(usual, other):
    """Draws from `usual`, and from `other` about one time in eight."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 3 else usual)


PRIMES = _mostly(st.sampled_from([2, 3, 5, 7]), st.integers(-3, 12))
LOCI = st.lists(st.tuples(_mostly(st.integers(1, 3), st.just(0)), st.integers(1, 3)), min_size=1, max_size=4).filter(
    lambda pairs: sum(e * f for e, f in pairs) <= 9
)
PROFILE_DATA = st.builds(lambda p, pairs: {"p": p, "loci": [{"e": e, "f": f} for e, f in pairs]}, PRIMES, LOCI)


def _degree(data):
    return sum(locus["e"] * locus["f"] for locus in data["loci"])


PANEL = st.lists(PROFILE_DATA, max_size=2)
COMMANDS = {
    "profile": ["--profile"],
    "cones": ["--profile"],
    "reduce": ["--profile", "--weight"],
    "picard": ["--profile"],
    "bridge": ["--profile", "--weight", "--tau", "--r"],
    "selftest": ["--panel"],
}
SWITCHES = ["--csv", "--debug-bad-hasse", "-h"]


def _int_list(values):
    return values.flatmap(lambda v: st.sampled_from([json.dumps(v), ",".join(map(str, v))]))


@st.composite
def argvs(draw):
    """Mostly well-formed commands; about one token in eight is arbitrary text."""
    data = draw(PROFILE_DATA)
    d = _degree(data)
    entries = st.integers(-20, 20)
    values = {
        "--profile": st.just(json.dumps(data)),
        "--minpoly": _int_list(st.lists(entries, min_size=2, max_size=max(2, d)).map(lambda v: v + [1])),
        "--p": PRIMES.map(str),
        "--seed": st.integers(0, 5).map(str),
        "--weight": _int_list(st.lists(entries, min_size=d, max_size=d) | st.lists(entries, max_size=10)),
        "--tau": st.integers(-1, d).map(str),
        "--r": st.integers(0, 3).map(str),
        "--stratum": st.text("01", min_size=d, max_size=d) | st.text("01", max_size=10),
        "--panel": PANEL.map(json.dumps),
    }
    junk = st.text(max_size=30)
    subcommand = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [draw(_mostly(st.just(subcommand), junk))]
    names = [name for name in COMMANDS[subcommand] if draw(_mostly(st.just(True), st.just(False)))]
    names += draw(_mostly(st.just([]), st.lists(st.sampled_from(sorted(values) + SWITCHES), max_size=3)))
    for name in names:
        if name in SWITCHES:
            argv.append(name)
            continue
        value = draw(_mostly(values[name], junk))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argvs())
@example(OVER_LIMIT_ARGVS[0])
@example(OVER_LIMIT_ARGVS[1])
@example(OVER_LIMIT_ARGVS[2])
@example(OVER_LIMIT_ARGVS[3])
@example(UNPRINTABLE_ARGVS[0])
@example(UNPRINTABLE_ARGVS[1])
@example(UNPRINTABLE_ARGVS[2])
@example(["reduce", "--profile", INERT, "-h"])
@example(["picard", "--profile", INERT, "--c"])
def test_any_argv_gives_one_report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()
    text = out.getvalue()
    # ask the parser whether it read --csv
    if argv[0] == "picard" and code == 0 and cli._build_parser().parse_args(argv).csv:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][0] == "stratum" and len(rows) >= 2
    else:
        assert json.loads(text)["exit_status"] == code
