"""Every report of a fixed CLI corpus is byte-identical to committed digests.

Each entry of `tests/data/golden_reports.json` is one argv with the exit
status of `cli.main` and the sha256 of what it wrote to stdout and to
stderr.  The corpus is `cones`, `picard` (JSON and `--csv`), two `reduce`
and one `bridge` for every profile of `exhaustive_profiles((2, 3, 5),
dmax=6)`, with weights drawn from `random.Random(12345)`, followed by
`selftest`, `cones` on the inert d = 64 locus at p = 2^64 - 59, `profile`
and `reduce` under `--minpoly`, and usage and refusal argvs.  After those
come one `picard --stratum` per profile of the same sweep, with bitstrings
drawn from `random.Random(54321)`, and a malformed `--stratum` refusal, then
the comma-separated integer lists that are refused (an empty field, a field
with `_`), then integers refused for digits other than ASCII 0-9 or a `_`,
then larger `picard`, `profile` and `bridge` reports that check the report
writer, then `selftest` panels at d = 64, then the refusals of the CLI
boundary (`--csv` off `picard`, `--p` without `--minpoly`, a `minpoly`
profile document, a `--tau` outside [0, d)), then two abbreviated flags,
refused, so the earlier entries keep their argvs and digests.

A digest shows that a report did not change, not that it is right, so every
exit-0 JSON report of `cones`, full-sweep `picard` and `reduce` in the corpus
also goes through the checker of `bench/oracle.py` for its kind, which reads
the report without importing the library.  The one exception is `cones` on
the inert d = 64 locus (UNCHECKED_ARGVS), whose check alone takes about 6 s.

argparse wraps its usage and help text to the terminal width, so both the
test and the generator fix COLUMNS.  When a report changes on purpose,
regenerate the file from the root of a checkout and commit it with the
change:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys
from collections import Counter
from pathlib import Path

from hassecones import cli

from helpers import exhaustive_profiles

DATA = Path(__file__).parent / "data" / "golden_reports.json"
COLUMNS = "80"

INERT = '{"p": 2, "loci": [{"e": 1, "f": 2}]}'
RAMIFIED = '{"p": 2, "loci": [{"e": 2, "f": 1}]}'
BIG_P = 2**64 - 59
INERT_64 = json.dumps({"p": BIG_P, "loci": [{"e": 1, "f": 64}]})
DEG24 = "--minpoly=" + ",".join(str(v) for v in range(1, 25)) + ",1"

EXTRA_ARGVS = [
    ["selftest"],
    ["selftest", "--panel", '[{"p": 7, "loci": [{"e": 3, "f": 1}, {"e": 1, "f": 2}]}]'],
    ["selftest", "--debug-bad-hasse"],
    ["selftest", "--panel", "[]"],
    ["selftest", "--panel", '[{"p": 2, "loci": [{"e": 1, "f": 8}]}]'],
    ["cones", "--profile", INERT_64],
    ["cones", "--profile", json.dumps({"p": 3, "loci": [{"e": 2, "f": 4}, {"e": 3, "f": 3}]})],
    ["picard", "--profile", json.dumps({"p": 5, "loci": [{"e": 2, "f": 2}, {"e": 1, "f": 3}, {"e": 1, "f": 1}]})],
    ["picard", "--profile", json.dumps({"p": 5, "loci": [{"e": 2, "f": 2}, {"e": 1, "f": 3}, {"e": 1, "f": 1}]}), "--csv"],
    ["picard", "--profile", INERT_64, "--stratum", "10" * 32],
    ["reduce", "--profile", INERT, "--weight=-1000,2000"],
    ["reduce", "--profile", INERT, "--weight=0,1"],
    ["reduce", "--profile", INERT, "--weight", "[4,1]"],
    ["reduce", "--profile", INERT_64, "--weight=" + ",".join(["-" + "9" * 300] + ["7"] * 63)],
    ["bridge", "--profile", INERT, "--weight=5,-3", "--tau", "1", "--r", "2"],
    ["bridge", "--profile", json.dumps({"p": BIG_P, "loci": [{"e": 1, "f": 2}]}), "--weight=%s,0" % ("9" * 300), "--tau", "0", "--r", "64"],
    ["profile", "--minpoly=-1,-1,1", "--p", "5"],
    ["profile", "--minpoly=1,3,-5,1", "--p", "5"],
    ["profile", "--minpoly=8,0,-4,1", "--p", "5"],
    ["profile", DEG24, "--p", "7"],
    ["profile", DEG24, "--p", str(BIG_P)],
    ["profile", "--minpoly=2,0,0,0,1", "--p", "2", "--seed", "3"],
    ["reduce", "--minpoly=-1,-1,1", "--p", "5", "--weight=3,-1"],
    ["reduce", "--minpoly=2,0,1", "--p", "2", "--weight=1,2"],
    ["cones", "--minpoly=1,3,-5,1", "--p", "5"],
    # usage and refusals
    [],
    ["unknown"],
    ["-h"],
    ["reduce", "--profile", RAMIFIED, "--weight", "[1,2]", "--bogus"],
    ["reduce", "--profile", RAMIFIED],
    ["reduce", "--profile", "not json", "--weight", "[0,1]"],
    ["reduce", "--profile", RAMIFIED, "--weight", "[0,1,2]"],
    ["reduce", "--profile", RAMIFIED, "--weight", "[true,1]"],
    ["reduce", "--profile", INERT, "--weight=%d,0" % 2**10_000],
    ["picard", "--profile", RAMIFIED, "--stratum", "101"],
    ["picard", "--profile", json.dumps({"p": 2, "loci": [{"e": 1, "f": 13}]})],
    ["bridge", "--profile", '{"p": 3, "loci": [{"e": 1, "f": 1}, {"e": 1, "f": 1}]}', "--weight", "[1,1]", "--tau", "0", "--r", "1"],
    ["bridge", "--profile", RAMIFIED, "--weight", "[1,1]", "--tau", "0", "--r", "0"],
    ["bridge", "--profile", INERT, "--weight", "[0,1]", "--tau", "0", "--r", "65"],
    ["profile", "--profile", RAMIFIED, "--minpoly", "[1,0,1]", "--p", "5"],
    ["profile", "--minpoly=4,0,1", "--p", "2"],
    ["profile", "--minpoly=1,0,2", "--p", "5"],
    ["profile", "--profile", '{"p": 4, "loci": [{"e": 1, "f": 2}]}'],
    ["profile", "--profile", '{"p": 2, "loci": [{"e": 1, "f": 65}]}'],
    ["profile", "--profile", '{"p": 2, "loci": [{"e": 1, "f": 1}]}'],
]

# an empty field (inside, leading, trailing) or a `_` in a field exits 2
LIST_REFUSAL_ARGVS = [
    ["reduce", "--profile", INERT, "--weight=1,,2"],
    ["reduce", "--profile", INERT, "--weight=,1,2"],
    ["reduce", "--profile", INERT, "--weight=1,2,"],
    ["reduce", "--profile", INERT, "--weight=1, ,2"],
    ["reduce", "--profile", INERT, "--weight=1_0,2"],
    ["bridge", "--profile", INERT, "--weight=5,-3_0", "--tau", "1", "--r", "2"],
    ["profile", "--minpoly=-1,,-1,1", "--p", "5"],
    ["profile", "--minpoly=-1,-1,1,", "--p", "5"],
    ["profile", "--minpoly=-1,-1,1_0", "--p", "5"],
    ["reduce", "--minpoly=-1,-1,1", "--p", "5", "--weight=3,-1,"],
]

# integers that int() reads but that are not [+-]?[0-9]+ exit 2: a `_` in an
# integer flag, a full-width digit, Arabic-Indic digits in a list
ASCII_INTEGER_ARGVS = [
    ["bridge", "--profile", INERT, "--weight=0,1", "--tau", "0", "--r", "1_0"],
    ["profile", "--minpoly=-1,-1,1", "--p", "\uff15"],
    ["reduce", "--profile", INERT, "--weight=\u0663,\u0661"],
]


MIXED_6 = json.dumps({"p": 3, "loci": [{"e": 2, "f": 1}, {"e": 1, "f": 3}, {"e": 1, "f": 1}]})
MIXED_10 = json.dumps({"p": 7, "loci": [{"e": 3, "f": 1}, {"e": 1, "f": 4}, {"e": 2, "f": 1}, {"e": 1, "f": 1}]})
SPLIT_12 = json.dumps({"p": 2, "loci": [{"e": 1, "f": 1}] * 12})

# Reports are written by cli.render, not by the json module, so these check
# that writer on Python 3.10 too: the full d = 10 sweep on a large report, the
# full totally split d = 12 sweep at p = 2 its tables and int-list memo where
# each of the 4,096 strata is a parity class of its own, the single d = 64
# stratum the one-stratum path of the torsion combiner with ~1,200-digit
# orders, the single d = 10 stratum its per-block count of ones over four
# loci, and `profile` the embedding labels.
WRITER_ARGVS = [
    ["picard", "--profile", MIXED_6],
    ["picard", "--profile", MIXED_6, "--csv"],
    ["picard", "--profile", MIXED_10],
    ["picard", "--profile", MIXED_10, "--csv"],
    ["picard", "--profile", MIXED_10, "--stratum", "1101011001"],
    ["picard", "--profile", SPLIT_12],
    ["picard", "--profile", INERT_64, "--stratum", "10" * 32, "--csv"],
    ["profile", "--profile", MIXED_6],
    ["bridge", "--profile", MIXED_6, "--weight=3,-1,4,1,-5,9", "--tau", "2", "--r", "2"],
]

# selftest at the largest degree the input contract allows: inert, ramified
# and totally split at p = 2^64 - 59, and the negative control on all three
# with eight (2, 4) loci at p = 3
INERT_64_LOCI = [{"e": 1, "f": 64}]
RAMIFIED_64_LOCI = [{"e": 64, "f": 1}]
SPLIT_64_LOCI = [{"e": 1, "f": 1}] * 64
SELFTEST_64_ARGVS = [
    ["selftest", "--panel", json.dumps([{"p": BIG_P, "loci": INERT_64_LOCI}])],
    ["selftest", "--panel", json.dumps([{"p": BIG_P, "loci": RAMIFIED_64_LOCI}])],
    ["selftest", "--panel", json.dumps([{"p": BIG_P, "loci": SPLIT_64_LOCI}])],
    [
        "selftest",
        "--panel",
        json.dumps(
            [{"p": BIG_P, "loci": loci} for loci in (INERT_64_LOCI, RAMIFIED_64_LOCI, SPLIT_64_LOCI)]
            + [{"p": 3, "loci": [{"e": 2, "f": 4}] * 8}]
        ),
        "--debug-bad-hasse",
    ],
]


# each input rule of the CLI is stated once: `--csv` is a `picard` flag, `--p`
# goes only with `--minpoly`, a polynomial is not a profile document, and the
# library refuses a position outside [0, d)
BOUNDARY_ARGVS = [
    ["cones", "--profile", INERT, "--csv"],
    ["selftest", "--csv"],
    ["cones", "--profile", INERT, "--p", "5"],
    ["profile", "--profile", '{"p": 5, "minpoly": [-1, -1, 1]}'],
    ["bridge", "--profile", INERT, "--weight=0,1", "--tau", "2", "--r", "1"],
]

# no flag is abbreviated: a prefix of a flag is refused, and does not bind to
# the one flag it is a prefix of
ABBREVIATION_ARGVS = [
    ["selftest", "--p", "[]"],
    ["picard", "--profile", INERT, "--c"],
]


def _weight(rng, d, radius):
    return ",".join(str(rng.randint(-radius, radius)) for _ in range(d))


def corpus():
    rng = random.Random(12345)
    argvs = []
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        doc = json.dumps(profile.as_dict())
        d = profile.degree
        argvs += [["cones", "--profile", doc], ["picard", "--profile", doc], ["picard", "--profile", doc, "--csv"]]
        argvs.append(["reduce", "--profile", doc, "--weight=" + _weight(rng, d, 4)])
        argvs.append(["reduce", "--profile", doc, "--weight=" + _weight(rng, d, 40)])
        tau, r = rng.randrange(d), rng.randint(1, 3)
        argvs.append(["bridge", "--profile", doc, "--weight=" + _weight(rng, d, 9), "--tau", str(tau), "--r", str(r)])
    return (
        argvs
        + EXTRA_ARGVS
        + _stratum_argvs()
        + LIST_REFUSAL_ARGVS
        + ASCII_INTEGER_ARGVS
        + WRITER_ARGVS
        + SELFTEST_64_ARGVS
        + BOUNDARY_ARGVS
        + ABBREVIATION_ARGVS
    )


def _stratum_argvs():
    rng = random.Random(54321)
    argvs = []
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        bits = "".join(rng.choice("01") for _ in range(profile.degree))
        argvs.append(["picard", "--profile", json.dumps(profile.as_dict()), "--stratum", bits])
    return argvs + [["picard", "--profile", INERT, "--stratum", "1x"]]


def render(argv):
    """(exit status, stdout, stderr) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return status, out.getvalue(), err.getvalue()


def digest(argv):
    """[argv, exit status, sha256 of stdout, sha256 of stderr] of one cli.main call."""
    status, out, err = render(argv)
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    return [argv, status, sha(out), sha(err)]


def test_reports_match_golden_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    argvs = corpus()
    assert [entry[0] for entry in expected] == argvs, "the corpus changed: regenerate the golden file"
    differ = [entry[0] for entry in expected if digest(entry[0]) != entry]
    assert not differ, f"{len(differ)} of {len(argvs)} reports differ, first: {differ[0]}"


def _bench_oracle():
    """bench/oracle.py, loaded under a name of its own; it imports nothing from the library."""
    spec = importlib.util.spec_from_file_location("bench_oracle", Path(__file__).parents[1] / "bench" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _flag(argv, name):
    """The value of --name in argv, given as `--name value` or `--name=value`."""
    for index, arg in enumerate(argv):
        if arg == name:
            return argv[index + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1 :]
    return None


def _argv_weight(argv):
    text = _flag(argv, "--weight")
    return json.loads(text if text.startswith("[") else f"[{text}]")


# check_cones formats the message of its ray-normal check for each of the
# 8,192 pairs of this report, failing or not, printing entries of up to 1,214
# digits: about 6 s, five times the rest of the corpus together, so the report
# is left to its digest.  Checking one argv per profile would not help, since
# this one report alone is over budget.  Empty this list once check_cones
# builds that message only on failure (ROADMAP item 14).
UNCHECKED_ARGVS = [["cones", "--profile", INERT_64]]


def test_reports_pass_the_library_free_checkers(monkeypatch):
    # `picard --stratum` and `--csv` reports are not the full sweep that
    # check_picard reads, so they are left to their digests
    monkeypatch.setenv("COLUMNS", COLUMNS)
    oracle = _bench_oracle()
    checks = {
        "cones": lambda report, s, argv: oracle.check_cones(report, s),
        "picard": lambda report, s, argv: oracle.check_picard(report, s),
        "reduce": lambda report, s, argv: oracle.check_reduce(report, s, _argv_weight(argv)),
    }
    checked = Counter()
    for argv in corpus():
        if not argv or argv[0] not in checks or "--stratum" in argv or "--csv" in argv or argv in UNCHECKED_ARGVS:
            continue
        status, out, _ = render(argv)
        if status != 0:
            continue
        report = json.loads(out)
        # a --profile argv names its shape itself; a --minpoly one only through the report
        doc = _flag(argv, "--profile")
        s = oracle.shape_of_doc(json.loads(doc) if doc else report["payload"]["profile"])
        checks[argv[0]](report, s, argv)
        checked[argv[0]] += 1
    assert all(checked[kind] for kind in checks), checked


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    os.environ["COLUMNS"] = COLUMNS
    entries = [digest(argv) for argv in corpus()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {DATA}")
