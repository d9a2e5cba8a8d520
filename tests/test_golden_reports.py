"""Every report of a fixed CLI corpus is byte-identical to committed digests.

Each entry of `tests/data/golden_reports.json` is one argv with the exit
status of `cli.main` and the sha256 of what it wrote to stdout and to
stderr.  The corpus is `cones`, `picard` (JSON and `--csv`), two `reduce`
and one `bridge` for every profile of `exhaustive_profiles((2, 3, 5),
dmax=6)`, with weights drawn from `random.Random(12345)`, followed by
`selftest`, `cones` on the inert d = 64 locus at p = 2^64 - 59, `profile`
and `reduce` under `--minpoly`, and usage and refusal argvs.  After those
come one `picard --stratum` per profile of the same sweep, with bitstrings
drawn from `random.Random(54321)`, and a malformed `--stratum` refusal, so
the earlier entries keep their argvs and digests.

argparse wraps its usage and help text to the terminal width, so both the
test and the generator fix COLUMNS.  When a report changes on purpose,
regenerate the file from the root of a checkout and commit it with the
change:

    PYTHONPATH=src python tests/test_golden_reports.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
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
    return argvs + EXTRA_ARGVS + _stratum_argvs()


def _stratum_argvs():
    rng = random.Random(54321)
    argvs = []
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        bits = "".join(rng.choice("01") for _ in range(profile.degree))
        argvs.append(["picard", "--profile", json.dumps(profile.as_dict()), "--stratum", bits])
    return argvs + [["picard", "--profile", INERT, "--stratum", "1x"]]


def digest(argv):
    """[argv, exit status, sha256 of stdout, sha256 of stderr] of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    return [argv, status, sha(out.getvalue()), sha(err.getvalue())]


def test_reports_match_golden_digests(monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    argvs = corpus()
    assert [entry[0] for entry in expected] == argvs, "the corpus changed: regenerate the golden file"
    differ = [entry[0] for entry in expected if digest(entry[0]) != entry]
    assert not differ, f"{len(differ)} of {len(argvs)} reports differ, first: {differ[0]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    os.environ["COLUMNS"] = COLUMNS
    entries = [digest(argv) for argv in corpus()]
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {DATA}")
