"""Command-line front end: structured JSON reports over the library.

One report per invocation on stdout; human diagnostics, including the
`--help` text, on stderr.  Reports are byte-deterministic for a fixed argv
and seed.  Exit codes: 0 success, 2 usage/schema error, 3 invariant violation
(including Dedekind rejection), 4 internal check failure.  A failed command
exits with the `exit_status` of the HasseConesError it raised.

A profile enters by --profile (the one document shape of `parse_profile`,
inline or @path) or by --minpoly with --p, and --p goes only with --minpoly.
A subcommand refuses every flag it does not read (--csv is `picard`'s) and
every abbreviation of a flag it does read, and the library, not this module,
refuses bad positions and strata.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import re
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import selftest as selftest_mod
from .carousel import build_carousel
from .cones import cone_chain, hasse_cone, hasse_contains, min_cone, split_criterion, std_cone
from .errors import HasseConesError, InternalCheckError, SchemaError
from .gfpoly import MinPolySpec, ModPFactorization, profile_from_minpoly
from .hasse import (
    Weight,
    cycle_determinant,
    determinant_identity,
    hasse_coordinates,
    hasse_lattice_index,
    hasse_matrix,
)
from .profile import SplittingProfile, integer_entries, parse_profile, profile_from_data
from .reduction import InMinCone, greedy_reduce, reducible_directions
from .strata import MAX_SWEEP_DEGREE, bridge_agrees, fibre_degree, open_sweep, torsion_summary

SCHEMA_VERSION = "1"
# p**r is exact, so its size grows with r without bound: at r = 10,000 the
# fibre degree already has more digits than CPython will print.
MAX_BRIDGE_POWER = 64
# Every integer `reduce` and `bridge` print stays below CPython's 4,300-digit
# limit for converting integers to text, 10**4300 > 2**14284, when weight
# entries have at most MAX_WEIGHT_BITS bits.  With p < 2**64, f <= d <= 64 and
# r <= MAX_BRIDGE_POWER the largest are the numerators of Hasse coordinates,
# (p**f - 1) y_tau = sum of at most d terms c_j k_j with c_j <= p**f, so below
# 2**(6 + 4096) max|k|, and the fibre degree, below 2 p**r max|k| <= 2**4097
# max|k|.  Any cap up to 2**10182 would do; weights, exponents a and w are far
# smaller.
MAX_WEIGHT_BITS = 10_000


class UsageError(HasseConesError):
    """Flag-level misuse detected by the CLI itself (exit status 2)."""


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _load_profile(args) -> tuple[SplittingProfile, ModPFactorization | None]:
    """The profile, with the mod-p factorization it was read from under --minpoly."""
    if args.profile and (args.minpoly or args.p is not None):
        raise UsageError("pass either --profile or --minpoly/--p, not both")
    if args.profile:
        text = args.profile
        if text.startswith("@"):
            try:
                with open(text[1:], "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, ValueError) as exc:
                raise UsageError(f"cannot read profile file {text[1:]!r}: {exc}") from exc
        return parse_profile(text), None
    if args.minpoly:
        if args.p is None:
            raise UsageError("--minpoly requires --p")
        coeffs = _parse_int_list(args.minpoly, "--minpoly")
        return profile_from_minpoly(MinPolySpec(tuple(coeffs), args.p), seed=args.seed)
    raise UsageError("a profile is required: --profile or --minpoly with --p")


def _parse_int_list(text: str, flag: str) -> list[int]:
    raw = text.strip()
    if raw.startswith("["):
        try:
            data = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"{flag} is not a valid JSON array: {exc}") from exc
        try:  # text starting with "[" that parses is a JSON array
            return list(integer_entries(data, flag))
        except SchemaError as exc:
            raise UsageError(f"{flag} must be an array of integers") from exc
    parts = raw.split(",")
    for index, part in enumerate(parts):
        # int() reads "1_0" as 10
        if part.strip() == "" or "_" in part:
            raise UsageError(f"{flag} field {index} is {part!r}: fields must be nonempty integers without '_'")
    try:
        return [_ascii_int(part) for part in parts]
    except ValueError as exc:
        raise UsageError(f"{flag} must be a JSON array or comma-separated integers") from exc


_ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")


def _ascii_int(text: str) -> int:
    """int(text) when text.strip() is [+-]?[0-9]+; ValueError otherwise.

    int() alone also reads "1_0" as 10 and any Unicode decimal digit, such as
    "٣" as 3.
    """
    if not _ASCII_INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


# argparse refuses a value its type raises ValueError on as "argument --r:
# invalid int value: '1_0'", naming the type by its __name__
_ascii_int.__name__ = "int"


def _parse_weight(text: str) -> Weight:
    coords = _parse_int_list(text, "--weight")
    for index, value in enumerate(coords):
        if value.bit_length() > MAX_WEIGHT_BITS:
            raise UsageError(
                f"--weight entry {index} has {value.bit_length()} bits; "
                f"entries are capped at {MAX_WEIGHT_BITS} bits, |k| < 2^{MAX_WEIGHT_BITS}"
            )
    return Weight(tuple(coords))


def _cmd_profile(args, c, fact) -> dict:
    profile = c.profile
    payload = {
        "profile": profile.as_dict(),
        "degree": profile.degree,
        "embeddings": list(c.labels),
        "sigma": [c.labels[j] for j in c.sigma_table],
        "multipliers": list(c.n_table),
        "totally_split": profile.is_totally_split(),
        "hasse_lattice_index": hasse_lattice_index(profile),
    }
    if fact is not None:
        payload["mod_p_factorization"] = [
            {"coefficients": list(poly), "multiplicity": mult} for poly, mult in fact.factors
        ]
    return payload


def _cmd_cones(args, c, fact) -> dict:
    profile = c.profile
    cone_min = min_cone(c)
    cone_std = std_cone(c)
    cone_hasse = hasse_cone(c)
    matrix = hasse_matrix(c)
    det = cycle_determinant(c, matrix)
    expected = hasse_lattice_index(profile)
    if not determinant_identity(profile, det):
        raise InternalCheckError(f"determinant {det} does not match the locus product {expected}")
    if not split_criterion(c, cone_min, cone_hasse):
        raise InternalCheckError("split criterion and cone equality disagree")
    chain_low, chain_high = cone_chain(cone_min, cone_hasse)
    if not (chain_low and chain_high):
        raise InternalCheckError("cone chain containment failed")
    return {
        "profile": profile.as_dict(),
        "min_cone": {
            "normals": [list(row) for row in cone_min.normals],
            "rays": [list(ray) for ray in cone_min.rays],
        },
        "std_cone": {"normals": [list(row) for row in cone_std.normals]},
        "hasse_cone": {
            "rays": [list(ray) for ray in cone_hasse.rays],
            "normals": [list(row) for row in cone_hasse.normals],
        },
        "hasse_matrix": [list(row) for row in matrix],
        "determinant": det,
        "hasse_lattice_index": expected,
        "chain": {"min_in_std": chain_low, "std_in_hasse": chain_high},
        "split": {"totally_split": profile.is_totally_split(), "cones_equal": cone_min == cone_hasse},
    }


def _cmd_reduce(args, c, fact) -> dict:
    if args.weight is None:
        raise UsageError("reduce requires --weight")
    k = _parse_weight(args.weight)
    coords_exact = hasse_coordinates(c, k)
    membership = hasse_contains(c, k)
    outcome = greedy_reduce(c, k)
    payload: dict = {
        "profile": c.profile.as_dict(),
        "weight": list(k.coords),
        "hasse_coordinates": [_frac(v) for v in coords_exact],
        "in_hasse_cone": membership.member,
        "reducible_directions": [c.labels[j] for j in reducible_directions(c, k)],
    }
    if isinstance(outcome, InMinCone):
        payload["outcome"] = {
            "kind": "in_min_cone",
            "w": list(outcome.decomposition.w.coords),
            "a": list(outcome.decomposition.a),
            "steps": [c.labels[j] for j in outcome.steps],
        }
    else:
        payload["outcome"] = {
            "kind": "vanishing",
            "tau": c.labels[outcome.tau],
            "coordinate": _frac(outcome.coordinate),
            "weight_at_detection": list(outcome.weight.coords),
            "steps": [c.labels[j] for j in outcome.steps],
        }
    return payload


def _cmd_picard(args, c, fact) -> dict:
    bits, d = args.stratum, c.d
    if bits is not None:
        strata = [(bits, bits.count("1"), torsion_summary(c, bits))]
    elif d > MAX_SWEEP_DEGREE:
        raise UsageError(f"degree {d} > {MAX_SWEEP_DEGREE = }: pass --stratum to pick one of the 2^d strata")
    else:
        # one torsion summary per class of per-locus parities
        strata = open_sweep(c)
    # each row owns its lists
    rows = [
        {
            "stratum": text,
            "dimension": d - size,
            "invariant_factors": list(factors),
            "torsion_orders": list(orders),
            "group_order": order,
            "divisibility": "pass" if within_bound else "fail",
        }
        for text, size, (factors, orders, order, within_bound) in strata
    ]
    return {"profile": c.profile.as_dict(), "strata": rows}


def _cmd_bridge(args, c, fact) -> dict:
    if args.weight is None:
        raise UsageError("bridge requires --weight")
    if args.tau is None:
        raise UsageError("bridge requires --tau (canonical embedding index)")
    if args.r is None:
        raise UsageError("bridge requires --r")
    if not 0 <= args.r <= MAX_BRIDGE_POWER:
        raise UsageError(f"--r is {args.r}; the power of p must satisfy 0 <= r <= {MAX_BRIDGE_POWER}")
    k = _parse_weight(args.weight)
    j = args.tau
    degree = fibre_degree(c, k, j, args.r)
    reducible = reducible_directions(c, k)
    if not bridge_agrees(c, k, j, args.r, reducible):
        raise InternalCheckError("fibre-degree sign disagrees with reducibility")
    return {
        "profile": c.profile.as_dict(),
        "weight": list(k.coords),
        "tau": c.labels[j],
        "r": args.r,
        "multiplier": c.n_table[j],
        "fibre_degree": degree,
        "negative": degree < 0,
        "reducible": j in reducible,
    }


def _cmd_selftest(args) -> tuple[dict, int]:
    panel = None
    if args.panel is not None:
        try:
            data = json.loads(args.panel)
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"--panel is not valid JSON: {exc}") from exc
        if not isinstance(data, list):
            raise UsageError("--panel must be a JSON array of profile objects")
        panel = tuple(profile_from_data(entry) for entry in data)
    rows, all_passed, vacuous = selftest_mod.run_selftest(panel, bad_hasse=args.debug_bad_hasse)
    if vacuous:
        print("warning: empty selftest panel; vacuous pass", file=sys.stderr)
    payload = {
        "checks": rows,
        "panel_size": len(rows) // len(selftest_mod.CHECKS) if rows else 0,
        "all_passed": all_passed,
        "vacuous": vacuous,
    }
    return payload, 0 if all_passed else 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, and argparse looks up sys.stdout and
    sys.stderr when it prints, so one parser serves every invocation.
    """
    parser = argparse.ArgumentParser(
        prog="hassecones",
        description="Exact weight combinatorics of mod-p Hilbert modular forms.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--profile", help="inline JSON profile or @path to a file")
        sp.add_argument("--minpoly", help="monic integer polynomial, ascending coefficients")
        sp.add_argument("--p", type=_ascii_int, help="prime for --minpoly")
        sp.add_argument("--seed", type=_ascii_int, default=0, help="seed for randomized factorization steps")

    sp = sub.add_parser("profile", allow_abbrev=False, help="echo a profile with its embedding carousel")
    common(sp)

    sp = sub.add_parser("cones", allow_abbrev=False, help="cone representations, chain and split checks")
    common(sp)

    sp = sub.add_parser("reduce", allow_abbrev=False, help="Hasse coordinates and greedy reduction of a weight")
    common(sp)
    sp.add_argument("--weight", help="integer weight vector in canonical embedding order")

    sp = sub.add_parser("picard", allow_abbrev=False, help="stratum relation quotients and torsion orders")
    common(sp)
    sp.add_argument("--stratum", help="bitstring over the canonical order, e.g. 10")
    sp.add_argument("--csv", action="store_true", help="emit the strata as RFC-4180 CSV")

    sp = sub.add_parser("bridge", allow_abbrev=False, help="fibre degree vs reducibility for one direction")
    common(sp)
    sp.add_argument("--weight", help="integer weight vector in canonical embedding order")
    sp.add_argument("--tau", type=_ascii_int, help="canonical index of the embedding")
    sp.add_argument("--r", type=_ascii_int, help="power of p for the fibre degree")

    sp = sub.add_parser("selftest", allow_abbrev=False, help="run the embedded invariant suite")
    sp.add_argument("--seed", type=_ascii_int, default=0, help="accepted by every subcommand; selftest draws nothing")
    sp.add_argument("--panel", help="JSON array of profile objects overriding the default panel")
    sp.add_argument(
        "--debug-bad-hasse",
        action="store_true",
        help="negative control: drop the -e_tau term of the Hasse matrix so the determinant check fails",
    )

    return parser


def _csv_payload(payload: dict) -> str:
    """The strata of a `picard` payload as RFC-4180 CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["stratum", "dimension", "invariant_factors", "torsion_orders", "group_order", "divisibility"])
    for row in payload["strata"]:
        writer.writerow(
            [
                row["stratum"],
                row["dimension"],
                " ".join(str(v) for v in row["invariant_factors"]),
                " ".join(str(v) for v in row["torsion_orders"]),
                row["group_order"],
                row["divisibility"],
            ]
        )
    return buffer.getvalue()


def run(argv: list[str]) -> tuple[dict, int]:
    """Execute one invocation; returns (report, exit_code) without printing."""
    return _run(argv)[:2]


def _run(argv: list[str]) -> tuple[dict, int, bool]:
    """run, plus the parsed `picard --csv` flag (False for any other argv)."""
    parser = _build_parser()
    try:
        # stdout carries only the report, so argparse's --help goes to stderr
        with contextlib.redirect_stdout(sys.stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return {"schema_version": SCHEMA_VERSION, "error": "usage", "exit_status": 2}, int(exc.code or 2), False
    wants_csv = getattr(args, "csv", False)  # only picard has --csv

    command_echo = {"subcommand": args.subcommand, "argv": list(argv)}
    try:
        if args.subcommand == "selftest":
            payload, status = _cmd_selftest(args)
        else:
            # every other subcommand acts on one profile: each is called with
            # the flags, the carousel and the mod-p factorization the profile
            # was read from (None unless --minpoly was given)
            profile, fact = _load_profile(args)
            command = {
                "profile": _cmd_profile,
                "cones": _cmd_cones,
                "reduce": _cmd_reduce,
                "picard": _cmd_picard,
                "bridge": _cmd_bridge,
            }[args.subcommand]
            payload, status = command(args, build_carousel(profile), fact), 0
    except HasseConesError as exc:
        status = exc.exit_status
        prefix = "internal check failure" if isinstance(exc, InternalCheckError) else "error"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return {
            "schema_version": SCHEMA_VERSION,
            "command": command_echo,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_status": status,
        }, status, wants_csv

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command_echo,
        "payload": payload,
        "exit_status": status,
    }
    return report, status, wants_csv


def _json_text(value, end: str = "") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) prints it, followed by end.

    Reports hold dicts with str keys, lists, tuples, str, int, bool and None.
    Anything else, such as a float, a Fraction or an int key, raises
    TypeError instead of printing text json.dumps might print differently.

    Every piece of text is appended to one list, joined once at the end.
    `_cells` gives the text of each item of a list and of each cell of a
    table column; a table is a list of two or more dicts over one key set,
    and its rows are its cells interleaved with the key heads.  The text of a
    list of ints is built once per distinct list and indent: the memo `lists`
    maps pad to {tuple of the ints: text}, and lives for one call.
    """
    out: list[str] = []
    _write(value, "", out, {})
    out.append(end)
    return "".join(out)


_INT = {int}
_DICT = {dict}
_STR = {str}
_ARRAYS = {list, tuple}


def _write(value, pad: str, out: list, lists: dict) -> None:
    """Append the pieces of value's text, nested at indent pad, to out."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        head = "{\n" + inner
        # encode_basestring_ascii raises TypeError on a key that is not a str
        for key in sorted(value):
            out.append(head + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out, lists)
            head = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        head = "[\n" + inner
        if len(value) > 1 and set(map(type, value)) == _DICT and value[0] and _same_keys(value):
            _write_table(value, head, inner, out, lists)
        else:
            cells = _cells(value, inner, lists)
            # the head, then each cell after its separator
            pieces = [",\n" + inner] * (2 * len(cells))
            pieces[0] = head
            pieces[1::2] = cells
            out += pieces
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"a report cannot hold {kind.__name__}")


def _same_keys(rows: list) -> bool:
    keys = rows[0].keys()
    return all(map(keys.__eq__, map(dict.keys, rows)))


def _cells(values, pad: str, lists: dict) -> list[str]:
    """The text of each item of values, nested at indent pad."""
    kinds = set(map(type, values))
    if kinds == _INT:
        return list(map(int.__repr__, values))
    if kinds == _STR:
        return list(map(encode_basestring_ascii, values))
    if kinds <= _ARRAYS and set(map(type, chain.from_iterable(values))) <= _INT:
        # lists of ints: each distinct one at this indent is built once
        memo = lists.setdefault(pad, {})
        keys = list(map(tuple, values))
        sep = ",\n" + pad + "  "
        for key in set(keys).difference(memo):
            memo[key] = "[\n" + pad + "  " + sep.join(map(int.__repr__, key)) + "\n" + pad + "]" if key else "[]"
        return list(map(memo.__getitem__, keys))
    cells = []
    for value in values:
        text: list[str] = []
        _write(value, pad, text, lists)
        cells.append("".join(text))
    return cells


def _write_table(rows: list, head: str, pad: str, out: list, lists: dict) -> None:
    """Append rows, dicts over one key set nested at indent pad, after the text head.

    Each row is its key heads interleaved with its cells, and the first key
    head of a row also closes the row before it.
    """
    inner = pad + "  "
    keys = sorted(rows[0])
    # encode_basestring_ascii raises TypeError on a key that is not a str
    names = [inner + encode_basestring_ascii(key) + ": " for key in keys]
    seps = ["\n" + pad + "},\n" + pad + "{\n"] + [",\n"] * (len(keys) - 1)
    width = 2 * len(keys)
    pieces = [""] * (width * len(rows))
    for j, key in enumerate(keys):
        pieces[2 * j :: width] = [seps[j] + names[j]] * len(rows)
        pieces[2 * j + 1 :: width] = _cells(list(map(itemgetter(key), rows)), inner, lists)
    pieces[0] = head + "{\n" + names[0]
    out += pieces
    out.append("\n" + pad + "}")


def render(report: dict, args_csv: bool) -> str:
    """The report as printed: CSV for a `picard --csv` payload, JSON otherwise."""
    if args_csv and "payload" in report:
        return _csv_payload(report["payload"])
    return _json_text(report, "\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, status, wants_csv = _run(argv)
    sys.stdout.write(render(report, wants_csv))
    return status


if __name__ == "__main__":
    sys.exit(main())
