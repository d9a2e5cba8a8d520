"""Command-line front end: structured JSON reports over the library.

One report per invocation on stdout; human diagnostics, including the
`--help` text, on stderr.  Reports are byte-deterministic for a fixed argv
and seed.  Exit codes: 0 success, 2 usage/schema error, 3 invariant violation
(including Dedekind rejection), 4 internal check failure.  A failed command
exits with the `exit_status` of the HasseConesError it raised.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import selftest as selftest_mod
from .carousel import build_carousel
from .cones import cone_chain, hasse_cone, hasse_contains, min_cone, split_criterion, std_cone
from .errors import HasseConesError, InternalCheckError
from .gfpoly import MinPolySpec, ModPFactorization, profile_from_minpoly
from .hasse import (
    Weight,
    bareiss_determinant,
    determinant_identity,
    hasse_coordinates,
    hasse_lattice_index,
    hasse_matrix,
)
from .profile import SplittingProfile, parse_profile, profile_from_data
from .reduction import InMinCone, greedy_reduce, reducible_directions
from .strata import bridge_agrees, fibre_degree, open_sweep, torsion_summary

SCHEMA_VERSION = "1"
MAX_SWEEP_DEGREE = 12
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
    if args.profile and args.minpoly:
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
        if not isinstance(data, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in data):
            raise UsageError(f"{flag} must be an array of integers")
        return data
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"{flag} must be a JSON array or comma-separated integers") from exc


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
    det = bareiss_determinant(matrix)
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


def _picard_row(stratum: str, dimension: int, invariant_factors, torsion_orders, group_order, within_bound) -> dict:
    """One row of a `picard` report; the row owns its lists."""
    return {
        "stratum": stratum,
        "dimension": dimension,
        "invariant_factors": list(invariant_factors),
        "torsion_orders": list(torsion_orders),
        "group_order": group_order,
        "divisibility": "pass" if within_bound else "fail",
    }


def _cmd_picard(args, c, fact) -> dict:
    bits = args.stratum
    if bits is not None:
        if not bits or bits.strip("01"):
            raise UsageError(f"--stratum: stratum bitstring must be nonempty over 0/1, got {bits!r}")
        if len(bits) != c.d:
            raise UsageError(f"--stratum has length {len(bits)}, profile degree is {c.d}")
        strata = [(bits, bits.count("1"), torsion_summary(c, bits))]
    elif c.d > MAX_SWEEP_DEGREE:
        raise UsageError(f"degree {c.d} > {MAX_SWEEP_DEGREE}: pass --stratum to pick one of the 2^d strata")
    else:
        # one torsion summary per class of per-locus parities
        strata = open_sweep(c)
    rows = [_picard_row(text, c.d - size, *torsion) for text, size, torsion in strata]
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
    if not (0 <= args.tau < c.d):
        raise UsageError(f"--tau must be in [0, {c.d})")
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
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, profile_flags=True):
        if profile_flags:
            sp.add_argument("--profile", help="inline JSON profile or @path to a file")
            sp.add_argument("--minpoly", help="monic integer polynomial, ascending coefficients")
            sp.add_argument("--p", type=int, help="prime for --minpoly")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized factorization steps")
        sp.add_argument("--csv", action="store_true", help="emit tabular payloads as RFC-4180 CSV")

    sp = sub.add_parser("profile", help="echo a profile with its embedding carousel")
    common(sp)

    sp = sub.add_parser("cones", help="cone representations, chain and split checks")
    common(sp)

    sp = sub.add_parser("reduce", help="Hasse coordinates and greedy reduction of a weight")
    common(sp)
    sp.add_argument("--weight", help="integer weight vector in canonical embedding order")

    sp = sub.add_parser("picard", help="stratum relation quotients and torsion orders")
    common(sp)
    sp.add_argument("--stratum", help="bitstring over the canonical order, e.g. 10")

    sp = sub.add_parser("bridge", help="fibre degree vs reducibility for one direction")
    common(sp)
    sp.add_argument("--weight", help="integer weight vector in canonical embedding order")
    sp.add_argument("--tau", type=int, help="canonical index of the embedding")
    sp.add_argument("--r", type=int, help="power of p for the fibre degree")

    sp = sub.add_parser("selftest", help="run the embedded invariant suite")
    common(sp, profile_flags=False)
    sp.add_argument("--panel", help="JSON array of profile objects overriding the default panel")
    sp.add_argument(
        "--debug-bad-hasse",
        action="store_true",
        help="negative control: corrupt the Hasse matrix sign so checks must fail",
    )

    return parser


def _csv_payload(subcommand: str, payload: dict) -> str | None:
    if subcommand != "picard":
        return None
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
    """run, plus the parsed --csv flag (False when the argv does not parse)."""
    parser = _build_parser()
    try:
        # stdout carries only the report, so argparse's --help goes to stderr
        with contextlib.redirect_stdout(sys.stderr):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return {"schema_version": SCHEMA_VERSION, "error": "usage", "exit_status": 2}, int(exc.code or 2), False

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
        }, status, args.csv

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command_echo,
        "payload": payload,
        "exit_status": status,
    }
    return report, status, args.csv


def _json_text(value, pad: str = "") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) prints it, nested at indent pad.

    Reports hold dicts with str keys, lists, tuples, str, int, bool and None.
    Anything else, such as a float, a Fraction or an int key, raises
    TypeError instead of printing text json.dumps might print differently.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = sep.join([encode_basestring_ascii(key) + ": " + _json_text(value[key], inner) for key in sorted(value)])
        return "{\n" + inner + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(item) is int for item in value):
            items = sep.join(map(int.__repr__, value))
        else:
            items = sep.join([_json_text(item, inner) for item in value])
        return "[\n" + inner + items + "\n" + pad + "]"
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def render(report: dict, args_csv: bool) -> str:
    subcommand = report.get("command", {}).get("subcommand")
    if args_csv and "payload" in report:
        table = _csv_payload(subcommand, report["payload"])
        if table is not None:
            return table
    return _json_text(report) + "\n"


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    report, status, wants_csv = _run(argv)
    sys.stdout.write(render(report, wants_csv))
    return status


if __name__ == "__main__":
    sys.exit(main())
