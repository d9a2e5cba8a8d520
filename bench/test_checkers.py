"""Negative controls: every workload's checker rejects a corrupted report.

Run from the repository root with `python3 -m pytest bench`.  Each test
first shows that the checker accepts the genuine report, then that it
rejects each corruption with the message of the property that broke.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import workloads  # noqa: E402
from hassecones import cli  # noqa: E402
from spans import Tracer  # noqa: E402


def report(argv):
    rep, status = cli.run(argv)
    assert status == 0
    return json.loads(cli.render(rep, False))


def rejects(check, corrupted, message: str) -> None:
    with pytest.raises(oracle.CheckFailure, match=message):
        check(corrupted)


# ---------------------------------------------------------------------------
# reduce (the second half of a minpoly_session operation)


INERT = oracle.shape(2, ((1, 2),))


def reduce_report(s, k):
    # Negative entries must be attached with '=' or argparse reads a flag.
    return report(["reduce", "--profile", json.dumps(s.profile_doc()), "--weight=" + ",".join(map(str, k))])


def test_reduce_checker_accepts_genuine_reports():
    for s, k in ((INERT, (4, 1)), (INERT, (0, 1)), (INERT, (-1, 3)), (oracle.shape(3, ((2, 2), (1, 1))), (9, 1, 7, 0, 4))):
        oracle.check_reduce(reduce_report(s, k), s, k)


def test_reduce_checker_rejects_wrong_a():
    good = reduce_report(INERT, (4, 1))
    assert good["payload"]["outcome"]["kind"] == "in_min_cone"
    bad = copy.deepcopy(good)
    bad["payload"]["outcome"]["a"][0] += 1
    rejects(lambda r: oracle.check_reduce(r, INERT, (4, 1)), bad, "w != k - sum")


def test_reduce_checker_rejects_w_outside_min_cone():
    # a = 0, w = k and no steps agree with one another; only C^min breaks.
    bad = copy.deepcopy(reduce_report(INERT, (4, 1)))
    bad["payload"]["outcome"].update(a=[0, 0], w=[4, 1], steps=[])
    rejects(lambda r: oracle.check_reduce(r, INERT, (4, 1)), bad, "outside C\\^min")


def test_reduce_checker_rejects_wrong_hasse_coordinate():
    bad = copy.deepcopy(reduce_report(INERT, (4, 1)))
    bad["payload"]["hasse_coordinates"][0] = "5/3"
    rejects(lambda r: oracle.check_reduce(r, INERT, (4, 1)), bad, "M y != k")


def test_reduce_checker_rejects_wrong_vanishing_certificate():
    good = reduce_report(INERT, (-1, 3))
    assert good["payload"]["outcome"]["kind"] == "vanishing"
    bad = copy.deepcopy(good)
    bad["payload"]["outcome"]["coordinate"] = "-7/3"
    rejects(lambda r: oracle.check_reduce(r, INERT, (-1, 3)), bad, "vanishing coordinate")


# ---------------------------------------------------------------------------
# minpoly_session


def minpoly_case():
    rng = random.Random(7)
    p = workloads.random_prime(rng, 20)
    loci = ((1, 1), (1, 3), (2, 1))
    g = workloads.build_minpoly(rng, p, loci)
    head = ["--minpoly=" + ",".join(map(str, g)), "--p", str(p)]
    return g, p, loci, report(["profile"] + head)


def test_minpoly_checker_accepts_genuine_report():
    g, p, loci, rep = minpoly_case()
    oracle.check_minpoly_profile(rep, g, p, loci)


def test_minpoly_checker_rejects_wrong_locus():
    g, p, loci, rep = minpoly_case()
    bad = copy.deepcopy(rep)
    bad["payload"]["profile"]["loci"][0] = {"e": 3, "f": 1}
    rejects(lambda r: oracle.check_minpoly_profile(r, g, p, loci), bad, "multiset differs")


def test_minpoly_checker_rejects_wrong_factor():
    g, p, loci, rep = minpoly_case()
    bad = copy.deepcopy(rep)
    bad["payload"]["mod_p_factorization"][0]["coefficients"][0] = (
        bad["payload"]["mod_p_factorization"][0]["coefficients"][0] + 1
    ) % p
    rejects(lambda r: oracle.check_minpoly_profile(r, g, p, loci), bad, "multiply back")


def test_binomials_are_irreducible_by_the_order_criterion():
    # x^2 - a is irreducible mod 13 exactly for the non-squares a.
    squares = {x * x % 13 for x in range(1, 13)}
    assert [a for a in range(1, 13) if workloads.binomial_irreducible(2, a, 13)] == sorted(set(range(1, 13)) - squares)


# ---------------------------------------------------------------------------
# geometry_sweep


GEOM = oracle.shape(3, ((1, 2), (2, 1)))


def geometry_report(kind):
    return report([kind, "--profile", json.dumps(GEOM.profile_doc())])


def test_geometry_checkers_accept_genuine_reports():
    oracle.check_cones(geometry_report("cones"), GEOM)
    oracle.check_picard(geometry_report("picard"), GEOM)
    split = oracle.shape(5, ((1, 1),) * 3)
    oracle.check_cones(report(["cones", "--profile", json.dumps(split.profile_doc())]), split)


def test_picard_checker_rejects_wrong_torsion_order():
    bad = copy.deepcopy(geometry_report("picard"))
    bad["payload"]["strata"][5]["torsion_orders"][0] += 1
    rejects(lambda r: oracle.check_picard(r, GEOM), bad, "torsion orders wrong")


def test_cones_checker_rejects_wrong_ray():
    bad = copy.deepcopy(geometry_report("cones"))
    bad["payload"]["min_cone"]["rays"][0] = [-v for v in bad["payload"]["min_cone"]["rays"][0]]
    rejects(lambda r: oracle.check_cones(r, GEOM), bad, "violates normal")


def test_cones_checker_rejects_wrong_split_flag():
    bad = copy.deepcopy(geometry_report("cones"))
    bad["payload"]["split"]["cones_equal"] = True
    rejects(lambda r: oracle.check_cones(r, GEOM), bad, "cones_equal")


# ---------------------------------------------------------------------------
# tracing


def test_missing_wrapped_name_reads_as_zero_calls():
    fake_cones = types.SimpleNamespace()  # a cones module without rank or farkas_membership
    tracer = Tracer({"cones": fake_cones})
    tracer.install()
    tracer.uninstall()
    metrics = tracer.per_layer()
    assert metrics["intlinalg.rank_calls"] == (0, "count")
    assert metrics["cones.farkas_calls"] == (0, "count")


def test_self_time_excludes_child_spans():
    tracer = Tracer({})
    tracer.spans = [["cli.run", 0, 10_000_000, -1, 0], ["hasse.coords", 2_000_000, 6_000_000, 0, 0]]
    tracer.ops = 1
    metrics = tracer.per_layer()
    assert metrics["cli.self_ms"] == (6.0, "ms")
    assert metrics["hasse.coords_ms"] == (4.0, "ms")


def test_tracer_counts_library_calls_and_restores_names():
    modules = {name: sys.modules[f"hassecones.{name}"] for name in ("cli", "hasse", "reduction", "cones")}
    original = modules["cli"].greedy_reduce
    tracer = Tracer(modules)
    tracer.install()
    try:
        tracer.begin_op()
        reduce_report(INERT, (4, 1))
    finally:
        tracer.uninstall()
    assert modules["cli"].greedy_reduce is original
    metrics = tracer.per_layer()
    assert metrics["hasse.coords_calls"] == (3, "count")
    assert metrics["reduction.greedy_steps"] == (1, "count")
