"""Acceptance gate: eight exact criteria, each with a stated runtime budget.

Run `pytest -s -v tests/test_acceptance.py` to get one verdict line per
criterion.  All comparisons are exact integer or rational arithmetic; there
is no tolerance anywhere.

Criterion 3 checks greedy reduction against a blind numpy box oracle and
against rational cone membership, weight by weight: greedy vanishes exactly
when the oracle finds no integral decomposition; `hasse_contains` agrees with
the sign of the oracle's own Hasse coordinates; and a weight outside the cone
vanishes at once, with a certificate naming a negative coordinate.  Vanishing
is not equivalent to lying outside the rational Hasse cone: weights inside the
cone with no integral decomposition still vanish (integral obstructions, see
test_reduction.test_integral_obstruction_inside_rational_cone for the smallest
case).  Their number on the criterion's box is a pinned measurement, not a
designed failure: it must stay exactly INTEGRAL_OBSTRUCTIONS.
"""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from time import perf_counter

import numpy as np

from hassecones import (
    InMinCone,
    Vanishing,
    MinPolySpec,
    PrimeLocus,
    Weight,
    build_carousel,
    cone_chain,
    dedekind_p_maximal,
    enumerate_min_decompositions,
    factor_mod_p,
    fibre_degree,
    greedy_reduce,
    hasse_cone,
    hasse_contains,
    hasse_coordinates,
    hasse_lattice_index,
    hasse_matrix,
    min_cone,
    profile_from_minpoly,
    reducible_directions,
    std_cone,
    torsion_summary,
)
from hassecones.cli import render, run
from hassecones.hasse import bareiss_determinant

from helpers import (
    PANEL_SPECS,
    carousel_of,
    ceil_frac,
    exhaustive_profiles,
    fraction_determinant,
    fraction_inverse,
    random_profile,
    reduce_step,
    weight_box,
)
import oracles
from oracles import picard_relations


def _verdict(number, name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s, budget {budget}s"
    if detail:
        line += f"; {detail}"
    print(line + ")")


def test_criterion_1_determinant_identity():
    budget = 5.0
    start = perf_counter()
    rng = random.Random(2024)
    checked = 0
    failures = []
    for _ in range(200):
        profile = random_profile(rng, (2, 3, 5, 7), dmax=10)
        c = build_carousel(profile)
        rows = hasse_matrix(c)
        det = bareiss_determinant(rows)
        expected = hasse_lattice_index(profile)
        if abs(det) != expected or det != fraction_determinant(rows):
            failures.append(profile.as_dict())
        checked += 1
    elapsed = perf_counter() - start
    ok = not failures and elapsed < budget
    _verdict(1, "determinant-identity", ok, elapsed, budget, f"{checked} random profiles, d <= 10")
    assert not failures, failures[:3]
    assert elapsed < budget, elapsed


def test_criterion_2_cone_chain_and_split_criterion():
    budget = 60.0
    start = perf_counter()
    checked = 0
    failures = []
    for profile in exhaustive_profiles((2, 3, 5), dmax=8):
        c = build_carousel(profile)
        lower, middle, upper = min_cone(c), std_cone(c), hasse_cone(c)
        chain = cone_chain(lower, upper)
        oracle_chain = (oracles.cone_subset(lower, middle).holds, oracles.cone_subset(middle, upper).holds)
        equal = lower == upper
        oracle_equal = oracles.cone_equal(lower, upper)
        split = profile.is_totally_split()
        if chain != (True, True) or chain != oracle_chain or equal != split or equal != oracle_equal:
            failures.append(profile.as_dict())
        checked += 1
    elapsed = perf_counter() - start
    ok = not failures and elapsed < budget
    _verdict(2, "cone-chain-and-split", ok, elapsed, budget, f"{checked} profiles, exhaustive d <= 8, p in 2/3/5")
    assert not failures, failures[:3]
    assert elapsed < budget, elapsed


def _oracle_decomposition_set(c, k, y, h_rows, n_vec, perm, cache):
    """Blind box enumeration [0, A]^d over numpy int64, A = max ceil(y_tau).

    y = M^{-1} k is the caller's Fraction-inverse Hasse coordinate vector.
    """
    d = c.d
    bound = max([0] + [ceil_frac(v) for v in y])
    key = (d, bound)
    if key not in cache:
        cache[key] = np.array(list(product(range(bound + 1), repeat=d)), dtype=np.int64).reshape(-1, d)
    candidates = cache[key]
    w = np.asarray(tuple(k), dtype=np.int64)[None, :] - candidates @ h_rows
    feasible = np.all(w * n_vec[None, :] >= w[:, perm], axis=1)
    out = set()
    for idx in np.nonzero(feasible)[0]:
        out.add((tuple(int(v) for v in w[idx]), tuple(int(v) for v in candidates[idx])))
    return out


# Box weights of criterion 3 that lie in the rational Hasse cone yet have no
# integral decomposition: 8 on p = 2, (e, f) = (1, 2) and 858 on p = 2,
# (e, f) = (2, 2).  Documented in the README under "Known limitation".
INTEGRAL_OBSTRUCTIONS = 866
README_OBSTRUCTION = (2, ((1, 2),), (0, 1))


def test_criterion_3_reduction_against_oracle_and_cone_membership():
    budget = 120.0
    start = perf_counter()
    specs = ((2, ((2, 1),)), (2, ((1, 2),)), (3, ((1, 1), (1, 1))), (2, ((2, 2),)))
    enum_mismatches = []
    greedy_mismatches = []
    vanishing_mismatches = []
    membership_mismatches = []
    certificate_mismatches = []
    obstructions = []
    cache = {}
    weights_checked = 0
    for p, pairs in specs:
        c = carousel_of(p, pairs)
        d = c.d
        matrix_rows = [list(row) for row in hasse_matrix(c)]
        inverse = fraction_inverse(matrix_rows)
        h_rows = np.array([c.hasse_column(j) for j in range(d)], dtype=np.int64)
        n_vec = np.array(c.n_table, dtype=np.int64)
        perm = np.array(c.sigma_inv_table, dtype=np.intp)
        for k in weight_box(d, 4):
            weights_checked += 1
            case = (p, pairs, tuple(k))
            enumerated = {
                (tuple(dec.w), dec.a) for dec in enumerate_min_decompositions(c, k)
            }
            y = [sum(row[j] * k[j] for j in range(d)) for row in inverse]
            oracle = _oracle_decomposition_set(c, k, y, h_rows, n_vec, perm, cache)
            if enumerated != oracle:
                enum_mismatches.append(case)
            outcome = greedy_reduce(c, k)
            if isinstance(outcome, InMinCone):
                pair = (tuple(outcome.decomposition.w), outcome.decomposition.a)
                if pair not in enumerated:
                    greedy_mismatches.append(case)
            # (a) greedy vanishes exactly when no integral decomposition exists
            # and otherwise lands in C^min; no walk exhausts its budget.
            if not isinstance(outcome, InMinCone if oracle else Vanishing):
                vanishing_mismatches.append(case)
            # (b) rational membership is the sign of the oracle's coordinates.
            inside = all(v >= 0 for v in y)
            if hasse_contains(c, k).member != inside:
                membership_mismatches.append(case)
            if not inside:
                # (c) outside the cone the input itself is the certificate.
                if not (
                    isinstance(outcome, Vanishing)
                    and outcome.steps == ()
                    and outcome.weight == k
                    and outcome.coordinate == y[outcome.tau] < 0
                ):
                    certificate_mismatches.append(case)
            elif isinstance(outcome, Vanishing):
                # (d) inside the cone yet vanishing: an integral obstruction.
                obstructions.append(case)
    elapsed = perf_counter() - start
    ok = (
        not enum_mismatches
        and not greedy_mismatches
        and not vanishing_mismatches
        and not membership_mismatches
        and not certificate_mismatches
        and len(obstructions) == INTEGRAL_OBSTRUCTIONS
        and README_OBSTRUCTION in obstructions
        and elapsed < budget
    )
    _verdict(
        3,
        "reduction-oracle-equivalence",
        ok,
        elapsed,
        budget,
        f"{weights_checked} weights; enumeration mismatches {len(enum_mismatches)}, "
        f"greedy mismatches {len(greedy_mismatches)}, "
        f"vanishing-vs-oracle mismatches {len(vanishing_mismatches)}, "
        f"membership mismatches {len(membership_mismatches)}, "
        f"outside-cone certificate mismatches {len(certificate_mismatches)}, "
        f"integral obstructions {len(obstructions)} (pinned {INTEGRAL_OBSTRUCTIONS})",
    )
    assert not enum_mismatches, enum_mismatches[:3]
    assert not greedy_mismatches, greedy_mismatches[:3]
    assert not vanishing_mismatches, (
        "greedy reduction must vanish exactly when the oracle finds no integral "
        f"decomposition and land in C^min otherwise; first counterexamples: {vanishing_mismatches[:3]}"
    )
    assert not membership_mismatches, (
        "hasse_contains disagrees with the signs of the oracle's Hasse "
        f"coordinates; first counterexamples: {membership_mismatches[:3]}"
    )
    assert not certificate_mismatches, (
        "a weight outside the Hasse cone must vanish with no steps, on the input "
        "weight, at a negative oracle coordinate; first counterexamples: "
        f"{certificate_mismatches[:3]}"
    )
    assert len(obstructions) == INTEGRAL_OBSTRUCTIONS, (
        f"{len(obstructions)} box weights lie in the rational Hasse cone yet vanish, "
        f"the pinned integral-obstruction count is {INTEGRAL_OBSTRUCTIONS}"
    )
    assert README_OBSTRUCTION in obstructions, README_OBSTRUCTION
    assert elapsed < budget, elapsed


def test_criterion_4_hasse_coordinate_decrement():
    budget = 5.0
    start = perf_counter()
    rng = random.Random(404)
    pool = [build_carousel(random_profile(rng, (2, 3, 5, 7), dmax=6)) for _ in range(30)]
    checked = 0
    failures = 0
    while checked < 10_000:
        c = rng.choice(pool)
        k = Weight(tuple(rng.randint(-8, 8) for _ in range(c.d)))
        directions = reducible_directions(c, k)
        if not directions:
            continue
        j = rng.choice(directions)
        before = hasse_coordinates(c, k)
        after = hasse_coordinates(c, reduce_step(c, k, j))
        expected = tuple(v - 1 if i == j else v for i, v in enumerate(before))
        if after != expected:
            failures += 1
        checked += 1
    elapsed = perf_counter() - start
    ok = failures == 0 and elapsed < budget
    _verdict(4, "coordinate-decrement", ok, elapsed, budget, f"{checked} random (k, tau) pairs")
    assert failures == 0
    assert elapsed < budget, elapsed


def test_criterion_5_torsion_bound_and_single_locus_orders():
    budget = 30.0
    start = perf_counter()
    strata_checked = 0
    failures = []
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        c = build_carousel(profile)
        p = profile.p
        bounds = []
        for locus in profile.loci:
            bounds.extend([p ** (2 * locus.f) - 1] * (locus.e * locus.f))
        single = len(profile.loci) == 1
        for bits in map("".join, product("01", repeat=c.d)):
            summary = torsion_summary(c, bits)
            strata_checked += 1
            for order, bound in zip(summary.torsion_orders, bounds):
                if order == 0 or bound % order:
                    failures.append((profile.as_dict(), bits, "bound"))
                    break
            if single:
                expected = abs(p ** profile.loci[0].f - (-1) ** bits.count("1"))
                rows = [list(r) for r in picard_relations(c, bits)]
                if summary.group_order != expected or abs(fraction_determinant(rows)) != expected:
                    failures.append((profile.as_dict(), bits, "order"))
    elapsed = perf_counter() - start
    ok = not failures and elapsed < budget
    _verdict(5, "torsion-bound", ok, elapsed, budget, f"{strata_checked} strata, exhaustive d <= 6")
    assert not failures, failures[:3]
    assert elapsed < budget, elapsed


def test_criterion_6_bridge_identity_on_panel():
    budget = 30.0
    start = perf_counter()
    checked = 0
    failures = []
    for p, pairs in PANEL_SPECS:
        c = carousel_of(p, pairs)
        valid = [j for block in c.blocks if len(block) > 1 for j in block]
        if not valid:
            continue
        for k in weight_box(c.d, 4):
            reducible = set(reducible_directions(c, k))
            for j in valid:
                for r in (1, 2, 3):
                    checked += 1
                    if (fibre_degree(c, k, j, r) < 0) != (j in reducible):
                        failures.append((p, pairs, tuple(k), c.labels[j], r))
    elapsed = perf_counter() - start
    ok = not failures and elapsed < budget
    _verdict(6, "bridge-identity", ok, elapsed, budget, f"{checked} (k, tau, r) triples on the panel")
    assert not failures, failures[:3]
    assert elapsed < budget, elapsed


def test_criterion_7_factorization_and_dedekind():
    budget = 10.0
    start = perf_counter()
    rng = random.Random(707)
    primes = [q for q in range(2, 98) if all(q % r for r in range(2, q))]
    failures = []
    for _ in range(500):
        p = rng.choice(primes)
        degree = rng.randint(2, 8)
        spec = MinPolySpec(tuple(rng.randint(-50, 50) for _ in range(degree)) + (1,), p)
        if factor_mod_p(spec).product() != spec.reduced():
            failures.append(spec.coefficients)

    worked = [
        (MinPolySpec((1, 0, 1), 5), (PrimeLocus(1, 1), PrimeLocus(1, 1))),
        (MinPolySpec((-1, -1, 1), 5), (PrimeLocus(2, 1),)),
        (MinPolySpec((1, 1, 1), 2), (PrimeLocus(1, 2),)),
    ]
    for spec, expected in worked:
        if profile_from_minpoly(spec)[0].loci != expected:
            failures.append(("profile", spec.coefficients))
    non_maximal = MinPolySpec((-8, -2, -1, 1), 2)
    if dedekind_p_maximal(non_maximal, factor_mod_p(non_maximal)):
        failures.append(("dedekind", "x^3 - x^2 - 2x - 8 at 2 must be rejected"))
    elapsed = perf_counter() - start
    ok = not failures and elapsed < budget
    _verdict(7, "factorization-dedekind", ok, elapsed, budget, "500 random monics, p <= 97, plus worked cases")
    assert not failures, failures[:3]
    assert elapsed < budget, elapsed


def test_criterion_8_selftest_determinism():
    budget = 60.0  # no stated budget; generous cap so a hang still fails
    start = perf_counter()
    first = render(run(["selftest", "--seed", "0"])[0], args_csv=False)
    second = render(run(["selftest", "--seed", "0"])[0], args_csv=False)
    in_process_equal = first == second

    argv = [sys.executable, "-m", "hassecones", "selftest", "--seed", "0"]
    out_a = subprocess.run(argv, capture_output=True, check=True).stdout
    out_b = subprocess.run(argv, capture_output=True, check=True).stdout
    across_process_equal = out_a == out_b
    elapsed = perf_counter() - start
    ok = in_process_equal and across_process_equal and elapsed < budget
    _verdict(8, "selftest-determinism", ok, elapsed, budget, "byte-identical reports, in and across processes")
    assert in_process_equal
    assert across_process_equal
    assert elapsed < budget, elapsed
