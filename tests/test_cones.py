"""Cone construction, closed-form rays and normals, and certified membership.

The library writes the rays of C^min and the normals of C^Hasse down in
closed form.  Double description and the Farkas simplex, kept in
tests/oracles.py with the single-representation cones HRepCone and VRepCone
they act on, are the independent reference: the closed forms must equal
their output, the chain read and `==` must agree with the oracle's subset
and equality, and the oracles' own audits still run here (sampled
nonnegative combinations of the computed rays satisfy every input
inequality, and membership through the H-representation agrees with the
exact Farkas check on the V-representation).  The integer vector helpers
and the rank the double description uses are tested here too, the rank
against numpy.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from hassecones import (
    DimensionMismatch,
    InternalCheckError,
    InvariantError,
    SimplicialCone,
    Weight,
    build_carousel,
    cone_chain,
    contains,
    hasse_cone,
    hasse_contains,
    hasse_coordinates,
    min_cone,
    split_criterion,
    std_cone,
)

from helpers import DEGREE_64_PANEL, carousel_of, exhaustive_profiles, hasse_columns, panel_carousels, weight_box
import oracles
from oracles import HRepCone, VRepCone


def test_min_cone_rows_worked_example():
    cone = min_cone(carousel_of(2, [(2, 1)]))
    assert cone.normals == ((-1, 1), (2, -1))


def test_min_cone_membership_worked_example():
    cone = min_cone(carousel_of(2, [(2, 1)]))
    assert contains(cone, (1, 1)).member
    verdict = contains(cone, (0, 1))
    assert not verdict.member
    assert verdict.kind == "hrep-violation"
    index, slack = verdict.witness
    assert cone.normals[index] == (2, -1)
    assert slack == Fraction(-1)


def test_membership_reads_fraction_entries_exactly():
    cone = std_cone(carousel_of(2, [(2, 1)]))
    assert cone.normals == ((0, 1), (1, 0))
    verdict = contains(cone, (Fraction(1, 3), 1))
    assert verdict.member
    assert verdict.witness == (Fraction(1), Fraction(1, 3))
    # a negative Fraction entry is refused by the normal it violates, with
    # its exact slack
    verdict = contains(cone, (Fraction(1, 3), Fraction(-1, 3)))
    assert not verdict.member
    assert verdict.kind == "hrep-violation"
    assert verdict.witness == (0, Fraction(-1, 3))


def test_std_cone_is_the_orthant():
    c = carousel_of(2, [(2, 2)])
    cone = std_cone(c)
    assert cone.normals == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0))


def test_hasse_cone_rays_worked_examples():
    assert hasse_cone(carousel_of(2, [(2, 1)])).rays == ((-1, 2), (1, -1))
    # split profile: rays (2,0),(0,2) normalize to the unit vectors
    assert hasse_cone(carousel_of(3, [(1, 1), (1, 1)])).rays == ((0, 1), (1, 0))


def test_rank_matches_numpy_matrix_rank():
    # the rank double description tests adjacency with
    rng = random.Random(32)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        assert oracles.rank(rows) == np.linalg.matrix_rank(np.array(rows)), rows


def test_rank_of_dependent_rows():
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.rank([[0, 0], [0, 0]]) == 0
    assert oracles.rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_content_and_primitive():
    assert oracles.content((4, -6)) == 2
    assert oracles.content((0, 0)) == 0
    assert oracles.content((0, -5)) == 5
    assert oracles.primitive((4, -6)) == (2, -3)
    assert oracles.primitive((0, 0, 0)) == (0, 0, 0)
    assert oracles.primitive((7,)) == (1,)
    assert oracles.primitive((-3, -6)) == (-1, -2)  # direction preserved, gcd removed


def test_dot_is_exact_on_big_integers():
    assert oracles.dot((10**40, -(10**39)), (1, 10)) == 0


def test_dd_worked_example_min_cone():
    cone = oracles.dd_h_to_v(min_cone(carousel_of(2, [(2, 1)])))
    assert cone.rays == ((1, 1), (1, 2))
    assert min_cone(carousel_of(2, [(2, 1)])).rays == cone.rays


def test_dd_worked_example_orthant():
    cone = oracles.dd_h_to_v(std_cone(carousel_of(3, [(1, 1), (1, 1)])))
    assert cone.rays == ((0, 1), (1, 0))


def test_dd_worked_example_hasse_dual():
    cone = oracles.dd_v_to_h(hasse_cone(carousel_of(2, [(2, 1)])))
    assert cone.normals == ((1, 1), (2, 1))
    assert hasse_cone(carousel_of(2, [(2, 1)])).normals == cone.normals


def test_dd_round_trips_on_panel():
    for c in panel_carousels():
        for cone in (min_cone(c), std_cone(c)):
            again = oracles.dd_v_to_h(oracles.dd_h_to_v(cone))
            assert again.normals == cone.normals, c.profile
        rays = hasse_cone(c)
        assert oracles.dd_h_to_v(oracles.dd_v_to_h(rays)).rays == rays.rays, c.profile


def test_dd_halfspace_has_lineality():
    half = HRepCone.from_rows([(1, 0, 0)], dim=3)
    rays = oracles.dd_h_to_v(half).rays
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert oracles.dd_v_to_h(oracles.dd_h_to_v(half)).normals == ((1, 0, 0),)


def test_dd_no_constraints_is_whole_space():
    everything = oracles.dd_h_to_v(HRepCone(2, ()))
    assert set(everything.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_dd_zero_cone():
    # the cone generated by nothing is the origin; its H-form pins every axis
    origin = oracles.dd_v_to_h(VRepCone(2, ()))
    got = oracles.dd_h_to_v(origin)
    assert got.rays == ()


def test_dd_drops_redundant_rows():
    # x >= 0, y >= 0, x + y >= 0: the last row is implied
    cone = HRepCone.from_rows([(1, 0), (0, 1), (1, 1)], dim=2)
    assert oracles.dd_h_to_v(cone).rays == ((0, 1), (1, 0))
    assert oracles.dd_v_to_h(oracles.dd_h_to_v(cone)).normals == ((0, 1), (1, 0))


def test_dimension_cap_applies_to_dd_only():
    rows = [tuple(1 if i == j else 0 for j in range(17)) for i in range(17)]
    big = HRepCone.from_rows(rows, dim=17)
    with pytest.raises(oracles.DimensionCapExceeded):
        oracles.dd_h_to_v(big)
    # membership through the H-representation has no cap
    assert oracles.contains(big, tuple(1 for _ in range(17))).member


def test_closed_forms_equal_dd_oracle_exhaustive():
    # the C^min rays and C^Hasse normals, order included, are what double
    # description computes from the other representation
    for profile in exhaustive_profiles((2, 3, 5), dmax=8):
        c = build_carousel(profile)
        lower, upper = min_cone(c), hasse_cone(c)
        assert lower.rays == oracles.dd_h_to_v(HRepCone(c.d, lower.normals)).rays, profile
        assert upper.normals == oracles.dd_v_to_h(VRepCone(c.d, upper.rays)).normals, profile


def test_simplicial_cone_checks_its_pairing():
    refused = [
        ([(1, 0), (0, 1)], [(1, 1), (0, 1)], 2),
        ([(1, 0), (0, 1)], [(1, 0)], 2),
        # each normal is positive on one ray only, but all three pick the same ray
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0)], [(0, 1, 0), (0, 1, 1), (0, 1, -1)], 3),
    ]
    for rays, normals, dim in refused:
        with pytest.raises(InternalCheckError):
            SimplicialCone.from_rows(rays, normals, dim)
        assert not oracles.pairing_certifies(rays, normals, dim)
    cone = SimplicialCone.from_rows([(1, 1), (1, 2)], [(2, -1), (-1, 1)], dim=2)
    assert cone.normals == ((-1, 1), (2, -1))
    assert oracles.pairing_certifies(cone.rays, cone.normals, 2)


def test_pairing_check_agrees_with_dense_oracle():
    # each cone the library builds is accepted by the dense pairing matrix,
    # from d = 2 to the d = 64 panel
    for profile in [*exhaustive_profiles((2, 3, 5), dmax=6), *DEGREE_64_PANEL]:
        c = build_carousel(profile)
        for build in (min_cone, std_cone, hasse_cone):
            cone = build(c)
            assert oracles.pairing_certifies(cone.rays, cone.normals, c.d), (build.__name__, profile)


def _bumped(rows, index, position):
    rows = [list(row) for row in rows]
    rows[index][position] += 1
    return tuple(map(tuple, rows))


def _entries(rows):
    return sum(1 for row in rows for v in row if v)


def test_pairing_check_refuses_a_bumped_sparse_side():
    # the inert locus of degree 3 at p = 2: the C^min normals have two
    # entries against dense rays, the C^Hasse rays two against dense normals
    c = carousel_of(2, [(1, 3)])
    lower, upper = min_cone(c), hasse_cone(c)
    # on C^min the normals are the sparser side, so each normal is paired
    # with every ray and a bumped normal is the one named ...
    assert _entries(lower.normals) < _entries(lower.rays)
    position = next(i for i, v in enumerate(lower.normals[0]) if v)
    normals = _bumped(lower.normals, 0, position)
    assert _entries(normals) < _entries(lower.rays)
    assert not oracles.pairing_certifies(lower.rays, normals, c.d)
    with pytest.raises(InternalCheckError, match=r"^normal \(.*\) is not dual to exactly one ray of its own$"):
        SimplicialCone(c.d, lower.rays, normals)
    # ... and on C^Hasse the rays are, so each ray is paired with every
    # normal and a bumped ray is the one named
    assert _entries(upper.rays) < _entries(upper.normals)
    position = next(i for i, v in enumerate(upper.rays[0]) if v)
    rays = _bumped(upper.rays, 0, position)
    assert _entries(rays) < _entries(upper.normals)
    assert not oracles.pairing_certifies(rays, upper.normals, c.d)
    with pytest.raises(InternalCheckError, match=r"^ray \(.*\) is not dual to exactly one normal of its own$"):
        SimplicialCone(c.d, rays, upper.normals)


@pytest.mark.parametrize("build, side", [(min_cone, "normals"), (hasse_cone, "rays")])
def test_pairing_check_refuses_each_fault_on_the_sparser_side(build, side):
    # on the inert locus of degree 3 at p = 2 the C^min normals and the
    # C^Hasse rays are the sparser side; a negated vector has one pairing,
    # negative, and a repeated one picks what its copy picks
    c = carousel_of(2, [(1, 3)])
    cone = build(c)
    vectors = getattr(cone, side)
    negated = (tuple(-v for v in vectors[0]),) + vectors[1:]
    repeated = (vectors[0], vectors[0]) + vectors[2:]
    for changed in (negated, repeated):
        rays, normals = (cone.rays, changed) if side == "normals" else (changed, cone.normals)
        assert not oracles.pairing_certifies(rays, normals, c.d)
        with pytest.raises(InternalCheckError, match=f"^{side[:-1]} \\(.*\\) is not dual"):
            SimplicialCone(c.d, rays, normals)


def test_membership_needs_normals():
    # the library decides membership in its SimplicialCone only; the Farkas
    # simplex and the H-representation routes live on as test oracles
    with pytest.raises(TypeError):
        contains(VRepCone(2, ((1, 0), (0, 1))), (1, 1))
    with pytest.raises(TypeError):
        contains(HRepCone(2, ((1, 0),)), (1, 1))


def test_normals_validation():
    with pytest.raises(InvariantError):
        HRepCone.from_rows([(0, 0)], dim=2)
    with pytest.raises(DimensionMismatch):
        HRepCone.from_rows([(1, 0, 0)], dim=2)
    with pytest.raises(DimensionMismatch):
        oracles.contains(HRepCone.from_rows([(1, 0)], dim=2), (1, 2, 3))
    with pytest.raises(DimensionMismatch):
        contains(std_cone(carousel_of(2, [(2, 1)])), (1, 2, 3))


def test_rows_are_deduplicated_under_positive_scaling():
    cone = HRepCone.from_rows([(2, 4), (1, 2), (3, 6), (-1, 2)], dim=2)
    assert cone.normals == ((-1, 2), (1, 2))


def test_farkas_certificates_are_checkable():
    rays = ((1, 0), (0, 1))
    ok, lam = oracles.farkas_membership(rays, (Fraction(2), Fraction(3)))
    assert ok
    assert lam == (Fraction(2), Fraction(3))

    ok, z = oracles.farkas_membership(rays, (Fraction(-1), Fraction(-1)))
    assert not ok
    assert sum(zi * xi for zi, xi in zip(z, (-1, -1))) < 0
    for ray in rays:
        assert sum(zi * ri for zi, ri in zip(z, ray)) >= 0


def test_farkas_on_lower_dimensional_cone():
    # x is in the span direction but with a negative coefficient
    rays = ((1, 1),)
    ok, witness = oracles.farkas_membership(rays, (Fraction(-2), Fraction(-2)))
    assert not ok
    ok, lam = oracles.farkas_membership(rays, (Fraction(2), Fraction(2)))
    assert ok and lam == (Fraction(2),)


def test_hasse_contains_worked_examples():
    c = carousel_of(2, [(2, 1)])
    inside = hasse_contains(c, Weight((1, 1)))
    assert inside.member
    assert inside.kind == "hasse-coordinates"
    assert inside.witness == (Fraction(2), Fraction(3))

    outside = hasse_contains(c, Weight((-1, 0)))
    assert not outside.member
    assert outside.kind == "hasse-coordinate"
    assert outside.witness == (0, Fraction(-1))

    zero = Weight((0, 0))
    assert hasse_contains(c, zero).member
    assert contains(min_cone(c), tuple(zero)).member
    assert contains(std_cone(c), tuple(zero)).member


def test_membership_routes_agree_on_random_points():
    rng = random.Random(51)
    for c in panel_carousels():
        cone = hasse_cone(c)
        cone_v = VRepCone(c.d, cone.rays)
        cone_h = oracles.dd_v_to_h(cone_v)
        for _ in range(170):
            x = tuple(rng.randint(-6, 6) for _ in range(c.d))
            via_coords = hasse_contains(c, Weight(x)).member
            via_farkas = oracles.contains(cone_v, x).member
            via_rows = oracles.contains(cone_h, x).member
            via_closed_form = contains(cone, x).member
            assert via_coords == via_farkas == via_rows == via_closed_form, (c.profile, x)


def test_dd_soundness_on_random_cones():
    rng = random.Random(52)
    for _ in range(40):
        dim = rng.randint(2, 5)
        nrows = rng.randint(1, 8)
        rows = []
        while len(rows) < nrows:
            candidate = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(candidate):
                rows.append(candidate)
        cone = HRepCone.from_rows(rows, dim=dim)
        rays = oracles.dd_h_to_v(cone).rays
        # every ray satisfies every inequality
        for ray in rays:
            for row in cone.normals:
                assert sum(a * r for a, r in zip(row, ray)) >= 0
        # sampled nonnegative combinations stay inside
        for _ in range(10):
            point = [0] * dim
            for ray in rays:
                weight = rng.randint(0, 3)
                point = [v + weight * r for v, r in zip(point, ray)]
            assert oracles.contains(cone, point).member
        # H-rep and V-rep membership verdicts agree on random points
        for _ in range(10):
            x = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert oracles.contains(cone, x).member == oracles.contains(VRepCone(dim, rays), x).member


def test_dd_round_trip_is_the_same_cone():
    rng = random.Random(53)
    for _ in range(25):
        dim = rng.randint(2, 4)
        rows = []
        while len(rows) < rng.randint(1, 6):
            candidate = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(candidate):
                rows.append(candidate)
        cone = HRepCone.from_rows(rows, dim=dim)
        back = oracles.dd_v_to_h(oracles.dd_h_to_v(cone))
        as_rays = oracles.dd_h_to_v(cone)
        assert oracles.cone_equal(cone, back)
        assert oracles.cone_equal(cone, as_rays)


def test_cone_subset_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert oracles.cone_subset(min_cone(c), std_cone(c)).holds
    assert cone_chain(min_cone(c), hasse_cone(c)) == (True, True)

    verdict = oracles.cone_subset(hasse_cone(c), std_cone(c))
    assert not verdict.holds
    failing = [ray for ray, cert in verdict.ray_certificates if not cert.member]
    # Both Hasse rays leave the orthant: each has one negative coordinate.
    assert failing == [(-1, 2), (1, -1)]
    # read the other way round, the chain fails at both ends
    assert cone_chain(hasse_cone(c), min_cone(c)) == (False, False)


def test_cone_equal_when_totally_split():
    c = carousel_of(3, [(1, 1), (1, 1)])
    assert oracles.cone_equal(min_cone(c), hasse_cone(c))
    assert min_cone(c) == hasse_cone(c)


def test_split_equality_worked_examples():
    for p, pairs, equal in ((3, [(1, 1), (1, 1)], True), (2, [(2, 1)], False), (2, [(1, 2)], False)):
        c = carousel_of(p, pairs)
        assert (c.profile.is_totally_split(), min_cone(c) == hasse_cone(c)) == (equal, equal)
        assert split_criterion(c, min_cone(c), hasse_cone(c))
        # a wrong verdict either way is caught
        other = min_cone(carousel_of(2, [(2, 1)])) if equal else min_cone(c)
        assert not split_criterion(c, min_cone(c), other)


def _chain_reads(c):
    """The library's chain read, the oracle's subset verdicts, each also swapped."""
    lower, middle, upper = min_cone(c), std_cone(c), hasse_cone(c)
    library = cone_chain(lower, upper) + cone_chain(upper, lower)
    oracle = (
        oracles.cone_subset(lower, middle).holds,
        oracles.cone_subset(middle, upper).holds,
        oracles.cone_subset(upper, middle).holds,
        oracles.cone_subset(middle, lower).holds,
    )
    return library, oracle


def test_chain_and_split_criterion_small_profiles():
    for profile in exhaustive_profiles((2, 3), dmax=5):
        c = build_carousel(profile)
        library, oracle = _chain_reads(c)
        assert library[:2] == (True, True), profile
        assert library == oracle, profile
        assert split_criterion(c, min_cone(c), hasse_cone(c)), profile


def test_chain_read_equals_oracle_subset():
    # swapped, the read is C^Hasse in C^st and C^st in C^min: true only when split
    for profile in exhaustive_profiles((2, 3, 5), dmax=8):
        c = build_carousel(profile)
        library, oracle = _chain_reads(c)
        assert library == oracle == (True, True) + (profile.is_totally_split(),) * 2, profile
    c = carousel_of(2**64 - 59, [(1, 64)])
    library, oracle = _chain_reads(c)
    assert library == oracle == (True, True, False, False)


def test_split_equality_agrees_with_generic_cone_equal():
    # The canonical form decides equality with ==.  The generic routine
    # decides it from the defining rows alone: C^min by its inequalities
    # n_tau k_tau >= k_{sigma^{-1} tau}, C^Hasse by the Hasse weights.
    for profile in exhaustive_profiles((2, 3, 5), dmax=8):
        c = build_carousel(profile)
        inequalities = []
        for j in range(c.d):
            row = [0] * c.d
            row[j] += c.n_table[j]
            row[c.sigma_inv_table[j]] -= 1
            inequalities.append(row)
        lower = HRepCone.from_rows(inequalities, c.d)
        upper = VRepCone.from_rows(hasse_columns(c), c.d)
        expected = oracles.cone_equal(upper, lower)
        assert expected == profile.is_totally_split(), profile
        assert (min_cone(c) == hasse_cone(c)) == expected, profile
        assert split_criterion(c, min_cone(c), hasse_cone(c)), profile


def test_min_cone_weights_agree_with_box_scan():
    # membership in C^min from the H-representation matches the raw inequality
    c = carousel_of(2, [(1, 2)])
    cone = min_cone(c)
    for k in weight_box(c.d, 3):
        direct = all(
            c.n_table[j] * k[j] >= k[c.sigma_inv_table[j]] for j in range(c.d)
        )
        assert contains(cone, tuple(k)).member == direct


def test_certificate_boolean_coercion():
    c = carousel_of(2, [(2, 1)])
    assert bool(hasse_contains(c, Weight((1, 1))))
    assert not bool(hasse_contains(c, Weight((-1, 0))))
    assert bool(oracles.cone_subset(min_cone(c), std_cone(c)))
