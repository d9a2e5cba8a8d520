"""Hasse weight vectors, the Hasse matrix, its determinant over the cycles of sigma, and exact coordinate solves.

The determinant is checked against two oracles that ignore the support:
Bareiss elimination (tests/oracles.py) and Fraction elimination
(tests/helpers.py).  Bareiss is tested against Fraction elimination here.
"""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from hassecones import (
    DimensionMismatch,
    InternalCheckError,
    SchemaError,
    Weight,
    build_carousel,
    determinant_identity,
    hasse_coordinates,
    hasse_lattice_index,
    hasse_matrix,
)
from hassecones.hasse import check_weight, coordinates_scaled, cycle_determinant

from helpers import (
    DEGREE_64_PANEL,
    carousel_of,
    exhaustive_profiles,
    fraction_determinant,
    oracle_coordinates,
    profile_of,
    random_profile,
)
from oracles import bareiss_determinant

MERSENNE_61 = 2**61 - 1


def test_hasse_weight_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert c.hasse_column(0) == (-1, 2)
    assert c.hasse_column(1) == (1, -1)
    split = carousel_of(3, [(1, 1), (1, 1)])
    assert split.hasse_column(0) == (2, 0)
    assert split.hasse_column(1) == (0, 2)


def test_hasse_matrix_worked_examples():
    c = carousel_of(2, [(2, 1)])
    ramified = hasse_matrix(c)
    assert ramified == ((-1, 1), (2, -1))
    assert cycle_determinant(c, ramified) == -1

    c = carousel_of(3, [(1, 1), (1, 1)])
    split = hasse_matrix(c)
    assert split == ((2, 0), (0, 2))
    assert cycle_determinant(c, split) == 4

    c = carousel_of(2, [(1, 2)])
    inert = hasse_matrix(c)
    assert inert == ((-1, 2), (2, -1))
    assert cycle_determinant(c, inert) == -3


def test_matrix_columns_are_hasse_weights():
    c = carousel_of(2, [(3, 1), (1, 1)])
    matrix = hasse_matrix(c)
    for j in range(c.d):
        assert tuple(row[j] for row in matrix) == c.hasse_column(j)


def test_lattice_index_examples():
    assert hasse_lattice_index(profile_of(2, [(2, 1)])) == 1
    assert hasse_lattice_index(profile_of(3, [(1, 1), (1, 1)])) == 4
    assert hasse_lattice_index(profile_of(2, [(1, 2)])) == 3
    assert hasse_lattice_index(profile_of(2, [(2, 2)])) == 3
    assert hasse_lattice_index(profile_of(5, [(1, 3)])) == 124


def test_bareiss_matches_fraction_gauss():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(rows) == fraction_determinant(rows)


def test_bareiss_known_values():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([]) == 1


def test_bareiss_handles_zero_pivots():
    rows = [[0, 0, 3], [0, 2, 0], [5, 0, 0]]
    assert bareiss_determinant(rows) == fraction_determinant(rows) == -30


def test_determinant_identity_exhaustive_small():
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        c = build_carousel(profile)
        rows = hasse_matrix(c)
        det = cycle_determinant(c, rows)
        assert det == bareiss_determinant(rows) == fraction_determinant(rows), profile
        assert abs(det) == hasse_lattice_index(profile), profile
        assert determinant_identity(profile, det) and determinant_identity(profile, -det), profile
        assert not determinant_identity(profile, det + 1), profile


def _bad_hasse_rows(c):
    """The Hasse matrix without its -e_tau term, as selftest's negative control builds it."""
    rows = [list(row) for row in hasse_matrix(c)]
    for j in range(c.d):
        rows[j][j] += 1
    return rows


def _assert_three_determinants_agree(c, rows):
    det = cycle_determinant(c, rows)
    assert det == bareiss_determinant(rows) == fraction_determinant(rows), (c.profile, rows)
    return det


def test_cycle_determinant_matches_oracles_at_degree_64():
    for profile in DEGREE_64_PANEL:
        c = build_carousel(profile)
        assert determinant_identity(profile, _assert_three_determinants_agree(c, hasse_matrix(c))), profile


def test_cycle_determinant_matches_oracles_on_bad_hasse_rows():
    # without -e_tau, |det| = prod p**f, never the lattice index
    for profile in [*exhaustive_profiles((2, 3, 5), dmax=6), *DEGREE_64_PANEL]:
        c = build_carousel(profile)
        det = _assert_three_determinants_agree(c, _bad_hasse_rows(c))
        assert abs(det) == profile.p ** sum(locus.f for locus in profile.loci), profile
        assert not determinant_identity(profile, det), profile


def _in_support_rows(c, rng):
    rows = [[0] * c.d for _ in range(c.d)]
    for i in range(c.d):
        rows[i][i] = rng.randint(-5, 5)
        rows[i][c.sigma_table[i]] = rng.randint(-5, 5)
    return rows


def test_cycle_determinant_matches_oracles_on_random_in_support_rows():
    rng = random.Random(48)
    for _ in range(200):
        c = build_carousel(random_profile(rng, (2, 3, 5), dmax=8))
        _assert_three_determinants_agree(c, _in_support_rows(c, rng))


def test_cycle_determinant_walks_the_cycles_of_sigma_not_the_blocks():
    # a sigma whose cycles cut across the blocks, some of them fixed points
    rng = random.Random(49)
    for _ in range(200):
        c = build_carousel(random_profile(rng, (2, 3, 5), dmax=8))
        sigma = list(range(c.d))
        rng.shuffle(sigma)
        c = dataclasses.replace(c, sigma_table=tuple(sigma))
        _assert_three_determinants_agree(c, _in_support_rows(c, rng))


def test_cycle_determinant_refuses_an_entry_off_its_support():
    rng = random.Random(50)
    # from d = 3 on, every row has a position off its support
    for profile in exhaustive_profiles((2, 3), dmax=5, dmin=3):
        c = build_carousel(profile)
        rows = [list(row) for row in hasse_matrix(c)]
        i = rng.randrange(c.d)
        j = rng.choice([j for j in range(c.d) if j not in (i, c.sigma_table[i])])
        rows[i][j] = rng.choice([-1, 1])
        with pytest.raises(InternalCheckError, match=f"^row {i} has an entry off"):
            cycle_determinant(c, rows)
    c = carousel_of(2, [(1, 2)])
    with pytest.raises(InternalCheckError, match="not 2 x 2"):
        cycle_determinant(c, [[-1, 2]])
    with pytest.raises(InternalCheckError, match="not 2 x 2"):
        cycle_determinant(c, [[-1, 2, 0], [2, -1, 0]])


def test_coordinates_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert hasse_coordinates(c, Weight((1, 1))) == (Fraction(2), Fraction(3))
    assert hasse_coordinates(c, Weight((-1, 2))) == (Fraction(1), Fraction(0))
    assert hasse_coordinates(c, Weight((-1, 0))) == (Fraction(-1), Fraction(-2))


def test_coordinates_round_trip_large_entries():
    rng = random.Random(41)
    for p, pairs in ((2, [(2, 1)]), (2, [(2, 2)]), (5, [(1, 3)]), (2, [(3, 1), (1, 1)])):
        c = carousel_of(p, pairs)
        matrix = hasse_matrix(c)
        for _ in range(50):
            k = Weight(tuple(rng.randint(-(10**6), 10**6) for _ in range(c.d)))
            y = hasse_coordinates(c, k)
            for i, row in enumerate(matrix):
                assert sum(a * v for a, v in zip(row, y)) == k[i]


def test_coordinates_linearity():
    rng = random.Random(42)
    c = carousel_of(2, [(2, 2)])
    for _ in range(50):
        k1 = Weight(tuple(rng.randint(-50, 50) for _ in range(4)))
        k2 = Weight(tuple(rng.randint(-50, 50) for _ in range(4)))
        lhs = hasse_coordinates(c, Weight(tuple(x + y for x, y in zip(k1, k2))))
        rhs = tuple(a + b for a, b in zip(hasse_coordinates(c, k1), hasse_coordinates(c, k2)))
        assert lhs == rhs


def test_coordinate_denominators_divide_lattice_index():
    rng = random.Random(43)
    for profile in exhaustive_profiles((2, 3), dmax=5):
        c = build_carousel(profile)
        index = hasse_lattice_index(profile)
        for _ in range(10):
            k = Weight(tuple(rng.randint(-20, 20) for _ in range(c.d)))
            for v in hasse_coordinates(c, k):
                assert index % v.denominator == 0


def test_three_solver_routes_agree():
    # the orbit closed form and the test-local Fraction elimination must
    # produce the same coordinates
    rng = random.Random(44)
    for _ in range(30):
        profile = random_profile(rng, (2, 3, 5), dmax=7)
        c = build_carousel(profile)
        k = Weight(tuple(rng.randint(-30, 30) for _ in range(c.d)))
        assert hasse_coordinates(c, k) == oracle_coordinates(c, k), (profile, k)


def test_scaled_coordinates_equal_fraction_oracle_exhaustive():
    # numerators and denominator, not only the fractions they make: the
    # numerators are y * L for the Fraction solve y, with L the lattice index
    rng = random.Random(45)
    for profile in exhaustive_profiles((2, 3, 5, 7), dmax=6):
        c = build_carousel(profile)
        index = hasse_lattice_index(profile)
        for _ in range(3):
            k = Weight(tuple(rng.randint(-50, 50) for _ in range(c.d)))
            scaled = [v * index for v in oracle_coordinates(c, k)]
            assert all(v.denominator == 1 for v in scaled), (profile, k)
            assert coordinates_scaled(c, k) == (tuple(map(int, scaled)), index), (profile, k)


def _assert_solves(c, k, y):
    for i, row in enumerate(hasse_matrix(c)):
        assert sum(a * v for a, v in zip(row, y) if a) == k[i], (c.profile, i)


def test_coordinates_on_random_profiles_up_to_degree_16():
    rng = random.Random(46)
    for _ in range(25):
        profile = random_profile(rng, (2, 3, 5, 7, 101, MERSENNE_61), dmax=16, dmin=9)
        c = build_carousel(profile)
        k = Weight(tuple(rng.randint(-(10**6), 10**6) for _ in range(c.d)))
        y = hasse_coordinates(c, k)
        _assert_solves(c, k, y)
        assert y == oracle_coordinates(c, k), (profile, k)


def test_coordinates_at_degree_64_over_a_large_prime():
    rng = random.Random(47)
    mixed = [(1, 16), (2, 8), (4, 4), (1, 8)] + [(1, 1)] * 8
    for pairs in ([(1, 64)], [(64, 1)], [(1, 1)] * 64, mixed):
        c = carousel_of(MERSENNE_61, pairs)
        k = Weight(tuple(rng.randint(-(10**18), 10**18) for _ in range(64)))
        y = hasse_coordinates(c, k)
        _assert_solves(c, k, y)
        assert all(hasse_lattice_index(c.profile) % v.denominator == 0 for v in y)


def test_scaled_coordinates_have_positive_denominator():
    c = carousel_of(2, [(1, 2)])
    nums, den = coordinates_scaled(c, Weight((0, 1)))
    assert den > 0
    assert (Fraction(nums[0], den), Fraction(nums[1], den)) == (Fraction(2, 3), Fraction(1, 3))


def test_orbit_solve_refuses_a_carousel_with_wrong_multipliers():
    # the walk back around the orbit imposes every row of M y = k but one;
    # with n_tau not multiplying to p**f around the orbit, that row fails
    c = carousel_of(2, [(1, 3)])
    assert coordinates_scaled(c, Weight((1, 0, 0)))[1] == 7
    wrong = dataclasses.replace(c, n_table=(3,) + c.n_table[1:])
    with pytest.raises(InternalCheckError, match="^orbit solve fails row 0 of M y = k$"):
        coordinates_scaled(wrong, Weight((1, 0, 0)))


def test_weight_algebra():
    a = Weight((1, 2))
    assert len(a) == 2
    assert a[1] == 2
    assert list(a) == [1, 2]
    assert a == Weight([1, 2])


def test_weight_rejects_non_integers():
    # int() used to truncate 1.5 and parse "7" without a word
    for bad in ((1.5, 2), ("7", 2), (1.5, "7", True), (Fraction(1, 2), 0), (None, 1), (True, 0)):
        with pytest.raises(SchemaError):
            Weight(bad)
    # anything with __index__ but bool is an integer, and is stored as a plain int
    k = Weight((np.int64(3), 2))
    assert k.coords == (3, 2)
    assert type(k.coords[0]) is int


def test_check_weight_rejects_wrong_length():
    c = carousel_of(2, [(2, 1)])
    with pytest.raises(DimensionMismatch):
        check_weight(c, Weight((1, 2, 3)))
    with pytest.raises(DimensionMismatch):
        hasse_coordinates(c, Weight((1,)))
