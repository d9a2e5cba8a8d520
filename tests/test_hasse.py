"""Hasse weight vectors, the Hasse matrix, and exact coordinate solves."""

import random
from fractions import Fraction

import numpy as np
import pytest

from hassecones import (
    DimensionMismatch,
    SchemaError,
    Weight,
    build_carousel,
    determinant_identity,
    hasse_coordinates,
    hasse_lattice_index,
    hasse_matrix,
)
from hassecones.hasse import bareiss_determinant, check_weight, coordinates_scaled

from helpers import (
    carousel_of,
    exhaustive_profiles,
    oracle_coordinates,
    profile_of,
    random_profile,
)
import oracles

MERSENNE_61 = 2**61 - 1


def test_hasse_weight_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert c.hasse_column(0) == (-1, 2)
    assert c.hasse_column(1) == (1, -1)
    split = carousel_of(3, [(1, 1), (1, 1)])
    assert split.hasse_column(0) == (2, 0)
    assert split.hasse_column(1) == (0, 2)


def test_hasse_matrix_worked_examples():
    ramified = hasse_matrix(carousel_of(2, [(2, 1)]))
    assert ramified == ((-1, 1), (2, -1))
    assert bareiss_determinant(ramified) == -1

    split = hasse_matrix(carousel_of(3, [(1, 1), (1, 1)]))
    assert split == ((2, 0), (0, 2))
    assert bareiss_determinant(split) == 4

    inert = hasse_matrix(carousel_of(2, [(1, 2)]))
    assert inert == ((-1, 2), (2, -1))
    assert abs(bareiss_determinant(inert)) == 3


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


def test_determinant_identity_exhaustive_small():
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        c = build_carousel(profile)
        det = bareiss_determinant(hasse_matrix(c))
        assert abs(det) == hasse_lattice_index(profile), profile
        assert determinant_identity(profile, det) and determinant_identity(profile, -det), profile
        assert not determinant_identity(profile, det + 1), profile


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
    # the orbit closed form, the cached adjugate solve and direct Bareiss
    # solve of the oracle module, and the test-local Fraction elimination
    # must produce the same coordinates
    rng = random.Random(44)
    for _ in range(30):
        profile = random_profile(rng, (2, 3, 5), dmax=7)
        c = build_carousel(profile)
        k = Weight(tuple(rng.randint(-30, 30) for _ in range(c.d)))
        via_orbits = hasse_coordinates(c, k)
        nums, den = oracles.coordinates_scaled(c, k)
        via_adjugate = tuple(Fraction(num, den) for num in nums)
        via_solve = oracles.solve_exact([list(row) for row in hasse_matrix(c)], list(k))
        via_oracle = oracle_coordinates(c, k)
        assert via_orbits == via_adjugate == tuple(via_solve) == via_oracle


def test_scaled_coordinates_equal_adjugate_oracle_exhaustive():
    # numerators and denominator, not only the fractions they make
    rng = random.Random(45)
    for profile in exhaustive_profiles((2, 3, 5, 7), dmax=6):
        c = build_carousel(profile)
        for _ in range(3):
            k = Weight(tuple(rng.randint(-50, 50) for _ in range(c.d)))
            assert coordinates_scaled(c, k) == oracles.coordinates_scaled(c, k), (profile, k)


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
        assert y == oracle_coordinates(c, k), profile


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
