"""Exact integer linear algebra against plain Fraction-based oracles.

Rank, the Bareiss solve and the adjugate are no longer library code; their
tests run against the copies in tests/oracles.py, which other tests use as
the reference for the closed forms.
"""

import random

import pytest

from hassecones.intlinalg import bareiss_determinant, content, dot, primitive

from helpers import fraction_determinant, fraction_rank
from oracles import adjugate_with_det, mat_vec, rank, solve_exact


def _random_matrix(rng, n, m=None, lo=-9, hi=9):
    m = n if m is None else m
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_bareiss_matches_fraction_gauss():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = _random_matrix(rng, n)
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


def test_rank_matches_fraction_gauss():
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = _random_matrix(rng, n, m, lo=-3, hi=3)
        assert rank(rows) == fraction_rank(rows)


def test_rank_of_dependent_rows():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_solve_exact_round_trip():
    rng = random.Random(33)
    solved = 0
    while solved < 100:
        n = rng.randint(1, 6)
        rows = _random_matrix(rng, n)
        if bareiss_determinant(rows) == 0:
            continue
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        x = solve_exact(rows, rhs)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
        solved += 1


def test_solve_exact_rejects_singular():
    with pytest.raises(ValueError):
        solve_exact([[1, 2], [2, 4]], [1, 1])


def test_adjugate_identity():
    rng = random.Random(34)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 5)
        rows = _random_matrix(rng, n, lo=-5, hi=5)
        det = bareiss_determinant(rows)
        if det == 0:
            continue
        adj, det_again = adjugate_with_det(rows)
        assert det_again == det
        # A . adj(A) = det(A) . I
        for i in range(n):
            got = mat_vec(rows, tuple(adj[r][i] for r in range(n)))
            expected = tuple(det if r == i else 0 for r in range(n))
            assert got == expected
        checked += 1


def test_content_and_primitive():
    assert content((4, -6)) == 2
    assert content((0, 0)) == 0
    assert content((0, -5)) == 5
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0, 0)) == (0, 0, 0)
    assert primitive((7,)) == (1,)
    assert primitive((-3, -6)) == (-1, -2)  # direction preserved, gcd removed


def test_dot_is_exact_on_big_integers():
    a = (10**40, -(10**39))
    b = (1, 10)
    assert dot(a, b) == 0
