"""Greedy weight reduction, vanishing certificates, decomposition search.

The enumeration is checked against a blind box-search oracle (helpers), and
greedy outcomes are tied to the enumeration: InMinCone results must appear in
the enumerated set, and Vanishing must coincide with the set being empty.

Note the deliberate pair of frozen cases where the input weight lies inside
the rational Hasse cone yet no integral decomposition exists; reduction then
walks to a weight with a negative coordinate.  The certificate is about the
weight reached, not about the input leaving the cone.
"""

import random
from fractions import Fraction

import pytest

from hassecones import (
    Decomposition,
    InMinCone,
    InvariantError,
    ReductionTooLong,
    SchemaError,
    Vanishing,
    Weight,
    build_carousel,
    contains,
    enumerate_min_decompositions,
    greedy_reduce,
    hasse_contains,
    hasse_coordinates,
    make_decomposition,
    min_cone,
    pareto_maximal_decompositions,
    reducible_directions,
)
from hassecones import reduction

from helpers import (
    brute_force_decompositions,
    carousel_of,
    floor_frac,
    random_profile,
    reduce_step,
    weight_box,
)

SWEEP_SPECS = (
    (2, ((2, 1),)),
    (2, ((1, 2),)),
    (3, ((1, 1), (1, 1))),
    (5, ((1, 3),)),
    (2, ((1, 1), (2, 1))),
)


def _as_pairs(decompositions):
    return {(tuple(dec.w), dec.a) for dec in decompositions}


def test_reducible_directions_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert reducible_directions(c, Weight((0, 1))) == (0,)
    assert reducible_directions(c, Weight((1, -1))) == (1,)
    assert reducible_directions(c, Weight((0, 0))) == ()


def test_reducible_matches_min_cone_membership():
    c = carousel_of(2, [(2, 2)])
    for k in weight_box(c.d, 2):
        assert (reducible_directions(c, k) == ()) == contains(min_cone(c), k).member


def test_reduce_step_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert tuple(reduce_step(c, Weight((0, 1)), 0)) == (1, -1)
    assert tuple(reduce_step(c, Weight((1, -1)), 1)) == (0, 0)


def test_reduce_step_requires_reducibility():
    c = carousel_of(2, [(2, 1)])
    with pytest.raises(ValueError):
        reduce_step(c, Weight((0, 0)), 0)


def test_reduce_step_decrements_one_hasse_coordinate():
    rng = random.Random(61)
    checked = 0
    while checked < 400:
        profile = random_profile(rng, (2, 3, 5), dmax=6)
        c = build_carousel(profile)
        k = Weight(tuple(rng.randint(-6, 6) for _ in range(c.d)))
        directions = reducible_directions(c, k)
        if not directions:
            continue
        j = rng.choice(directions)
        before = hasse_coordinates(c, k)
        after = hasse_coordinates(c, reduce_step(c, k, j))
        expected = tuple(v - 1 if i == j else v for i, v in enumerate(before))
        assert after == expected
        checked += 1


def test_greedy_worked_example_two_steps():
    c = carousel_of(2, [(2, 1)])
    outcome = greedy_reduce(c, Weight((0, 1)))
    assert isinstance(outcome, InMinCone)
    assert tuple(outcome.decomposition.w) == (0, 0)
    assert outcome.decomposition.a == (1, 1)
    assert outcome.steps == (0, 1)


def test_greedy_worked_example_vanishing():
    c = carousel_of(2, [(2, 1)])
    outcome = greedy_reduce(c, Weight((-1, 0)))
    assert isinstance(outcome, Vanishing)
    assert outcome.tau == 0
    assert outcome.coordinate == Fraction(-1)
    # detected before any step: the certificate is about the input itself
    assert outcome.steps == ()
    assert tuple(outcome.weight) == (-1, 0)


def test_greedy_worked_example_already_minimal():
    c = carousel_of(2, [(2, 1)])
    outcome = greedy_reduce(c, Weight((2, 3)))
    assert isinstance(outcome, InMinCone)
    assert tuple(outcome.decomposition.w) == (2, 3)
    assert outcome.decomposition.a == (0, 0)
    assert outcome.steps == ()


def test_greedy_soundness_of_in_min_cone():
    rng = random.Random(62)
    for p, pairs in SWEEP_SPECS:
        c = carousel_of(p, pairs)
        columns = [c.hasse_column(j) for j in range(c.d)]
        for _ in range(60):
            k = Weight(tuple(rng.randint(-5, 5) for _ in range(c.d)))
            outcome = greedy_reduce(c, k)
            if not isinstance(outcome, InMinCone):
                continue
            w, a = outcome.decomposition.w, outcome.decomposition.a
            assert reducible_directions(c, w) == ()
            assert all(v >= 0 for v in a)
            rebuilt = list(w.coords)
            for j, mult in enumerate(a):
                for i in range(c.d):
                    rebuilt[i] += mult * columns[j][i]
            assert tuple(rebuilt) == tuple(k)


def test_enumerate_worked_examples():
    c = carousel_of(2, [(2, 1)])
    only = enumerate_min_decompositions(c, Weight((0, 1)))
    assert _as_pairs(only) == {((0, 0), (1, 1))}
    trivial = enumerate_min_decompositions(c, Weight((0, 0)))
    assert _as_pairs(trivial) == {((0, 0), (0, 0))}
    assert enumerate_min_decompositions(c, Weight((-1, 0))) == ()


def _assert_strictly_lexicographic(decompositions, case):
    exponents = [dec.a for dec in decompositions]
    assert all(x < y for x, y in zip(exponents, exponents[1:])), case


def test_enumerate_matches_box_oracle_on_small_sweeps():
    for p, pairs in SWEEP_SPECS:
        c = carousel_of(p, pairs)
        if c.d > 3:
            continue
        for k in weight_box(c.d, 4):
            decompositions = enumerate_min_decompositions(c, k)
            assert _as_pairs(decompositions) == brute_force_decompositions(c, k), (p, pairs, tuple(k))
            _assert_strictly_lexicographic(decompositions, (p, pairs, tuple(k)))


def test_enumerate_matches_box_oracle_on_two_non_split_loci():
    # the search runs per locus and multiplies the lists out; with two
    # non-split loci neither factor is a single coordinate
    rng = random.Random(64)
    c = carousel_of(3, [(2, 1), (1, 2)])
    several = 0
    for _ in range(150):
        k = Weight(tuple(rng.randint(-3, 6) for _ in range(c.d)))
        decompositions = enumerate_min_decompositions(c, k)
        assert _as_pairs(decompositions) == brute_force_decompositions(c, k), tuple(k)
        _assert_strictly_lexicographic(decompositions, tuple(k))
        several += len(decompositions) > 1
    assert several >= 10


def test_greedy_never_exhausts_budget_on_sweeps():
    for p, pairs in SWEEP_SPECS:
        c = carousel_of(p, pairs)
        if c.d > 3:
            continue
        for k in weight_box(c.d, 4):
            # the walk steps only while every coordinate is >= 0 and lowers
            # their sum by 1 each time, so it ends within floor(sum y) + 1 steps
            # (none at all when the sum is below -1: a coordinate is negative)
            outcome = greedy_reduce(c, k)
            assert isinstance(outcome, (InMinCone, Vanishing)), (p, pairs, tuple(k))
            bound = floor_frac(sum(hasse_coordinates(c, k))) + 1
            assert len(outcome.steps) <= max(0, bound), (p, pairs, tuple(k))


def test_greedy_in_min_cone_is_enumerated():
    for p, pairs in SWEEP_SPECS:
        c = carousel_of(p, pairs)
        if c.d > 3:
            continue
        for k in weight_box(c.d, 4):
            outcome = greedy_reduce(c, k)
            if isinstance(outcome, InMinCone):
                pair = (tuple(outcome.decomposition.w), outcome.decomposition.a)
                assert pair in _as_pairs(enumerate_min_decompositions(c, k))


LEAST_ACTION_SPECS = SWEEP_SPECS + ((2, ((2, 2),)), (3, ((2, 1), (1, 2))))


def test_greedy_lands_on_the_least_decomposition():
    # When greedy ends in C^min its exponents are the componentwise minimum of
    # all decompositions, and that minimum is itself a decomposition.
    landed = 0
    for p, pairs in LEAST_ACTION_SPECS:
        c = carousel_of(p, pairs)
        for k in weight_box(c.d, 3):
            outcome = greedy_reduce(c, k)
            if not isinstance(outcome, InMinCone):
                continue
            exponents = [dec.a for dec in enumerate_min_decompositions(c, k)]
            least = tuple(map(min, zip(*exponents)))
            assert outcome.decomposition.a == least, (p, pairs, tuple(k))
            assert least in exponents, (p, pairs, tuple(k))
            landed += 1
    # 844 of the 3 * 7^2 + 2 * 7^3 + 2 * 7^4 = 5,635 weights land in C^min
    assert landed == 844


def test_vanishing_iff_no_decomposition():
    # Greedy reaches a negative coordinate exactly when the decomposition
    # set is empty; this is the sharp statement that holds at weight level.
    for p, pairs in SWEEP_SPECS:
        c = carousel_of(p, pairs)
        if c.d > 3:
            continue
        for k in weight_box(c.d, 4):
            vanished = isinstance(greedy_reduce(c, k), Vanishing)
            assert vanished == (enumerate_min_decompositions(c, k) == ()), (p, pairs, tuple(k))


def test_outside_hasse_cone_means_immediate_vanishing():
    for p, pairs in SWEEP_SPECS:
        c = carousel_of(p, pairs)
        if c.d > 3:
            continue
        for k in weight_box(c.d, 3):
            if hasse_contains(c, k).member:
                continue
            outcome = greedy_reduce(c, k)
            assert isinstance(outcome, Vanishing)
            assert outcome.steps == ()
            assert tuple(outcome.weight) == tuple(k)


def test_integral_obstruction_inside_rational_cone():
    # k = (0,1) on the inert quadratic: Hasse coordinates (2/3, 1/3) are
    # nonnegative, yet no integral decomposition exists.  The forced first
    # step lands on (1,-1) whose first coordinate is -1/3.
    c = carousel_of(2, [(1, 2)])
    k = Weight((0, 1))
    assert hasse_contains(c, k).member
    assert hasse_coordinates(c, k) == (Fraction(2, 3), Fraction(1, 3))
    assert enumerate_min_decompositions(c, k) == ()
    outcome = greedy_reduce(c, k)
    assert isinstance(outcome, Vanishing)
    assert outcome.steps == (0,)
    assert tuple(outcome.weight) == (1, -1)
    assert outcome.coordinate == Fraction(-1, 3)


def test_integral_obstruction_in_degree_four():
    c = carousel_of(2, [(2, 2)])
    k = Weight((1, 0, 0, 0))
    assert hasse_contains(c, k).member
    assert enumerate_min_decompositions(c, k) == ()
    assert isinstance(greedy_reduce(c, k), Vanishing)


def test_pareto_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert _as_pairs(pareto_maximal_decompositions(c, Weight((0, 1)))) == {((0, 0), (1, 1))}
    assert _as_pairs(pareto_maximal_decompositions(c, Weight((0, 0)))) == {((0, 0), (0, 0))}


def test_pareto_picks_maximal_exponents():
    # the split cubic-free case: diag(2,2) matrix, four decompositions of (2,2)
    c = carousel_of(3, [(1, 1), (1, 1)])
    k = Weight((2, 2))
    every = _as_pairs(enumerate_min_decompositions(c, k))
    assert every == {
        ((2, 2), (0, 0)),
        ((0, 2), (1, 0)),
        ((2, 0), (0, 1)),
        ((0, 0), (1, 1)),
    }
    assert _as_pairs(pareto_maximal_decompositions(c, k)) == {((0, 0), (1, 1))}


def _maximal_pairs(pairs):
    """The (w, a) pairs whose a no other pair's a dominates componentwise."""
    return {
        (w, a)
        for w, a in pairs
        if not any(b != a and all(x >= y for x, y in zip(b, a)) for _, b in pairs)
    }


def test_pareto_subset_and_coverage():
    # The reference is the box oracle's set, not the library's enumeration.
    rng = random.Random(63)
    for p, pairs in SWEEP_SPECS + ((3, ((2, 1), (1, 2))),):
        c = carousel_of(p, pairs)
        for _ in range(40):
            k = Weight(tuple(rng.randint(-3, 5) for _ in range(c.d)))
            case = (p, pairs, tuple(k))
            every = brute_force_decompositions(c, k)
            maximal = pareto_maximal_decompositions(c, k)
            assert _as_pairs(maximal) == _maximal_pairs(every), case
            _assert_strictly_lexicographic(maximal, case)
            # every decomposition sits below some maximal one
            for _, a in every:
                assert any(all(x >= y for x, y in zip(m.a, a)) for m in maximal), case


def test_make_decomposition_validates():
    c = carousel_of(2, [(2, 1)])
    dec = make_decomposition(c, Weight((0, 1)), (1, 1))
    assert tuple(dec.w) == (0, 0)
    with pytest.raises(InvariantError):
        make_decomposition(c, Weight((0, 1)), (1,))  # wrong length
    with pytest.raises(InvariantError):
        make_decomposition(c, Weight((0, 1)), (-1, 0))  # negative exponent
    with pytest.raises(InvariantError):
        make_decomposition(c, Weight((0, 1)), (0, 0))  # w = k is not minimal
    # refused, not read as (1, 1) the way int() would read them
    for a in [(1.9, 1.2), (1.0, 1), ("1", 1), ("1", True), (True, 1), (1, None)]:
        with pytest.raises(SchemaError, match="a decomposition exponent must be an integer"):
            make_decomposition(c, Weight((0, 1)), a)


def test_enumeration_order_is_deterministic():
    c = carousel_of(3, [(1, 1), (1, 1)])
    k = Weight((4, 2))
    first = enumerate_min_decompositions(c, k)
    second = enumerate_min_decompositions(c, k)
    assert first == second
    exponents = [dec.a for dec in first]
    assert exponents == sorted(exponents)


def test_greedy_builds_a_constant_number_of_weights(monkeypatch):
    # The walk keeps its weight as a list; only the returned outcome holds a
    # Weight, however many steps the walk takes.
    c = carousel_of(2, [(1, 2)])
    built = []
    check = Weight.__post_init__
    monkeypatch.setattr(Weight, "__post_init__", lambda self: (built.append(1), check(self))[1])
    counts = []
    for m in (10, 1000):
        k = Weight((-m, 2 * m))
        built.clear()
        outcome = greedy_reduce(c, k)
        assert isinstance(outcome, InMinCone) and len(outcome.steps) >= m
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2


def test_greedy_refuses_a_walk_longer_than_the_cap(monkeypatch):
    # k = (-m, 2m) on the inert (1, 2) locus at p = 2 takes exactly m steps
    c = carousel_of(2, [(1, 2)])
    k = Weight((-1000, 2000))
    assert len(greedy_reduce(c, k).steps) == 1000
    monkeypatch.setattr(reduction, "MAX_REDUCE_STEPS", 1000)
    assert len(greedy_reduce(c, k).steps) == 1000
    monkeypatch.setattr(reduction, "MAX_REDUCE_STEPS", 999)
    with pytest.raises(ReductionTooLong, match="step 1000, above MAX_REDUCE_STEPS = 999"):
        greedy_reduce(c, k)
