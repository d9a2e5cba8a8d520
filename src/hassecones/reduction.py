"""Reduction of weights toward the minimal cone, and decomposition search.

A direction tau is reducible at k when n_tau * k_tau < k_{sigma^{-1} tau};
subtracting the Hasse weight h_tau then preserves the space of forms, and in
Hasse coordinates it decrements y_tau by exactly 1.  h_tau has two nonzero
entries (Carousel.hasse_column), so every walk below keeps its weight as a
list, moves those two entries per step, and builds a Weight only for what
it returns.  Greedy reduction walks
earliest-reducible-first until it lands in C^min or detects a negative Hasse
coordinate of the current weight (a weight-level vanishing certificate),
after at most floor(sum_tau y_tau(k)) + 1 steps (see greedy_reduce), and
refuses a walk longer than MAX_REDUCE_STEPS.

Decompositions k = w + sum a_tau h_tau with w in C^min and integral a >= 0
are enumerated exactly, one locus at a time: a_tau <= floor(y_tau(k)), since
y(w) = y(k) - a is nonnegative, and each C^min row reads three exponents of
its own locus (see _decompositions).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .carousel import Carousel
from .errors import InvariantError, ReductionTooLong
from .hasse import Weight, check_weight, coordinates_scaled
from .profile import integer_entries

# One greedy step costs a few microseconds, so a walk at the cap takes
# seconds; a weight allowed by the CLI's 10,000-bit cap can need about
# 2**10000 steps.
MAX_REDUCE_STEPS = 2**20


def _reducible(c: Carousel, coords):
    """Positions j with n_j k_j < k_{sigma^{-1} j}, ascending: the C^min normals negative on k."""
    n, sigma_inv = c.n_table, c.sigma_inv_table
    return (j for j in range(c.d) if n[j] * coords[j] < coords[sigma_inv[j]])


def _subtract_hasse(c: Carousel, w: list[int], j: int, mult: int = 1) -> None:
    """w -= mult * h_j in place; only the two entries of h_j move."""
    w[c.sigma_inv_table[j]] -= mult * c.n_table[j]
    w[j] += mult


def reducible_directions(c: Carousel, k: Weight) -> tuple[int, ...]:
    """Positions j with n_j k_j < k_{sigma^{-1} j}, ascending."""
    check_weight(c, k)
    return tuple(_reducible(c, k.coords))


@dataclass(frozen=True)
class Decomposition:
    """k = w + sum a_tau h_tau with w in C^min and a integral nonnegative."""

    w: Weight
    a: tuple[int, ...]


def make_decomposition(c: Carousel, k: Weight, a) -> Decomposition:
    """Build a Decomposition from exponents a, checking every invariant."""
    check_weight(c, k)
    a = integer_entries(a, "a decomposition exponent")
    if len(a) != c.d:
        raise InvariantError(f"exponent vector has length {len(a)}, expected {c.d}")
    if any(v < 0 for v in a):
        raise InvariantError("decomposition exponents must be nonnegative")
    w = list(k.coords)
    for j, mult in enumerate(a):
        _subtract_hasse(c, w, j, mult)
    if next(_reducible(c, w), None) is not None:
        raise InvariantError(f"w = {tuple(w)} is not in the minimal cone")
    return Decomposition(Weight(tuple(w)), a)


@dataclass(frozen=True)
class InMinCone:
    """Greedy reduction ended inside C^min with the accumulated exponents."""

    decomposition: Decomposition
    steps: tuple[int, ...]


@dataclass(frozen=True)
class Vanishing:
    """A weight reached by valid reduction steps left the Hasse cone.

    `weight` is the weight at detection (the input itself when no steps were
    taken) and `coordinate` its offending Hasse coordinate y_tau < 0.  This
    certifies that the space of forms in the original weight is zero; when
    steps is empty it also certifies the input lies outside C^Hasse.
    """

    tau: int
    coordinate: Fraction
    weight: Weight
    steps: tuple[int, ...]


ReductionOutcome = InMinCone | Vanishing


def greedy_reduce(c: Carousel, k: Weight) -> ReductionOutcome:
    """Repeatedly step along the earliest reducible direction.

    Before each step the current weight's Hasse coordinates are checked; the
    first negative one returns Vanishing.  The walk always ends: a step is
    taken only when every coordinate is >= 0, and each step lowers one
    coordinate, hence sum_tau y_tau, by exactly 1.  So after s steps the sum
    is sum_tau y_tau(k) - s, and step s + 1 needs it to be >= 0: the walk
    takes at most floor(sum_tau y_tau(k)) + 1 steps, and none when a
    coordinate of y(k) is negative.  A step lowers only y_tau, so after it
    only that coordinate can have turned negative.  A walk that would take
    step MAX_REDUCE_STEPS + 1 raises ReductionTooLong instead.
    """
    nums, den = coordinates_scaled(c, k)
    for j, num in enumerate(nums):
        if num < 0:
            return Vanishing(j, Fraction(num, den), k, ())
    nums = list(nums)
    w = list(k.coords)
    a = [0] * c.d
    steps: list[int] = []
    while (j := next(_reducible(c, w), None)) is not None:
        if len(steps) == MAX_REDUCE_STEPS:
            raise ReductionTooLong(
                f"greedy reduction would take step {MAX_REDUCE_STEPS + 1}, "
                f"above MAX_REDUCE_STEPS = {MAX_REDUCE_STEPS}"
            )
        _subtract_hasse(c, w, j)
        a[j] += 1
        steps.append(j)
        nums[j] -= den
        if nums[j] < 0:
            return Vanishing(j, Fraction(nums[j], den), Weight(tuple(w)), tuple(steps))
    return InMinCone(make_decomposition(c, k, a), tuple(steps))


def _decompositions(c: Carousel, k: Weight, keep) -> tuple[Decomposition, ...]:
    """keep(each locus's exponents, lexicographic), multiplied out with the first locus slowest.

    At offset t of a block, w_t = k_t + a_t - n_{t+1} a_{t+1} (mod m), so C^min row t - 1 reads
    a_{t-2}, a_{t-1}, a_t: it is checked once a_t is fixed, and then fails for every larger a_t.
    Rows 0 and m - 1 wrap around the orbit and are checked last.
    """
    nums, den = coordinates_scaled(c, k)

    def search(block: range) -> list[tuple[int, ...]]:
        ks, n, top = (seq[block.start : block.stop] for seq in (k.coords, c.n_table, nums))
        m, a, found = len(block), [0] * len(block), []

        def row(t: int) -> bool:
            w_prev, w_t = (ks[s] + a[s] - n[(s + 1) % m] * a[(s + 1) % m] for s in (t - 1, t))
            return n[t] * w_t >= w_prev

        def descend(t: int) -> None:
            if t == m:
                if row(0) and row(m - 1):
                    found.append(tuple(a))
                return
            for a[t] in range(top[t] // den + 1):
                if t >= 2 and not row(t - 1):
                    break
                descend(t + 1)

        descend(0)
        return keep(found)

    return tuple(make_decomposition(c, k, sum(parts, ())) for parts in product(*map(search, c.blocks)))


def enumerate_min_decompositions(c: Carousel, k: Weight) -> tuple[Decomposition, ...]:
    """All decompositions k = w + sum a_tau h_tau, lexicographic in a; empty when none is integral."""
    return _decompositions(c, k, list)


def pareto_maximal_decompositions(c: Carousel, k: Weight) -> tuple[Decomposition, ...]:
    """The decompositions with componentwise-maximal a, in lexicographic a order.

    The maximal elements of a product order are the products of the factors'
    maximal elements, so each locus's list is filtered before the product.
    """
    return _decompositions(
        c, k, lambda found: [a for a in found if [b for b in found if all(map(operator.ge, b, a))] == [a]]
    )
