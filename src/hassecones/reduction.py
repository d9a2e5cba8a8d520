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
are enumerated exactly: since y(w) = y(k) - a must be componentwise
nonnegative, each a_tau ranges over [0, floor(y_tau(k))].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .carousel import Carousel
from .errors import InvariantError, ReductionTooLong
from .hasse import Weight, check_weight, coordinates_scaled

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
    a = tuple(int(v) for v in a)
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


def enumerate_min_decompositions(c: Carousel, k: Weight) -> tuple[Decomposition, ...]:
    """All decompositions k = w + sum a_tau h_tau, in lexicographic a order.

    Empty when k has a negative Hasse coordinate (no integral a can exist)
    and also when the cone membership is rational-only, i.e. y(k) >= 0 but no
    integral exponent choice lands in C^min.
    """
    nums, den = coordinates_scaled(c, k)
    if any(num < 0 for num in nums):
        return ()
    bounds = [num // den for num in nums]
    d = c.d
    found: list[Decomposition] = []
    a = [0] * d
    w = list(k.coords)

    def descend(j: int) -> None:
        if j == d:
            if next(_reducible(c, w), None) is None:
                found.append(Decomposition(Weight(tuple(w)), tuple(a)))
            return
        descend(j + 1)
        for step in range(bounds[j]):
            a[j] = step + 1
            _subtract_hasse(c, w, j)
            descend(j + 1)
        _subtract_hasse(c, w, j, -bounds[j])
        a[j] = 0

    descend(0)
    return tuple(found)


def pareto_maximal_decompositions(c: Carousel, k: Weight) -> tuple[Decomposition, ...]:
    """The componentwise-maximal exponent vectors among all decompositions."""
    all_decs = enumerate_min_decompositions(c, k)
    out = []
    for dec in all_decs:
        dominated = any(
            other is not dec
            and all(x >= y for x, y in zip(other.a, dec.a))
            and other.a != dec.a
            for other in all_decs
        )
        if not dominated:
            out.append(dec)
    return tuple(out)
