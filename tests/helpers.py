"""Shared test utilities: profile builders, exhaustive sweeps, the exact
elimination the tests take determinants and solves from, the single
reduction step and stratum closure the tests walk by hand, and the `picard`
report row of one open stratum, built from its bitstring without
`hassecones.strata`.

Plain Gaussian elimination over Fraction (fraction_determinant,
fraction_inverse, fraction_solve and the Hasse coordinates oracle_coordinates
reads off it) is the one reference for determinants and linear solves, and
blind box search the one for decompositions, so that agreement with the
library is a real cross-check and not the same algorithm run twice.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import prod

from hassecones import (
    PrimeLocus,
    SplittingProfile,
    Weight,
    build_carousel,
)
from oracles import invariant_factors

# The profile panel used by the embedded selftest, as (p, pairs) specs.
PANEL_SPECS = (
    (2, ((2, 1),)),
    (2, ((1, 2),)),
    (3, ((1, 1), (1, 1))),
    (2, ((2, 2),)),
    (5, ((1, 3),)),
    (2, ((3, 1), (1, 1))),
)


def profile_of(p, pairs):
    return SplittingProfile(p, tuple(PrimeLocus(e, f) for e, f in pairs))


def carousel_of(p, pairs):
    return build_carousel(profile_of(p, pairs))


def panel_carousels():
    return [carousel_of(p, pairs) for p, pairs in PANEL_SPECS]


# The largest degree the input contract allows: inert, ramified and totally
# split at the largest prime below 2^64, and eight (2, 4) loci at p = 3.
DEGREE_64_PANEL = (
    profile_of(2**64 - 59, [(1, 64)]),
    profile_of(2**64 - 59, [(64, 1)]),
    profile_of(2**64 - 59, [(1, 1)] * 64),
    profile_of(3, [(2, 4)] * 8),
)


def locus_multisets(d):
    """Every multiset of (e, f) pairs with sum of e*f equal to d.

    Pairs are chosen from a sorted list with a nondecreasing index floor, so
    each multiset is produced exactly once, in a deterministic order.
    """
    pairs = []
    for m in range(1, d + 1):
        for e in range(1, m + 1):
            if m % e == 0:
                pairs.append((e, m // e))
    pairs.sort()
    found = []

    def extend(start, remaining, acc):
        if remaining == 0:
            found.append(tuple(acc))
            return
        for idx in range(start, len(pairs)):
            e, f = pairs[idx]
            if e * f <= remaining:
                acc.append((e, f))
                extend(idx, remaining - e * f, acc)
                acc.pop()

    extend(0, d, [])
    return found


def exhaustive_profiles(primes, dmax, dmin=2):
    """All profiles with degree in [dmin, dmax] over the given primes."""
    for d in range(dmin, dmax + 1):
        for pairs in locus_multisets(d):
            for p in primes:
                yield profile_of(p, pairs)


def random_profile(rng, primes, dmax, dmin=2):
    """A random profile: carve the degree into (e, f) blocks one at a time."""
    d = rng.randint(dmin, dmax)
    pairs = []
    remaining = d
    while remaining:
        m = rng.randint(1, remaining)
        e = rng.choice([v for v in range(1, m + 1) if m % v == 0])
        pairs.append((e, m // e))
        remaining -= m
    return profile_of(rng.choice(primes), pairs)


def ceil_frac(v: Fraction) -> int:
    return -((-v.numerator) // v.denominator)


def floor_frac(v: Fraction) -> int:
    return v.numerator // v.denominator


def fraction_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def fraction_determinant(rows) -> int:
    """Textbook Gaussian elimination over Fraction, no fraction-free tricks."""
    n = len(rows)
    if n == 0:
        return 1
    mat = fraction_matrix(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = Fraction(1) / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    assert det.denominator == 1
    return int(det)


def fraction_inverse(rows):
    """Inverse of a square integer matrix as a Fraction matrix."""
    n = len(rows)
    mat = [[Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = Fraction(1) / mat[col][col]
        mat[col] = [v * inv for v in mat[col]]
        for r in range(n):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [row[n:] for row in mat]


def fraction_solve(rows, rhs):
    inv = fraction_inverse(rows)
    return tuple(sum(a * Fraction(b) for a, b in zip(row, rhs)) for row in inv)


def hasse_columns(c):
    return [c.hasse_column(j) for j in range(c.d)]


def oracle_coordinates(c, k):
    """Hasse coordinates via plain Fraction elimination (library-independent)."""
    d = c.d
    cols = hasse_columns(c)
    rows = [[cols[j][i] for j in range(d)] for i in range(d)]
    return fraction_solve(rows, tuple(k))


def brute_force_decompositions(c, k):
    """Blind box search for decompositions k = w + sum a_tau h_tau, w in C^min.

    The box is [0, A]^d with A = max(0, max_tau ceil(y_tau)), which contains
    every valid exponent vector because a = y(k) - y(w) and y(w) >= 0.  No
    pruning, no per-coordinate bounds, so this stays structurally different
    from the library's depth-first search.
    """
    d = c.d
    y = oracle_coordinates(c, k)
    bound = max([0] + [ceil_frac(v) for v in y])
    cols = hasse_columns(c)
    n_table = c.n_table
    sigma_inv = c.sigma_inv_table
    out = set()
    base = tuple(k)
    for a in product(range(bound + 1), repeat=d):
        w = list(base)
        for j, mult in enumerate(a):
            if mult:
                col = cols[j]
                for i in range(d):
                    w[i] -= mult * col[i]
        if all(n_table[t] * w[t] >= w[sigma_inv[t]] for t in range(d)):
            out.add((tuple(w), a))
    return out


def weight_box(d, radius):
    """All integer weights with entries in [-radius, radius]."""
    for coords in product(range(-radius, radius + 1), repeat=d):
        yield Weight(coords)


def reduce_step(c, k, j):
    """k - h_j; ValueError unless position j is reducible at k."""
    if c.n_table[j] * k[j] >= k[c.sigma_inv_table[j]]:
        raise ValueError(f"{c.labels[j]} is not a reducible direction at {tuple(k)}")
    return Weight(tuple(x - h for x, h in zip(k, c.hasse_column(j))))


def closure_set(bits):
    """All supersets of the stratum bits (the strata in its closure), in bitstring order."""
    rest = [j for j, ch in enumerate(bits) if ch == "0"]
    out = []
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            out.append("".join("1" if j in extra else ch for j, ch in enumerate(bits)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _diagonal_factors(moduli):
    """Smith-form invariant factors of diag(moduli), moduli sorted."""
    return invariant_factors([[m if i == j else 0 for j in range(len(moduli))] for i, m in enumerate(moduli)])


def stratum_row(c, text):
    """The `picard` report row of the open stratum with bitstring text.

    Each locus P closes up into Z/a_P, a_P = p**f - (-1)**t with t the ones
    of text over P's embeddings, contributing e*f - 1 unit factors; the
    verdict is whether each a_P divides p**(2f) - 1.
    """
    p = c.profile.p
    moduli, orders, within = [], [], True
    offset = 0
    for locus in c.profile.loci:
        size = locus.e * locus.f
        a = p**locus.f - (-1) ** text[offset : offset + size].count("1")
        moduli.append(a)
        orders.extend([a] * size)
        within = within and (p ** (2 * locus.f) - 1) % a == 0
        offset += size
    return {
        "stratum": text,
        "dimension": len(text) - text.count("1"),
        "invariant_factors": [1] * (len(text) - len(moduli)) + list(_diagonal_factors(tuple(sorted(moduli)))),
        "torsion_orders": orders,
        "group_order": prod(moduli),
        "divisibility": "pass" if within else "fail",
    }
