"""Goren-Oort strata, Picard relation lattices, torsion orders, fibre degrees.

A stratum is labelled by a subset T of Sigma, written as a bitstring over
the canonical positions: character j is 1 exactly when position j is in T,
so the leftmost character is position 0.  Its closed locus has dimension
d - |T| and its closure is the union of strata for supersets of T.  On the
open part of the stratum each line bundle omega_tau is forced against its
shifted neighbour, one integer relation row per embedding:

    row_tau = e_tau + s_tau * n_tau * e_{sigma^{-1} tau},
    s_tau = +1 if tau in T else -1.

The rows are block-diagonal over loci, and each block follows one
sigma-orbit, so the quotient of Z^Sigma by the row lattice is read off locus
by locus.  Going once around the orbit of a locus P of residue degree f, the
relations close up into Z/a_P with a_P = p**f - (-1)**|T cap P|, generated by
every omega_tau over P; a_P divides p**(2f) - 1.  The rows themselves are
never built here; the generic Smith-form route over them is a test oracle.

Each locus thus gives one piece: its unit invariant factors, a_P, its block
of torsion orders, and whether a_P divides the bound p**(2f) - 1.  One
combiner joins pieces into PicardSummary tuples: torsion_summary one piece
per locus, counting the ones of the bitstring in the locus's block,
open_sweep the even and the odd piece of each.  The torsion of T depends on
T only through the parities of |T cap P|, and the invariant factors only
through the multiset of the a_P, so open_sweep reads one summary per parity
class, with one divisor chain per multiset; the blocks are consecutive in
locus order, so the 2^d bitstrings in lexicographic order are the product of
each block's 2^|P| patterns.

As a_P = p**f -+ 1 divides (p**f - 1)(p**f + 1) = p**(2f) - 1, the verdict
is "pass" on every stratum the input contract allows: it guards against a
wrong closed form.  It is decided once per locus piece, and the `picard`
rows and selftest's torsion check both read it from PicardSummary.within_bound.

The fibre-degree bridge: the relevant projective bundle on the Iwahori side
has fibre degree p**r k_tau - (p**r / n_tau) k_{sigma^{-1} tau} over the
tau-line, and its negativity is equivalent to tau being a reducible
direction, tying the geometry back to the reduction engine; bridge_agrees
checks that equivalence at one (k, tau, r), tau given by its position.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from typing import NamedTuple

from .carousel import Carousel
from .errors import ForeignEmbedding, InvariantError, MultiplierNotDividing, SchemaError, SingletonOrbit
from .hasse import Weight, check_weight
from .profile import integer_entries


class PicardSummary(NamedTuple):
    """Quotient of Z^Sigma by the relation rows of a stratum, and its bound verdict.

    torsion_orders[tau] is the order of the class of omega_tau.
    """

    invariant_factors: tuple[int, ...]
    torsion_orders: tuple[int, ...]
    group_order: int
    within_bound: bool


def _divisor_chain(moduli) -> list[int]:
    """Invariant factors of diag(moduli): pairwise (gcd, lcm) until each divides the next."""
    out = list(moduli)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            g = gcd(out[i], out[j])
            out[i], out[j] = g, out[i] // g * out[j]
    return out


def _divides_bound(p: int, f: int, order: int) -> bool:
    """Whether order is finite and divides p**(2f) - 1."""
    return order != 0 and (p ** (2 * f) - 1) % order == 0


def _locus_piece(p: int, f: int, size: int, hits: int):
    """(unit invariant factors, a_P, torsion orders, verdict) of a locus of size embeddings, hits in T.

    The locus closes up into Z/a_P with size - 1 unit factors.
    """
    a = p**f - (-1) ** hits
    return size - 1, a, (a,) * size, _divides_bound(p, f, a)


def _combine(pieces_per_locus) -> list[PicardSummary]:
    """One summary per choice of one piece per locus, the last locus varying fastest.

    The group order is the product of the a_P.  Each divisor chain is
    computed once per sorted multiset of the a_P, since invariant
    factors are unique: a totally split profile has 2^d choices of parity
    but only d + 1 multisets.
    """
    partial = [(0, (), (), True)]
    for pieces in pieces_per_locus:
        partial = [
            (ones + piece_ones, moduli + (a,), orders + piece_orders, ok and piece_ok)
            for ones, moduli, orders, ok in partial
            for piece_ones, a, piece_orders, piece_ok in pieces
        ]
    # (unit factors, *sorted a_P) -> (invariant factors, group order)
    chains: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    out = []
    for ones, moduli, orders, ok in partial:
        key = (ones, *sorted(moduli))
        known = chains.get(key)
        if known is None:
            multiset = key[1:]
            facs = (1,) * ones + tuple(_divisor_chain(multiset))
            known = chains[key] = (facs, prod(multiset))
        out.append(PicardSummary(known[0], orders, known[1], ok))
    return out


def torsion_summary(c: Carousel, bits: str) -> PicardSummary:
    """Invariant factors, per-embedding torsion orders, group order and verdict of the open stratum bits.

    Each locus gives the piece for the number of ones of bits in its block
    (see the module docstring).  bits that is not a str of d characters 0/1
    is malformed input and raises SchemaError.
    """
    if not isinstance(bits, str) or len(bits) != c.d or bits.strip("01"):
        raise SchemaError(f"stratum {bits!r} is not a bitstring of length {c.d}")
    p = c.profile.p
    return _combine(
        [_locus_piece(p, locus.f, len(block), bits[block.start : block.stop].count("1"))]
        for block, locus in zip(c.blocks, c.profile.loci)
    )[0]


# caps the 2^d strata of open_sweep, and with them its 2^(number of loci)
# parity classes: every locus has at least one embedding
MAX_SWEEP_DEGREE = 12


def open_sweep(c: Carousel) -> list[tuple[str, int, PicardSummary]]:
    """(bitstring, |T|, torsion of T) for every open stratum T, bitstrings in lexicographic order.

    Agrees with torsion_summary on every T, verdict included.  Each stratum
    reads the summary of its parity class, the class at the index whose bits,
    locus 0 first, are its per-locus parities.
    """
    if c.d > MAX_SWEEP_DEGREE:
        raise InvariantError(f"degree {c.d} > MAX_SWEEP_DEGREE = {MAX_SWEEP_DEGREE}: 2^{c.d} open strata")
    p = c.profile.p
    classes = _combine(
        [_locus_piece(p, locus.f, len(block), hits) for hits in (0, 1)]
        for block, locus in zip(c.blocks, c.profile.loci)
    )
    strata = [("", 0, 0)]
    for block in c.blocks:
        patterns = [("".join(bits), bits.count("1")) for bits in product("01", repeat=len(block))]
        strata = [
            (text + piece, size + hits, 2 * key + (hits & 1))
            for text, size, key in strata
            for piece, hits in patterns
        ]
    return [(text, size, classes[key]) for text, size, key in strata]


def fibre_degree(c: Carousel, k: Weight, j: int, r: int) -> int:
    """Degree p**r k_j - (p**r / n_j) k_{sigma^{-1} j} of the bridge bundle at position j."""
    check_weight(c, k)
    if type(j) is not int or not 0 <= j < c.d:
        raise ForeignEmbedding(f"embedding position {j!r} is not in [0, {c.d})")
    if c.sigma_table[j] == j:
        raise SingletonOrbit(f"{c.labels[j]} has a singleton orbit; fibre degree undefined")
    (r,) = integer_entries((r,), "the power r")
    if r < 0:
        raise InvariantError(f"power r must be a nonnegative integer, got {r!r}")
    pr = c.profile.p**r
    n = c.n_table[j]
    if pr % n:
        raise MultiplierNotDividing(f"n_tau = {n} does not divide p^r = {pr}")
    return pr * k[j] - (pr // n) * k[c.sigma_inv_table[j]]


def bridge_agrees(c: Carousel, k: Weight, j: int, r: int, reducible) -> bool:
    """Whether the fibre degree at position j is negative exactly when j is in reducible, the reducible directions at k."""
    return (fibre_degree(c, k, j, r) < 0) == (j in reducible)
