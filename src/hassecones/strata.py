"""Goren-Oort strata, Picard relation lattices, torsion orders, fibre degrees.

A stratum is labelled by a subset T of Sigma; its closed locus has dimension
d - |T| and its closure is the union of strata for supersets of T.  On the
open part of the stratum each line bundle omega_tau is forced against its
shifted neighbour, one integer relation row per embedding:

    row_tau = e_tau + s_tau * n_tau * e_{sigma^{-1} tau},
    s_tau = +1 if tau in T else -1.

The rows are block-diagonal over loci, and each block follows one
sigma-orbit, so the quotient of Z^Sigma by the row lattice is read off locus
by locus.  Going once around the orbit of a locus P of residue degree f, the
relations close up into Z/a_P with a_P = p**f - (-1)**|T cap P|, generated by
every omega_tau over P; a_P divides p**(2f) - 1.  On the closed stratum only
the rows for tau in T are forced: a locus inside T still closes up into
Z/a_P, while any other locus leaves chains whose quotient is free, so its
omega_tau have infinite order.  The rows themselves are never built here;
the generic Smith-form route over them is a test oracle.  within_torsion_bound
checks the divisor bound p**(2f) - 1 on every torsion order.

On the open part the torsion of T therefore depends on T only through the
parities of |T cap P|, and the invariant factors only through the multiset
of the a_P.  A full sweep (open_sweep) computes one summary per class of
parities and reuses each divisor chain across the classes with the same
multiset; the blocks are consecutive in locus order, so the 2^d bitstrings
in lexicographic order are the product of each block's 2^|P| patterns.

The fibre-degree bridge: the relevant projective bundle on the Iwahori side
has fibre degree p**r k_tau - (p**r / n_tau) k_{sigma^{-1} tau} over the
tau-line, and its negativity is equivalent to tau being a reducible
direction, tying the geometry back to the reduction engine; bridge_agrees
checks that equivalence at one (k, tau, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from typing import NamedTuple

from .carousel import Carousel, Embedding
from .errors import InvariantError, MultiplierNotDividing, SingletonOrbit
from .hasse import Weight, check_weight


@dataclass(frozen=True)
class StratumLabel:
    """A subset of Sigma in canonical order, with the ambient size."""

    size: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(self.members))
        if self.size < 0:
            raise InvariantError("ambient size must be nonnegative")
        for j in self.members:
            if not isinstance(j, int) or not (0 <= j < self.size):
                raise InvariantError(f"stratum member {j!r} out of range for size {self.size}")

    @classmethod
    def from_bitstring(cls, text: str) -> "StratumLabel":
        """Parse '10' as {embedding 0} in ambient size 2; leftmost char is index 0."""
        if not text or any(ch not in "01" for ch in text):
            raise InvariantError(f"stratum bitstring must be nonempty over 0/1, got {text!r}")
        return cls(len(text), frozenset(i for i, ch in enumerate(text) if ch == "1"))

    def bitstring(self) -> str:
        return "".join("1" if i in self.members else "0" for i in range(self.size))


def stratum_dimension(d: int, T: StratumLabel) -> int:
    if T.size != d:
        raise InvariantError(f"stratum has ambient size {T.size}, expected {d}")
    return d - len(T.members)


def _check_stratum(c: Carousel, T: StratumLabel, locus: str) -> None:
    if T.size != c.d:
        raise InvariantError(f"stratum has ambient size {T.size}, carousel degree {c.d}")
    if locus not in ("open", "closed"):
        raise InvariantError(f"locus must be 'open' or 'closed', got {locus!r}")


@dataclass(frozen=True)
class PicardSummary:
    """Quotient of Z^Sigma by the relation rows of a stratum.

    torsion_orders[tau] is the order of the class of omega_tau in the
    quotient, with 0 standing for infinite order.
    """

    stratum: StratumLabel
    locus: str
    invariant_factors: tuple[int, ...]
    torsion_orders: tuple[int, ...]

    @property
    def group_order(self) -> int:
        """Order of the full quotient group; 0 when infinite."""
        if len(self.invariant_factors) < self.stratum.size:
            return 0
        out = 1
        for v in self.invariant_factors:
            if v == 0:
                return 0
            out *= v
        return out


def _divisor_chain(moduli) -> list[int]:
    """Invariant factors of diag(moduli): pairwise (gcd, lcm) until each divides the next."""
    out = list(moduli)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            g = gcd(out[i], out[j])
            out[i], out[j] = g, out[i] // g * out[j]
    return out


def _closing_order(p: int, f: int, hits: int) -> int:
    """a_P = p**f - (-1)**hits, the order of the cyclic group a locus of residue degree f closes up into."""
    return p**f + 1 if hits & 1 else p**f - 1


def _divides_bound(p: int, f: int, order: int) -> bool:
    """Whether order is finite and divides p**(2f) - 1."""
    return order != 0 and (p ** (2 * f) - 1) % order == 0


def torsion_summary(c: Carousel, T: StratumLabel, locus: str = "open") -> PicardSummary:
    """Invariant factors and per-embedding torsion orders for a stratum.

    Locus by locus (see the module docstring): a locus whose relations close
    up contributes Z/a_P, |P| - 1 invariant factors 1, and order a_P for each
    of its omega_tau; any other locus (closed stratum only) contributes one
    invariant factor 1 per forced row and infinite order (0).  The cyclic
    parts combine into invariant factors by the gcd/lcm normal form.
    """
    _check_stratum(c, T, locus)
    p = c.profile.p
    ones = 0
    cyclic = []
    orders = [0] * c.d
    for block, locus_data in zip(c.blocks, c.profile.loci):
        hits = sum(1 for j in block if j in T.members)
        if locus == "closed" and hits < len(block):
            ones += hits
            continue
        a = _closing_order(p, locus_data.f, hits)
        ones += len(block) - 1
        cyclic.append(a)
        for j in block:
            orders[j] = a
    facs = (1,) * ones + tuple(_divisor_chain(cyclic))
    return PicardSummary(T, locus, facs, tuple(orders))


class ParityClass(NamedTuple):
    """The open-stratum torsion shared by every T with the same parities of |T cap P|.

    The fields are those of the PicardSummary of any such T, its group order,
    and the within_torsion_bound verdict on it.
    """

    invariant_factors: tuple[int, ...]
    torsion_orders: tuple[int, ...]
    group_order: int
    within_bound: bool


def within_torsion_bound(c: Carousel, summary: PicardSummary | ParityClass) -> bool:
    """Whether every omega_tau has finite order dividing p**(2f) - 1, f that of tau's locus."""
    p = c.profile.p
    orders = summary.torsion_orders
    return all(_divides_bound(p, locus.f, orders[j]) for block, locus in zip(c.blocks, c.profile.loci) for j in block)


def parity_classes(c: Carousel) -> list[ParityClass]:
    """The open-stratum torsion of each class, at the index whose bits, locus 0 first, are the parities.

    Each divisor chain is computed once per sorted multiset of the a_P, since
    invariant factors are unique.  On a totally split profile every stratum
    is a class of its own, yet only d + 1 multisets occur.
    """
    p = c.profile.p
    # (a_P per locus, torsion orders, verdict) of each class of the loci so
    # far; hits even comes before odd, so a class's position is its index
    partial = [((), (), True)]
    for block, locus in zip(c.blocks, c.profile.loci):
        pieces = []
        for hits in (0, 1):
            a = _closing_order(p, locus.f, hits)
            pieces.append((a, (a,) * len(block), _divides_bound(p, locus.f, a)))
        partial = [
            (moduli + (a,), orders + block_orders, ok and block_ok)
            for moduli, orders, ok in partial
            for a, block_orders, block_ok in pieces
        ]
    ones = (1,) * (c.d - len(c.blocks))
    chains: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    out = []
    for moduli, orders, ok in partial:
        multiset = tuple(sorted(moduli))
        if multiset not in chains:
            chains[multiset] = (ones + tuple(_divisor_chain(multiset)), prod(multiset))
        facs, group = chains[multiset]
        out.append(ParityClass(facs, orders, group, ok))
    return out


def open_sweep(c: Carousel) -> list[tuple[str, int, ParityClass]]:
    """(bitstring, |T|, torsion of T) for every open stratum T, bitstrings in lexicographic order.

    Agrees with torsion_summary and within_torsion_bound on every T.
    """
    classes = parity_classes(c)
    strata = [("", 0, 0)]
    for block in c.blocks:
        patterns = [("".join(bits), bits.count("1")) for bits in product("01", repeat=len(block))]
        strata = [
            (text + piece, size + hits, 2 * key + (hits & 1))
            for text, size, key in strata
            for piece, hits in patterns
        ]
    return [(text, size, classes[key]) for text, size, key in strata]


def fibre_degree(c: Carousel, k: Weight, tau0: Embedding, r: int) -> int:
    """Degree p**r k_tau0 - (p**r / n_tau0) k_{sigma^{-1} tau0} of the bridge bundle."""
    check_weight(c, k)
    j = c.index_of(tau0)
    locus = c.profile.loci[tau0.locus]
    if locus.e * locus.f == 1:
        raise SingletonOrbit(f"{tau0.label()} has a singleton orbit; fibre degree undefined")
    if not isinstance(r, int) or r < 0:
        raise InvariantError(f"power r must be a nonnegative integer, got {r!r}")
    pr = c.profile.p**r
    n = c.n_table[j]
    if pr % n:
        raise MultiplierNotDividing(f"n_tau = {n} does not divide p^r = {pr}")
    return pr * k[j] - (pr // n) * k[c.sigma_inv_table[j]]


def theorem_bridge(c: Carousel, k: Weight, tau0: Embedding, r: int) -> bool:
    """Negativity of the fibre degree; equals tau0 being a reducible direction."""
    return fibre_degree(c, k, tau0, r) < 0


def bridge_agrees(c: Carousel, k: Weight, tau0: Embedding, r: int, reducible) -> bool:
    """Whether theorem_bridge holds at tau0, given the reducible directions at k."""
    return theorem_bridge(c, k, tau0, r) == (tau0 in reducible)
