"""The three weight cones, built in closed form, and certified membership.

Three cones in Q^Sigma drive the weight combinatorics:

  * minimal cone  C^min  : rows n_tau * e_tau - e_{sigma^{-1} tau} >= 0
  * standard cone C^st   : rows e_tau >= 0 (the nonnegative orthant)
  * Hasse cone    C^Hasse: generated by the Hasse weights h_tau

with C^min contained in C^st contained in C^Hasse, and C^min = C^Hasse
exactly when p is totally split.

All three are simplicial (SimplicialCone), and each is built with both its
d rays and its d facet normals.  The C^Hasse normals are the rows of
(p^f - 1) M^{-1} on each locus, written down one sigma-orbit at a time.  On
the orbit rho, sigma rho, ..., sigma^{m-1} rho of a locus, with partial
products c_j = n_{sigma rho} ... n_{sigma^j rho} (c_0 = 1), the normal for
rho has c_j at sigma^j rho.  Row tau of the C^min normal matrix N is row
sigma^{-1} tau of M, so N = P^T M with P the permutation matrix of
sigma^{-1}, and N^{-1} = M^{-1} P: the C^min rays are the columns of the
matrix whose rows are the C^Hasse normals.

Normals and rays are primitive: each has the entry c_0 = 1.  Membership is a sign check of a vector
against the normals, and the chain is a sign read of the C^min rays and the
C^Hasse normals (cone_chain).  A SimplicialCone keeps its rays and normals
primitive and sorted, so two of them are the same cone exactly when they are
equal as values: the split criterion compares C^min and C^Hasse with `==`.
Answers are certificates, never bare booleans: the slacks for a member, and
for a non-member a violated normal.  A SimplicialCone verifies the pairing of
its rays and normals when it is built, so that normal is an integral
separator: negative on x, nonnegative on every ray.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd

from .carousel import Carousel
from .errors import DimensionMismatch, InternalCheckError, InvariantError
from .hasse import Weight, coordinates_scaled
from .profile import integer_entries


def _canonical_rows(rows, dim: int):
    seen = []
    for row in rows:
        row = tuple(row)
        if len(row) != dim:
            raise DimensionMismatch(f"row {row} has length {len(row)}, expected {dim}")
        if all(x == 0 for x in row):
            raise InvariantError("zero vector is not a valid normal or ray")
        g = gcd(*row)
        seen.append(tuple(x // g for x in row))
    return tuple(sorted(set(seen)))


@dataclass(frozen=True)
class SimplicialCone:
    """A full-dimensional simplicial cone in both representations.

    Generated by `rays` and cut out by `normals`, d of each.  On construction
    the pairing matrix is checked to be a permutation of a positive diagonal,
    which proves both describe the same cone.  It is read from the side with
    more zero entries, since its transpose is such a matrix too: each vector
    there combines the other side's columns at its nonzero entries, and must
    be positive on one vector of the other side that no other picks and zero
    on the rest.  The C^min normals, the C^Hasse rays and the unit vectors
    have at most two nonzero entries, so those cones check in O(d^2).
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    normals: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = self.dim
        if not (len(self.rays) == len(self.normals) == d):
            raise InternalCheckError("a simplicial cone needs d rays and d normals")
        if sum(ray.count(0) for ray in self.rays) > sum(normal.count(0) for normal in self.normals):
            name, vectors, other, columns = "ray", self.rays, "normal", list(zip(*self.normals))
        else:
            name, vectors, other, columns = "normal", self.normals, "ray", list(zip(*self.rays))
        picked = set()
        for vector in vectors:
            pairing = [0] * d
            for i, x in enumerate(vector):
                if x:
                    pairing = list(map(operator.add, pairing, map(operator.mul, repeat(x), columns[i])))
            hits = [i for i, v in enumerate(pairing) if v]
            if min(pairing) < 0 or len(hits) != 1 or hits[0] in picked:
                raise InternalCheckError(f"{name} {vector} is not dual to exactly one {other} of its own")
            picked.add(hits[0])

    @classmethod
    def from_rows(cls, rays, normals, dim: int) -> "SimplicialCone":
        return cls(dim, _canonical_rows(rays, dim), _canonical_rows(normals, dim))


def _orbit_products(c: Carousel):
    """Per embedding rho, the vector with c_j = n_{sigma rho} ... n_{sigma^j rho} at sigma^j rho.

    The orbit of rho is its locus block from rho on, wrapping to the block's start.
    """
    for block in c.blocks:
        m = len(block)
        for t in range(m):
            vec = [0] * c.d
            prod = 1
            for j in range(m):
                pos = block[(t + j) % m]
                prod *= c.n_table[pos] if j else 1
                vec[pos] = prod
            yield vec


def min_cone(c: Carousel) -> SimplicialCone:
    """C^min; split loci contribute (p - 1) e_tau rows, normalized to e_tau."""
    normals = map(c.min_normal, range(c.d))
    rays = zip(*_orbit_products(c))  # the columns of the C^Hasse normal matrix
    return SimplicialCone.from_rows(rays, normals, c.d)


def std_cone(c: Carousel) -> SimplicialCone:
    units = [[1 if i == j else 0 for i in range(c.d)] for j in range(c.d)]
    return SimplicialCone.from_rows(units, units, c.d)


def hasse_cone(c: Carousel) -> SimplicialCone:
    """C^Hasse, one primitive ray per Hasse weight."""
    rays = map(c.hasse_column, range(c.d))
    normals = _orbit_products(c)
    return SimplicialCone.from_rows(rays, normals, c.d)


# ---------------------------------------------------------------------------
# Membership


@dataclass(frozen=True)
class MembershipCertificate:
    """Verdict plus an exact certificate.

    member=True : witness is the slacks a . x >= 0 of every normal, or the
                  Hasse coordinates.
    member=False: witness is (row index, slack) for a violated normal, or
                  (embedding index, coordinate) for a negative Hasse
                  coordinate.
    """

    member: bool
    kind: str
    witness: tuple

    def __bool__(self) -> bool:
        return self.member


def _exact(v):
    """A Fraction entry as it is, any other by profile.integer_entries (SchemaError for a float, str or bool)."""
    if isinstance(v, Fraction):
        return v
    (n,) = integer_entries((v,), "a vector entry that is not a Fraction")
    return n


def contains(cone: SimplicialCone, x) -> MembershipCertificate:
    """Exact membership of a rational vector, entries int or Fraction, in a simplicial cone."""
    if not isinstance(cone, SimplicialCone):
        raise TypeError(f"membership needs a SimplicialCone, got {cone!r}")
    vec = tuple(_exact(v) for v in x)
    if len(vec) != cone.dim:
        raise DimensionMismatch(f"vector has length {len(vec)}, expected {cone.dim}")
    slacks = []
    for index, row in enumerate(cone.normals):
        slack = Fraction(sum(a * v for a, v in zip(row, vec) if a))
        if slack < 0:
            return MembershipCertificate(False, "hrep-violation", (index, slack))
        slacks.append(slack)
    return MembershipCertificate(True, "hrep-slacks", tuple(slacks))


def hasse_contains(c: Carousel, k: Weight) -> MembershipCertificate:
    """Membership of a weight in C^Hasse via the coordinate sign check."""
    nums, den = coordinates_scaled(c, k)
    for index, num in enumerate(nums):
        if num < 0:
            return MembershipCertificate(False, "hasse-coordinate", (index, Fraction(num, den)))
    return MembershipCertificate(True, "hasse-coordinates", tuple(Fraction(n, den) for n in nums))


# ---------------------------------------------------------------------------
# The chain and the split criterion


def cone_chain(cone_min: SimplicialCone, cone_hasse: SimplicialCone) -> tuple[bool, bool]:
    """(C^min in C^st, C^st in C^Hasse), read off signs in O(d^2).

    C^st is the orthant, generated and cut out by the unit vectors.  So C^min
    lies in it iff every C^min ray is entrywise >= 0, and it lies in C^Hasse
    iff every C^Hasse normal is: the slack of the unit ray e_j against a
    normal is the normal's entry j.
    """
    return (
        all(v >= 0 for ray in cone_min.rays for v in ray),
        all(v >= 0 for normal in cone_hasse.normals for v in normal),
    )


def split_criterion(c: Carousel, cone_min: SimplicialCone, cone_hasse: SimplicialCone) -> bool:
    """Whether C^min = C^Hasse exactly when p is totally split, as it must.

    Both cones are in canonical form, so `==` is equality of the cones.
    """
    return (cone_min == cone_hasse) == c.profile.is_totally_split()
