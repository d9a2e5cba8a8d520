"""Hasse weight vectors, the Hasse matrix, and exact coordinate solves.

The partial Hasse invariant attached to tau has weight

    h_tau = n_tau * e_{sigma^{-1} tau} - e_tau,

one column of the Hasse matrix M per embedding.  M is block-diagonal over
loci, and each block is a weighted cyclic shift along one sigma-orbit whose
multipliers multiply to p**f.  So |det M| = prod over loci of (p**f - 1), and
every integer weight k has unique rational Hasse coordinates y with M y = k.
Row tau of M y = k reads k_tau = n_{sigma tau} y_{sigma tau} - y_tau, which
is solved exactly once around each orbit, with no matrix inversion.

The matrix is a tuple of integer rows and the coordinates a tuple of
Fractions.  The determinant identity is checked by determinant_identity
against a determinant computed independently (Bareiss, in intlinalg).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .carousel import Carousel, Embedding, locus_orbits
from .errors import DimensionMismatch, InternalCheckError, SchemaError
from .profile import SplittingProfile


@dataclass(frozen=True)
class Weight:
    """An integer weight vector indexed by the canonical order of Sigma."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.coords)
        # bool has __index__ too, but True is not a weight entry
        if bool in map(type, entries):
            raise SchemaError(f"weight entries must be integers, not booleans, got {entries!r}")
        try:
            coords = tuple(map(operator.index, entries))
        except TypeError as exc:
            raise SchemaError(f"weight entries must be integers, got {entries!r}") from exc
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, index: int) -> int:
        return self.coords[index]

    def __add__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise DimensionMismatch("weight lengths differ")
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        if len(self) != len(other):
            raise DimensionMismatch("weight lengths differ")
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))


def check_weight(c: Carousel, k: Weight) -> None:
    if len(k) != c.d:
        raise DimensionMismatch(f"weight has length {len(k)}, carousel has degree {c.d}")


def hasse_weight(c: Carousel, tau: Embedding) -> Weight:
    """Weight of the partial Hasse invariant at tau."""
    j = c.index_of(tau)
    coords = [0] * c.d
    coords[c.sigma_inv_table[j]] += c.n_table[j]
    coords[j] -= 1
    return Weight(tuple(coords))


def hasse_matrix(c: Carousel) -> tuple[tuple[int, ...], ...]:
    """Rows of the d x d matrix whose column at position tau is hasse_weight(tau).

    Built by summation so that a split locus (e = f = 1, sigma fixing tau)
    lands both terms on the diagonal: entry p - 1.
    """
    rows = [[0] * c.d for _ in range(c.d)]
    for j in range(c.d):
        rows[c.sigma_inv_table[j]][j] += c.n_table[j]
        rows[j][j] -= 1
    return tuple(tuple(row) for row in rows)


def hasse_lattice_index(profile: SplittingProfile) -> int:
    """prod over loci of (p**f - 1): the index of the Hasse lattice, |det M|."""
    out = 1
    for locus in profile.loci:
        out *= profile.p**locus.f - 1
    return out


def determinant_identity(profile: SplittingProfile, det: int) -> bool:
    """Whether det, the determinant of a Hasse matrix, satisfies |det M| = prod (p**f - 1)."""
    return abs(det) == hasse_lattice_index(profile)


def coordinates_scaled(c: Carousel, k: Weight) -> tuple[tuple[int, ...], int]:
    """Hasse coordinates as (numerators, common positive denominator).

    The denominator is hasse_lattice_index.  On the orbit rho, sigma rho, ...,
    sigma^{m-1} rho of a locus with residue degree f, going once around gives

        (p**f - 1) y_rho = sum_j c_j k_{sigma^j rho},   c_j = n_{sigma rho} ... n_{sigma^j rho},

    and then y_{sigma^{-1} tau} = n_tau y_tau - k_{sigma^{-1} tau} back around
    the orbit.  The one row the walk does not impose is checked.
    """
    check_weight(c, k)
    den = hasse_lattice_index(c.profile)
    n = c.n_table
    nums = [0] * c.d
    for orbit, locus in zip(locus_orbits(c), c.profile.loci):
        q = c.profile.p**locus.f - 1
        m = len(orbit)
        # ys[t] = q * y at orbit[t]; the sum around the orbit in Horner form.
        acc = 0
        for t in range(m - 1, 0, -1):
            acc = n[orbit[t]] * (k[orbit[t]] + acc)
        ys = [k[orbit[0]] + acc] + [0] * (m - 1)
        for t in range(m - 1, 0, -1):
            ys[t] = n[orbit[(t + 1) % m]] * ys[(t + 1) % m] - q * k[orbit[t]]
        if n[orbit[1 % m]] * ys[1 % m] - ys[0] != q * k[orbit[0]]:
            raise InternalCheckError(f"orbit solve fails row {orbit[0]} of M y = k")
        scale = den // q
        for j, y in zip(orbit, ys):
            nums[j] = y * scale
    return tuple(nums), den


def hasse_coordinates(c: Carousel, k: Weight) -> tuple[Fraction, ...]:
    """The unique rational y with M y = k."""
    nums, den = coordinates_scaled(c, k)
    return tuple(Fraction(num, den) for num in nums)
