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
against a determinant computed independently of the orbit structure, by
fraction-free elimination (bareiss_determinant).  No floating point anywhere
in the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .carousel import Carousel
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


def check_weight(c: Carousel, k: Weight) -> None:
    if len(k) != c.d:
        raise DimensionMismatch(f"weight has length {len(k)}, carousel has degree {c.d}")


def hasse_matrix(c: Carousel) -> tuple[tuple[int, ...], ...]:
    """Rows of the d x d matrix whose column at position j is the Hasse weight h_j."""
    return tuple(zip(*map(c.hasse_column, range(c.d))))


def hasse_lattice_index(profile: SplittingProfile) -> int:
    """prod over loci of (p**f - 1): the index of the Hasse lattice, |det M|."""
    out = 1
    for locus in profile.loci:
        out *= profile.p**locus.f - 1
    return out


def determinant_identity(profile: SplittingProfile, det: int) -> bool:
    """Whether det, the determinant of a Hasse matrix, satisfies |det M| = prod (p**f - 1)."""
    return abs(det) == hasse_lattice_index(profile)


def bareiss_determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division is guaranteed by the Bareiss identity.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def coordinates_scaled(c: Carousel, k: Weight) -> tuple[tuple[int, ...], int]:
    """Hasse coordinates as (numerators, common positive denominator).

    The denominator is hasse_lattice_index.  On the orbit rho, sigma rho, ...,
    sigma^{m-1} rho of a locus with residue degree f, which is its block of
    positions in canonical order, going once around gives

        (p**f - 1) y_rho = sum_j c_j k_{sigma^j rho},   c_j = n_{sigma rho} ... n_{sigma^j rho},

    and then y_{sigma^{-1} tau} = n_tau y_tau - k_{sigma^{-1} tau} back around
    the orbit.  The one row the walk does not impose is checked.
    """
    check_weight(c, k)
    den = hasse_lattice_index(c.profile)
    nums = []
    for block, locus in zip(c.blocks, c.profile.loci):
        q = c.profile.p**locus.f - 1
        m = len(block)
        ks = k.coords[block.start : block.stop]
        n = c.n_table[block.start : block.stop]
        # ys[t] = q * y at offset t; the sum around the orbit in Horner form.
        acc = 0
        for t in range(m - 1, 0, -1):
            acc = n[t] * (ks[t] + acc)
        ys = [ks[0] + acc] + [0] * (m - 1)
        for t in range(m - 1, 0, -1):
            ys[t] = n[(t + 1) % m] * ys[(t + 1) % m] - q * ks[t]
        if n[1 % m] * ys[1 % m] - ys[0] != q * ks[0]:
            raise InternalCheckError(f"orbit solve fails row {block.start} of M y = k")
        scale = den // q
        nums += [y * scale for y in ys]
    return tuple(nums), den


def hasse_coordinates(c: Carousel, k: Weight) -> tuple[Fraction, ...]:
    """The unique rational y with M y = k."""
    nums, den = coordinates_scaled(c, k)
    return tuple(Fraction(num, den) for num in nums)
