"""Splitting profiles: how a rational prime p decomposes in a totally real field.

A profile is the multiset {(e_P, f_P)} of ramification indices and residue
degrees of the primes P above p, together with p itself.  Everything
downstream (embedding carousel, Hasse matrix, cones, strata) is a function of
this data alone, so a profile is declared directly, as the one JSON
document shape ``parse_profile`` reads, or derived from a minimal polynomial
by ``profile_from_minpoly``.  p must be a prime below 2**64, decided by
``is_prime``, which remembers its last answer.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass

from .errors import InvariantError, SchemaError

MAX_PRIME = 2**64
MAX_DEGREE = 64

# (psi_k, k): the first k primes decide, by strong probable-prime tests, every
# n below psi_k, the least strong pseudoprime to all of them (Jaeschke, Math.
# Comp. 61, 1993; Jiang & Deng, Math. Comp. 83, 2014).  psi_8 = psi_7 and
# psi_9 = psi_10 = psi_11, so 8, 10 and 11 witnesses would extend no band;
# psi_12 is above 2**64.
_MR_BANDS = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (MAX_PRIME, 12),
)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(maxsize=1)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below MAX_PRIME = 2**64.

    Trial division by the twelve witnesses first, then as many of them as
    n's band of _MR_BANDS needs.  The last n answered is remembered, so the
    MinPolySpec and the SplittingProfile of one p decide it once; n at or
    above the cap raises InvariantError, since twelve witnesses no longer
    decide there (psi_12 and psi_13 pass them all).
    """
    if n >= MAX_PRIME:
        raise InvariantError("is_prime decides only n below MAX_PRIME = 2**64")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    k = next(k for bound, k in _MR_BANDS if n < bound)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeLocus:
    """One prime above p: ramification index e and residue degree f."""

    e: int
    f: int

    def __post_init__(self) -> None:
        e, f = integer_entries((self.e, self.f), "a locus entry (e or f)")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "f", f)
        if self.e < 1 or self.f < 1:
            raise InvariantError(f"locus requires e >= 1 and f >= 1, got (e={self.e}, f={self.f})")

    @property
    def degree(self) -> int:
        return self.e * self.f


@dataclass(frozen=True)
class SplittingProfile:
    """Prime p together with the loci above it; total degree d = sum of e*f."""

    p: int
    loci: tuple[PrimeLocus, ...]

    def __post_init__(self) -> None:
        (p,) = integer_entries((self.p,), "p")
        object.__setattr__(self, "p", p)
        if self.p >= MAX_PRIME:
            raise InvariantError("p must be representable in 64 bits")
        if not is_prime(self.p):
            raise InvariantError(f"p = {self.p} is not prime")
        object.__setattr__(self, "loci", tuple(self.loci))
        if not self.loci:
            raise InvariantError("profile needs at least one locus")
        d = sum(locus.degree for locus in self.loci)
        if d < 2:
            raise InvariantError(f"total degree must be at least 2, got {d}")
        if d > MAX_DEGREE:
            # d is not printed: e * f of two 4,300-digit entries is too long to format
            raise InvariantError(f"total degree must be at most {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return sum(locus.degree for locus in self.loci)

    def is_totally_split(self) -> bool:
        return all(locus.e == 1 and locus.f == 1 for locus in self.loci)

    def as_dict(self) -> dict:
        return {"p": self.p, "loci": [{"e": l.e, "f": l.f} for l in self.loci]}


def integer_entries(values, what: str) -> tuple[int, ...]:
    """values as ints by operator.index; SchemaError for a bool or a non-integer, naming what an entry is."""
    entries = tuple(values)
    # bool has __index__ too, but True is not an integer entry
    if bool in map(type, entries):
        raise SchemaError(f"{what} must be an integer, not a boolean; got {entries!r}")
    try:
        return tuple(map(operator.index, entries))
    except TypeError as exc:
        raise SchemaError(f"{what} must be an integer; got {entries!r}") from exc


def profile_from_data(data: object) -> SplittingProfile:
    """Build a profile from an already-parsed JSON object {p, loci}, the one document shape.

    A polynomial is not a document: it enters by profile_from_minpoly (--minpoly with --p).
    """
    if not isinstance(data, dict):
        raise SchemaError("profile document must be a JSON object")
    keys = set(data)
    if "p" not in keys:
        raise SchemaError("profile document is missing required key 'p'")
    (p,) = integer_entries((data["p"],), "p")
    if "minpoly" in keys:
        raise SchemaError("a profile document has no 'minpoly': pass the polynomial as --minpoly with --p")
    if keys != {"p", "loci"}:
        raise SchemaError("profile document must have keys {p, loci}")
    raw = data["loci"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'loci' must be a nonempty list")
    loci = []
    for entry in raw:
        if not isinstance(entry, dict) or set(entry) != {"e", "f"}:
            raise SchemaError(f"each locus must be an object with keys e, f; got {entry!r}")
        loci.append(PrimeLocus(entry["e"], entry["f"]))
    return SplittingProfile(p, tuple(loci))


def parse_profile(document: str) -> SplittingProfile:
    """Parse a JSON profile document, ``{"p": 2, "loci": [{"e": 2, "f": 1}]}``.

    This is the one document shape; see profile_from_data.
    """
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:  # also over-limit integers and deep nesting
        raise SchemaError(f"profile document is not valid JSON: {exc}") from exc
    return profile_from_data(data)
