"""Splitting profiles: how a rational prime p decomposes in a totally real field.

A profile is the multiset {(e_P, f_P)} of ramification indices and residue
degrees of the primes P above p, together with p itself.  Everything
downstream (embedding carousel, Hasse matrix, cones, strata) is a function of
this data alone, so a profile can be declared directly or derived from a
minimal polynomial via ``parse_profile``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvariantError, SchemaError

MAX_PRIME = 2**64
MAX_DEGREE = 64

# Jaeschke/Sorenson-Webster witness set: deterministic for n < 3.3 * 10**24,
# which covers the 64-bit range accepted here.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 2**64."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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
        if not isinstance(self.e, int) or not isinstance(self.f, int):
            raise SchemaError("locus entries e, f must be integers")
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
        if not isinstance(self.p, int):
            raise SchemaError("p must be an integer")
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


def _require_int(value, what: str) -> int:
    # bool is an int subclass; reject it explicitly.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def profile_from_data(data: object) -> SplittingProfile:
    """Build a profile from already-parsed JSON data (dict form)."""
    if not isinstance(data, dict):
        raise SchemaError("profile document must be a JSON object")
    keys = set(data)
    if "p" not in keys:
        raise SchemaError("profile document is missing required key 'p'")
    p = _require_int(data["p"], "p")
    if keys == {"p", "loci"}:
        raw = data["loci"]
        if not isinstance(raw, list) or not raw:
            raise SchemaError("'loci' must be a nonempty list")
        loci = []
        for entry in raw:
            if not isinstance(entry, dict) or set(entry) != {"e", "f"}:
                raise SchemaError(f"each locus must be an object with keys e, f; got {entry!r}")
            loci.append(PrimeLocus(_require_int(entry["e"], "e"), _require_int(entry["f"], "f")))
        return SplittingProfile(p, tuple(loci))
    if keys == {"p", "minpoly"}:
        raw = data["minpoly"]
        if not isinstance(raw, list):
            raise SchemaError("'minpoly' must be a list of integer coefficients")
        coeffs = tuple(_require_int(c, "minpoly coefficient") for c in raw)
        from .gfpoly import MinPolySpec, profile_from_minpoly

        return profile_from_minpoly(MinPolySpec(coeffs, p))[0]
    raise SchemaError("profile document must have keys {p, loci} or {p, minpoly}")


def parse_profile(document: str) -> SplittingProfile:
    """Parse a JSON profile document.

    Two shapes are accepted: ``{"p": 2, "loci": [{"e": 2, "f": 1}]}`` or
    ``{"p": 5, "minpoly": [-1, -1, 1]}`` with coefficients ascending and the
    leading coefficient exactly 1.  The second shape runs Dedekind's criterion
    and raises NotPMaximal when the polynomial does not certify the splitting.
    """
    try:
        data = json.loads(document)
    except (ValueError, RecursionError) as exc:  # also over-limit integers and deep nesting
        raise SchemaError(f"profile document is not valid JSON: {exc}") from exc
    return profile_from_data(data)
