"""Polynomial arithmetic over GF(p) and the splitting machinery built on it.

Polynomials are tuples of ints in [0, p), ascending degree, with no trailing
zeros; the zero polynomial is the empty tuple.  On top of the arithmetic sit
squarefree decomposition (characteristic p, with the p-th root step), the
residue ring GF(p)[x]/(f), distinct-degree factorization, Cantor-Zassenhaus
equal-degree splitting with a seeded generator, Dedekind's p-maximality
criterion, and the derivation of a splitting profile from a minimal
polynomial.

`Residues` holds each element of GF(p)[x]/(f) as one Python int, its
coefficients packed into byte-aligned slots (Kronecker substitution), so a
product of two residues is one big-int multiplication and the reduction mod f
a sum of small multiples of precomputed packed rows x^(n+k) mod f.
Distinct-degree factorization raises x to the p-th power once and then reads
every x^(p^d) off the Frobenius matrix, the packed rows x^(ip) mod f, as one
linear combination (von zur Gathen & Shoup, "Computing Frobenius maps and
factoring polynomials", 1992); equal-degree splitting takes its powers and
traces in the same ring.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .errors import InternalCheckError, InvariantError, NotPMaximal
from .profile import MAX_DEGREE, MAX_PRIME, PrimeLocus, SplittingProfile, is_prime

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


def trim(coeffs) -> Poly:
    """Strip trailing zeros; canonical form of a coefficient sequence."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def normalize(coeffs, p: int) -> Poly:
    return trim(c % p for c in coeffs)


def degree(a: Poly) -> int:
    """Degree with deg 0 = -1 for the zero polynomial."""
    return len(a) - 1


def sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim((x - y) % p for x, y in zip(a, b))


def mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    return trim(x * c % p for x in a)


def divmod_poly(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    """Quotient and remainder; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p) if b[-1] != 1 else 1
    rem = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for shift in range(len(a) - len(b), -1, -1):
        coef = rem[shift + len(b) - 1] * inv_lead % p
        if coef:
            q[shift] = coef
            for i, bc in enumerate(b):
                rem[shift + i] = (rem[shift + i] - coef * bc) % p
    return trim(q), trim(rem)


def mod(a: Poly, b: Poly, p: int) -> Poly:
    return divmod_poly(a, b, p)[1]


def monic(a: Poly, p: int) -> Poly:
    if not a or a[-1] == 1:
        return a
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


def derivative(a: Poly, p: int) -> Poly:
    return trim(i * c % p for i, c in enumerate(a) if i >= 1)


def pth_root(a: Poly, p: int) -> Poly:
    """p-th root of a p-th power: over GF(p) just reindex x**(jp) -> x**j."""
    if any(c and i % p for i, c in enumerate(a)):
        raise InternalCheckError("pth_root applied to a polynomial that is not a p-th power")
    return trim(a[i] for i in range(0, len(a), p))


def squarefree_decomposition(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Monic f -> list of (squarefree monic g, multiplicity), pairwise coprime."""
    out: dict[Poly, int] = {}

    def rec(f: Poly, outer: int) -> None:
        df = derivative(f, p)
        if not df:
            if degree(f) == 0:
                return
            rec(pth_root(f, p), outer * p)
            return
        c = gcd(f, df, p)
        w = divmod_poly(f, c, p)[0]
        i = 1
        while degree(w) > 0:
            y = gcd(w, c, p)
            z = divmod_poly(w, y, p)[0]
            if degree(z) > 0:
                out[z] = out.get(z, 0) + i * outer
            w = y
            c = divmod_poly(c, y, p)[0]
            i += 1
        if degree(c) > 0:
            rec(pth_root(c, p), outer * p)

    rec(monic(f, p), 1)
    return sorted(out.items(), key=lambda item: (item[1], item[0]))


class Residues:
    """The ring GF(p)[x]/(f) for monic f of degree n >= 1; an element is one int.

    The element with coefficients c_0 .. c_(n-1) in [0, p) is the sum of
    c_i << (8 * width * i).  A slot of `width` bytes holds
    2 bitlen(p) + bitlen(2n) + 1 bits: a slot of a product of two elements is
    at most n (p-1)^2, the reduction adds at most (n-1) (p-1)^2, and
    (2n - 1) (p-1)^2 < 2^(2 bitlen(p) + bitlen(2n)), so no slot carries into
    the next before the coefficients are read back mod p.  A linear
    combination of at most 2n elements with coefficients in [0, p), such as
    the Frobenius matrix applied to a residue, fits the same way.
    """

    def __init__(self, f: Poly, p: int):
        n = degree(f)
        self.f, self.p, self.n = f, p, n
        self.width = (2 * p.bit_length() + (2 * n).bit_length() + 1 + 7) // 8
        self._shift = 8 * self.width * n
        self._low = (1 << self._shift) - 1
        self.one = 1
        # rows[k] = x^(n+k) mod f for k = 0 .. n-2, the reduction matrix
        row = [-c % p for c in f[:n]]
        rows = []
        for _ in range(n - 1):
            rows.append(self._pack(row))
            top = row[-1]
            row = [(prev - top * c) % p for prev, c in zip([0] + row[:-1], f)]
        self._rows = rows

    def _pack(self, coeffs) -> int:
        w = self.width
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")

    def _slots(self, packed: int, count: int) -> list[int]:
        """The first `count` slots of a nonnegative packed int, each reduced mod p."""
        w, p = self.width, self.p
        raw = packed.to_bytes(w * count, "little")
        return [int.from_bytes(raw[i : i + w], "little") % p for i in range(0, w * count, w)]

    def element(self, a: Poly) -> int:
        """The residue of the polynomial a."""
        return self._pack(mod(a, self.f, self.p))

    def poly(self, packed: int) -> Poly:
        """The polynomial of an element, or of a linear combination of elements as above."""
        return trim(self._slots(packed, self.n))

    def mul(self, a: int, b: int) -> int:
        product = a * b
        high = self._slots(product >> self._shift, self.n - 1)
        reduced = (product & self._low) + sum(map(operator.mul, high, self._rows))
        return self._pack(self._slots(reduced, self.n))

    def pow(self, a: int, e: int) -> int:
        """a**e by left-to-right square-and-multiply; e >= 0."""
        if e == 0:
            return self.one
        result = a
        for bit in bin(e)[3:]:
            result = self.mul(result, result)
            if bit == "1":
                result = self.mul(result, a)
        return result


def distinct_degree_factorization(f: Poly, p: int) -> list[tuple[Poly, int]]:
    """Squarefree monic f -> [(product of irreducible factors of degree d, d)].

    h runs through x^(p^d) mod f; each next power is h^p = sum h_i x^(ip),
    one linear combination of the Frobenius rows x^(ip) mod f.  Reducing mod
    f rather than the shrinking cofactor leaves gcd(h - x, rest) unchanged,
    because rest divides f.
    """
    out = []
    rest = f
    n = degree(f)
    if n >= 2:
        ring = Residues(f, p)
        xp = ring.pow(ring.element(X), p)
        frobenius = [ring.one]
        for _ in range(n - 1):
            frobenius.append(ring.mul(frobenius[-1], xp))
    h = mod(X, f, p)
    d = 0
    while degree(rest) >= 2 * (d + 1):
        d += 1
        h = ring.poly(sum(map(operator.mul, h, frobenius)))
        g = gcd(sub(h, X, p), rest, p)
        if degree(g) > 0:
            out.append((g, d))
            rest = divmod_poly(rest, g, p)[0]
    if degree(rest) > 0:
        out.append((rest, degree(rest)))
    return out


def _random_poly(max_deg: int, p: int, rng: random.Random) -> Poly:
    return trim(rng.randrange(p) for _ in range(max_deg + 1))


def equal_degree_factorization(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d."""
    n = degree(f)
    if n == d:
        return [f]
    ring = Residues(f, p)
    while True:
        a = _random_poly(n - 1, p, rng)
        if degree(a) < 1:
            continue
        g = gcd(a, f, p)
        if 0 < degree(g) < n:
            break
        t = ring.element(a)
        if p % 2 == 1:
            b = ring.poly(ring.pow(t, (p**d - 1) // 2))
            g = gcd(sub(b, ONE, p), f, p)
        else:
            # Trace map replaces the odd-characteristic power trick.
            trace = 0
            for _ in range(d):
                trace += t
                t = ring.mul(t, t)
            g = gcd(ring.poly(trace), f, p)
        if 0 < degree(g) < n:
            break
    other = divmod_poly(f, g, p)[0]
    return equal_degree_factorization(g, d, p, rng) + equal_degree_factorization(other, d, p, rng)


@dataclass(frozen=True)
class MinPolySpec:
    """Monic integer polynomial (ascending coefficients) and a prime p."""

    coefficients: tuple[int, ...]
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not isinstance(self.p, int) or self.p >= MAX_PRIME or not is_prime(self.p):
            raise InvariantError(f"p = {self.p!r} is not a prime below 2**64")
        coeffs = self.coefficients
        if len(coeffs) < 3:
            raise InvariantError("minimal polynomial must have degree at least 2")
        if coeffs[-1] != 1:
            raise InvariantError("minimal polynomial must be monic (last coefficient 1)")
        if len(coeffs) - 1 > MAX_DEGREE:
            raise InvariantError(f"degree must be at most {MAX_DEGREE}")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def reduced(self) -> Poly:
        return normalize(self.coefficients, self.p)


@dataclass(frozen=True)
class ModPFactorization:
    """Factorization of a monic polynomial over GF(p): ((factor, multiplicity), ...)."""

    p: int
    factors: tuple[tuple[Poly, int], ...]

    def product(self) -> Poly:
        acc = ONE
        for g, m in self.factors:
            for _ in range(m):
                acc = mul(acc, g, self.p)
        return acc


def factor_mod_p(g: MinPolySpec, seed: int = 0) -> ModPFactorization:
    """Full factorization of g mod p into monic irreducibles with multiplicities.

    The equal-degree stage draws from random.Random(seed); the returned order
    (by degree, then lexicographic coefficients) is canonical regardless.
    """
    p = g.p
    fbar = g.reduced()
    if degree(fbar) < 1:
        raise InvariantError("polynomial reduces to a constant mod p")
    rng = random.Random(seed)
    collected: dict[Poly, int] = {}
    for piece, mult in squarefree_decomposition(fbar, p):
        for part, d in distinct_degree_factorization(piece, p):
            for irr in equal_degree_factorization(part, d, p, rng):
                collected[irr] = collected.get(irr, 0) + mult
    factors = tuple(sorted(collected.items(), key=lambda item: (degree(item[0]), item[0])))
    result = ModPFactorization(p, factors)
    if result.product() != fbar:
        raise InternalCheckError("factorization product check failed")
    return result


def _int_poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def dedekind_p_maximal(g: MinPolySpec, fact: ModPFactorization) -> bool:
    """Dedekind's criterion: is Z[x]/(g) maximal at p?  fact is factor_mod_p(g).

    With g mod p = prod gi**ei, set g* = prod lift(gi), h* = lift(g mod p / g*),
    F = (g* h* - g)/p; the order is p-maximal iff gcd(F mod p, g*, h*) = 1.
    """
    p = g.p
    gstar_bar = ONE
    hstar_bar = ONE
    for gi, ei in fact.factors:
        gstar_bar = mul(gstar_bar, gi, p)
        for _ in range(ei - 1):
            hstar_bar = mul(hstar_bar, gi, p)
    # a Poly already stores coefficients in [0, p), so it is its own lift to Z
    product = _int_poly_mul(gstar_bar, hstar_bar)
    gc = g.coefficients
    n = max(len(product), len(gc))
    diff = [(product[i] if i < len(product) else 0) - (gc[i] if i < len(gc) else 0) for i in range(n)]
    if any(c % p for c in diff):
        raise InternalCheckError("g* h* - g is not divisible by p")
    fbar = normalize((c // p for c in diff), p)
    d1 = gcd(fbar, gstar_bar, p)
    return degree(gcd(d1, hstar_bar, p)) == 0


def profile_from_minpoly(g: MinPolySpec, seed: int = 0) -> tuple[SplittingProfile, ModPFactorization]:
    """Splitting profile of p read off a p-maximal minimal polynomial.

    Returned with the one factorization of g mod p it is read from.
    """
    fact = factor_mod_p(g, seed)
    if not dedekind_p_maximal(g, fact):
        raise NotPMaximal(
            f"polynomial {list(g.coefficients)} is not p-maximal at p={g.p}; "
            "the mod-p factorization does not determine the splitting"
        )
    loci = tuple(PrimeLocus(e=mult, f=degree(irr)) for irr, mult in fact.factors)
    profile = SplittingProfile(g.p, loci)
    if profile.degree != g.degree:
        raise InternalCheckError("sum of e*f does not match the polynomial degree")
    return profile, fact
