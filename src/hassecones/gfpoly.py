"""Polynomial arithmetic over GF(p) and the splitting machinery built on it.

Polynomials are tuples of ints in [0, p), ascending degree, with no trailing
zeros; the zero polynomial is the empty tuple.  Division and Euclid work on
lists in place: a coefficient is reduced once, when it is read, and each
remainder of Euclid is made monic in the pass that reduces it.  On top of
the arithmetic sit squarefree decomposition (characteristic p, with the p-th
root step), the residue ring GF(p)[x]/(f), distinct-degree factorization,
Cantor-Zassenhaus equal-degree splitting drawing from a fixed generator,
Dedekind's p-maximality criterion, and the derivation of a splitting
profile from a minimal polynomial.  A factorization, and every profile read
off it, is a function of the polynomial alone; the product of its lifted
factors mod p**2 is built once and serves both its own product check and
Dedekind's criterion.

`Residues` holds each element of GF(p)[x]/(f) as one Python int, its
coefficients in Montgomery form packed into byte-aligned slots (Kronecker
substitution).  A product of two residues is one big-int multiplication; one
Montgomery step of a few whole-int operations reduces all its slots mod p at
once (by the low bit in characteristic 2), and Barrett's quotient, two more
products, reduces it mod f.  Multiplying by x shifts one slot, so x^e is
square-and-shift.  Distinct-degree factorization raises x to the p-th power
once and then reads every x^(p^d) off the Frobenius matrix, the packed rows
x^(ip) mod f, as one linear combination (von zur Gathen & Shoup, "Computing
Frobenius maps and factoring polynomials", 1992); equal-degree splitting
takes its powers and traces in the same ring.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from itertools import zip_longest

from .errors import InternalCheckError, InvariantError, NotPMaximal
from .profile import MAX_DEGREE, MAX_PRIME, PrimeLocus, SplittingProfile, integer_entries, is_prime

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
    """Reduce mod p and trim."""
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(a: Poly) -> int:
    """Degree with deg 0 = -1 for the zero polynomial."""
    return len(a) - 1


def sub(a: Poly, b: Poly, p: int) -> Poly:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return trim((x - y) % p for x, y in zip(a, b))


def mul(a: Poly, b: Poly, p: int) -> Poly:
    return normalize(_int_poly_mul(a, b), p)


def _int_poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def scale(a: Poly, c: int, p: int) -> Poly:
    c %= p
    return trim(x * c % p for x in a)


def _divide_in_place(rem: list[int], b: Poly, p: int) -> None:
    """Divide rem by the nonzero b in place.

    Afterwards rem[n:] (n = deg b) is the quotient and rem[:n], reduced mod
    p, the remainder.  Each step reads the top coefficient t, reduces it to
    the quotient coefficient c = t / lead and subtracts c b_i below it
    without reducing, so every coefficient is reduced once, when it is read.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(b) - 1
    inv = pow(b[-1], -1, p) if b[-1] != 1 else 1
    for top in range(len(rem) - 1, n - 1, -1):
        c = rem[top] * inv % p
        if c:
            for i, x in enumerate(b, top - n):
                rem[i] -= c * x
        rem[top] = c


def divmod_poly(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    """Quotient and remainder; b must be nonzero."""
    rem = list(a)
    _divide_in_place(rem, b, p)
    n = len(b) - 1
    return trim(rem[n:]), normalize(rem[:n], p)


def mod(a: Poly, b: Poly, p: int) -> Poly:
    rem = list(a)
    _divide_in_place(rem, b, p)
    return normalize(rem[: len(b) - 1], p)


def monic(a: Poly, p: int) -> Poly:
    if not a or a[-1] == 1:
        return a
    return scale(a, pow(a[-1], -1, p), p)


def gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic gcd by one remainder loop on lists.

    Each remainder is reduced and made monic in one pass, so every divisor
    is monic and costs one inverse; no quotient is kept.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return monic(a, p)
    a, b = list(a), list(monic(b, p))
    while True:
        _divide_in_place(a, b, p)
        k = len(b) - 1
        while k and not a[k - 1] % p:
            k -= 1
        if not k:
            return tuple(b)
        inv = pow(a[k - 1], -1, p)
        a, b = b, [c * inv % p for c in a[:k]]


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

    Slot i, bits [8 width i, 8 width (i + 1)), holds c_i R mod p lazily in
    [0, 2p) (Montgomery form), where R = 2^r is the least power of two above
    8np and a slot holds 2r bits.  With M = R - 1 in every slot and
    p' = -1/p mod R, t = ((v & M) p') & M makes every slot of v + t p a
    multiple of R, so (v + t p) >> r reduces all slots at once to v_i/R mod p.
    If every v_i < pR, as all below 8np^2 are, no slot carries, as
    (R - 1)^2 < 2^(2r) and v_i + t_i p < 2pR <= R^2, and each result slot is
    below v_i/R + p < 2p.  A product v of two elements, also when shifted one
    slot (times x), has slots below n (2p)^2 = 4np^2.  Barrett's quotient
    q = (H mu) div x^(n-1), with H the n high slots of v reduced and
    mu = x^(2n-1) div f, has slots below 4np^2 before its reduction, and
    v mod f, the low n slots of v + q (x^n mod f), below 8np^2.  The
    coefficient of x^(n-1-k) in mu is the top slot of x^(n-1+k) mod f, each
    the previous times x: a shift that folds the old top slot with x^n mod f
    (below 6p^2).  A combination of up to 2n elements with coefficients in
    [0, p), such as the Frobenius matrix applied to a residue, stays below
    4np^2 and reads back as its polynomial.  Characteristic 2 has no
    Montgomery inverse: R = 1, a slot keeps its low bit, and its
    bitlen(2n) + 1 bits hold the up to 2n a fold adds.
    """

    def __init__(self, f: Poly, p: int):
        n = degree(f)
        self.f, self.p, self.n = f, p, n
        r = self._r = self._radix_bits()
        self.width = (max(2 * r, (2 * n).bit_length() + 1) + 7) // 8
        bits = self._bits = 8 * self.width
        self._shift, self._low = bits * n, (1 << bits * n) - 1
        ones = self._low // ((1 << bits) - 1)
        self._mask, self._pinv = ones * ((1 << r) - 1), -pow(p, -1, 1 << r) % (1 << r)
        self._reduce = self._montgomery if r else ones.__and__
        self._r2, self.one = (1 << 2 * r) % p, (1 << r) % p
        xn = self._xn = self.element((0,) * n + (1,))
        top_at, row, mu = bits * (n - 1), self.one << bits * (n - 1), 0
        for k in range(n):
            top = row >> top_at
            mu |= top << (top_at - bits * k)
            row = self._reduce(((row << bits) & self._low) * self.one + top * xn)
        self._mu = mu

    def _radix_bits(self) -> int:
        return (8 * self.n * self.p).bit_length() if self.p > 2 else 0

    def _montgomery(self, v: int) -> int:
        mask = self._mask
        return (v + ((v & mask) * self._pinv & mask) * self.p) >> self._r

    def _pack(self, coeffs) -> int:
        w = self.width
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")

    def _slots(self, packed: int) -> list[int]:
        """The n slots of a nonnegative packed int."""
        w = self.width
        raw = packed.to_bytes(w * self.n, "little")
        return [int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w)]

    def _fold(self, v: int) -> int:
        """The element of a packed product of degree below 2n."""
        q = self._reduce((self._reduce(v >> self._shift) * self._mu) >> (self._shift - self._bits))
        return self._reduce((v + q * self._xn) & self._low)

    def element(self, a: Poly) -> int:
        """The residue of the polynomial a."""
        return self._reduce(self._pack(mod(a, self.f, self.p)) * self._r2)

    def poly(self, packed: int) -> Poly:
        """The polynomial of an element, or of a linear combination of elements as above."""
        p = self.p
        return trim(c % p for c in self._slots(self._reduce(packed)))

    def mul(self, a: int, b: int) -> int:
        return self._fold(a * b)

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

    def x_pow(self, e: int) -> int:
        """x**e by left-to-right square-and-shift; e >= 0."""
        result = self.one
        for bit in bin(e)[2:]:
            result = self._fold((result * result) << (self._bits if bit == "1" else 0))
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
        xp = ring.x_pow(p)
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
        (p,) = integer_entries((self.p,), "p")
        object.__setattr__(self, "p", p)
        coeffs = integer_entries(self.coefficients, "a minpoly coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        if p >= MAX_PRIME or not is_prime(p):
            raise InvariantError(f"p = {p!r} is not a prime below 2**64")
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

    @functools.cached_property
    def lifted_product(self) -> Poly:
        """prod lift(g_i)**e_i with coefficients reduced mod p**2, built once.

        A Poly already stores coefficients in [0, p), so it is its own lift to
        Z.  factor_mod_p's product check reads it mod p, and Dedekind's
        criterion reads it whole.
        """
        acc, modulus = ONE, self.p * self.p
        for g, m in self.factors:
            for _ in range(m):
                acc = mul(acc, g, modulus)
        return acc

    def product(self) -> Poly:
        """prod g_i**e_i over GF(p): the lifted product reduced mod p."""
        return normalize(self.lifted_product, self.p)


def factor_mod_p(g: MinPolySpec) -> ModPFactorization:
    """Full factorization of g mod p into monic irreducibles with multiplicities.

    The equal-degree stage draws from a fresh random.Random(0) on every call;
    the returned order (by degree, then lexicographic coefficients) is
    canonical, and would be for any stream.  g mod p is never a constant:
    MinPolySpec makes g monic of degree at least 2, and a leading 1 survives
    reduction mod p, so g mod p has the degree of g.
    """
    p = g.p
    fbar = g.reduced()
    rng = random.Random(0)
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


def dedekind_p_maximal(g: MinPolySpec, fact: ModPFactorization) -> bool:
    """Dedekind's criterion: is Z[x]/(g) maximal at p?  fact is factor_mod_p(g).

    With g mod p = prod g_i**e_i and F = (prod lift(g_i)**e_i - g)/p, the order
    is p-maximal iff no g_i with e_i >= 2 divides F mod p (gcd(F mod p, g*, h*)
    = 1 read one factor at a time), so F needs the product only mod p**2.  This
    needs the g_i distinct and irreducible, as factor_mod_p returns them; a
    hand-built fact with a reducible g_i may get a wrong verdict, unchecked.
    """
    p = g.p
    diff = [a - b for a, b in zip_longest(fact.lifted_product, g.coefficients, fillvalue=0)]
    if any(c % p for c in diff):
        raise InternalCheckError("prod lift(g_i)**e_i - g is not divisible by p")
    fbar = normalize((c // p for c in diff), p)
    return all(ei == 1 or mod(fbar, gi, p) for gi, ei in fact.factors)


@functools.lru_cache(maxsize=1)
def profile_from_minpoly(g: MinPolySpec, /) -> tuple[SplittingProfile, ModPFactorization]:
    """Splitting profile of p read off a p-maximal minimal polynomial.

    Returned with the one factorization of g mod p it is read from.  The last
    g answered is remembered, so asking for it again (`profile` then `reduce
    --minpoly` in one process) factors once; g is positional-only, so every
    call keys the memo by g alone.  Both values are frozen, and a refusal is
    raised, never remembered.  The profile has the degree of g:
    factor_mod_p has checked that prod g_i**e_i = g mod p, so the sum of
    e_i deg g_i over the loci is deg g.
    """
    fact = factor_mod_p(g)
    if not dedekind_p_maximal(g, fact):
        raise NotPMaximal(
            f"polynomial {list(g.coefficients)} is not p-maximal at p={g.p}; "
            "the mod-p factorization does not determine the splitting"
        )
    loci = tuple(PrimeLocus(e=mult, f=degree(irr)) for irr, mult in fact.factors)
    return SplittingProfile(g.p, loci), fact
