"""Polynomial arithmetic over GF(p), factorization, and Dedekind's criterion.

Irreducibility of reported factors is cross-checked with a test-local Rabin
test (x^{p^n} = x mod f, plus gcd conditions at maximal proper subfield
degrees), so the factorizer never grades its own homework.
"""

import itertools
import random

import pytest

from hassecones import (
    InvariantError,
    MinPolySpec,
    NotPMaximal,
    PrimeLocus,
    dedekind_p_maximal,
    factor_mod_p,
    profile_from_minpoly,
)
from hassecones.gfpoly import (
    ONE,
    Residues,
    degree,
    derivative,
    divmod_poly,
    equal_degree_factorization,
    gcd,
    mod,
    monic,
    mul,
    normalize,
    pth_root,
    squarefree_decomposition,
    sub,
    distinct_degree_factorization,
)
import oracles
from oracles import add, evaluate, powmod

X = (0, 1)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
RING_PRIMES = (2, 3, 5, 7, 2**61 - 1, 2**64 - 59)


def _random_monic(rng, deg, p):
    coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
    return normalize(coeffs, p)


def _prime_divisors(n):
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _frobenius_power(p, m, f):
    """x^(p^m) mod f, by m rounds of p-th powering."""
    t = mod(X, f, p)
    for _ in range(m):
        t = powmod(t, p, f, p)
    return t


def rabin_irreducible(f, p):
    n = degree(f)
    if n <= 0:
        return False
    if mod(sub(_frobenius_power(p, n, f), X, p), f, p) != ():
        return False
    for q in _prime_divisors(n):
        g = gcd(sub(_frobenius_power(p, n // q, f), X, p), f, p)
        if degree(g) != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Ring arithmetic


def test_divmod_reconstructs_dividend():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice(SMALL_PRIMES)
        a = normalize([rng.randrange(p) for _ in range(rng.randint(0, 9))], p)
        b = _random_monic(rng, rng.randint(1, 5), p)
        q, r = divmod_poly(a, b, p)
        assert degree(r) < degree(b)
        assert add(mul(q, b, p), r, p) == a


def test_gcd_is_monic_and_divides():
    rng = random.Random(12)
    for _ in range(100):
        p = rng.choice(SMALL_PRIMES)
        f = _random_monic(rng, rng.randint(1, 4), p)
        g = _random_monic(rng, rng.randint(0, 4), p)
        h = _random_monic(rng, rng.randint(0, 4), p)
        d = gcd(mul(f, g, p), mul(f, h, p), p)
        # f divides both inputs, so it divides the gcd
        _, rem = divmod_poly(d, f, p)
        assert rem == ()
        assert d == monic(d, p)


def test_powmod_agrees_with_repeated_multiplication():
    p = 7
    f = (3, 0, 1, 1)  # x^3 + x^2 + 3
    acc = ONE
    for e in range(10):
        assert powmod(X, e, f, p) == mod(acc, f, p)
        acc = mul(acc, X, p)


@pytest.mark.parametrize("p", RING_PRIMES)
def test_residue_ring_matches_schoolbook(p):
    # Packed products and powers against schoolbook mul/mod and the oracle
    # powmod, on the zero element and on inputs of degree below n, n and
    # 2n + 2.
    rng = random.Random(p)
    for n in (1, 2, 3, 17, 64):
        f = _random_monic(rng, n, p)
        ring = Residues(f, p)
        inputs = [(), ONE, X] + [_random_monic(rng, deg, p) for deg in (n - 1, n, 2 * n + 2)]
        for a in inputs:
            for b in inputs:
                assert ring.poly(ring.mul(ring.element(a), ring.element(b))) == mod(mul(a, b, p), f, p)
        d = n if p < 8 else 2
        for a in ((), inputs[-1]):
            for e in (0, 1, 2, p, p**d - 1, rng.randrange(p**d)):
                assert ring.poly(ring.pow(ring.element(a), e)) == powmod(a, e, f, p)


def test_factorization_stages_equal_oracle_exhaustive():
    # Every squarefree piece of a monic polynomial of degree <= 6 is one of
    # these, so both stages are compared on every input factor_mod_p can
    # hand them below degree 7.  Over GF(2) the degrees run to 10: up to
    # degree 6 only one block, the product of the two irreducible cubics,
    # has two factors of degree above 1 for the trace to split.
    for p, top in ((2, 10), (3, 6), (5, 6)):
        for deg in range(1, top + 1):
            for low in itertools.product(range(p), repeat=deg):
                f = low + (1,)
                if degree(gcd(f, derivative(f, p), p)) > 0:
                    continue
                blocks = distinct_degree_factorization(f, p)
                assert blocks == oracles.distinct_degree_factorization(f, p)
                for block, d in blocks:
                    ours = equal_degree_factorization(block, d, p, random.Random(deg))
                    assert ours == oracles.equal_degree_factorization(block, d, p, random.Random(deg))


def test_evaluate_and_derivative():
    p = 5
    f = (1, 2, 3)  # 3x^2 + 2x + 1
    assert evaluate(f, 0, p) == 1
    assert evaluate(f, 1, p) == (3 + 2 + 1) % p
    assert derivative(f, p) == (2, 1)  # 6x + 2 = x + 2 mod 5
    assert derivative((4,), p) == ()


def test_pth_root_inverts_pth_powers():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        g = _random_monic(rng, rng.randint(1, 4), p)
        power = ONE
        for _ in range(p):
            power = mul(power, g, p)
        assert pth_root(power, p) == g


# ---------------------------------------------------------------------------
# Factorization


def test_worked_factorization_split_quadratic():
    fact = factor_mod_p(MinPolySpec((1, 0, 1), 5))  # x^2 + 1 at p = 5
    assert fact.factors == (((2, 1), 1), ((3, 1), 1))


def test_worked_factorization_ramified_quadratic():
    fact = factor_mod_p(MinPolySpec((-1, -1, 1), 5))  # x^2 - x - 1 = (x + 2)^2 mod 5
    assert fact.factors == (((2, 1), 2),)


def test_worked_factorization_inert_quadratic():
    fact = factor_mod_p(MinPolySpec((1, 1, 1), 2))  # x^2 + x + 1 irreducible mod 2
    assert fact.factors == (((1, 1, 1), 1),)


def test_factor_reconstruction_random():
    rng = random.Random(14)
    for _ in range(150):
        p = rng.choice(SMALL_PRIMES)
        spec = MinPolySpec(tuple(rng.randrange(-20, 21) for _ in range(rng.randint(2, 8))) + (1,), p)
        fact = factor_mod_p(spec, seed=0)
        assert fact.product() == spec.reduced()
        for poly, mult in fact.factors:
            assert mult >= 1
            assert poly == monic(poly, p)
            assert rabin_irreducible(poly, p)


def test_factor_output_is_seed_independent():
    spec = MinPolySpec((3, 1, 4, 1, 5, 9, 2, 1), 13)
    baseline = factor_mod_p(spec, seed=0)
    for seed in (1, 7, 12345):
        assert factor_mod_p(spec, seed=seed).factors == baseline.factors


def test_factor_order_is_canonical():
    # degree ascending, then lexicographic on coefficient tuples
    fact = factor_mod_p(MinPolySpec((0, 0, 0, 0, 1, 0, 1), 2))  # x^6 + x^4 = x^4 (x + 1)^2
    degrees = [degree(poly) for poly, _ in fact.factors]
    assert degrees == sorted(degrees)
    assert fact.factors == (((0, 1), 4), ((1, 1), 2))


def test_low_degree_factors_have_no_spurious_roots():
    # Irreducible factors of degree 2 or 3 must have no roots in GF(p).
    rng = random.Random(15)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        spec = MinPolySpec(tuple(rng.randrange(p) for _ in range(rng.randint(3, 6))) + (1,), p)
        for poly, _ in factor_mod_p(spec).factors:
            if 2 <= degree(poly) <= 3:
                assert all(evaluate(poly, x, p) != 0 for x in range(p))


def test_squarefree_decomposition_properties():
    rng = random.Random(16)
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        f = _random_monic(rng, rng.randint(1, 7), p)
        parts = squarefree_decomposition(f, p)
        rebuilt = ONE
        for piece, mult in parts:
            assert mult >= 1
            assert degree(piece) >= 1
            # a squarefree polynomial is coprime to its derivative
            assert degree(gcd(piece, derivative(piece, p), p)) == 0
            for _ in range(mult):
                rebuilt = mul(rebuilt, piece, p)
        assert rebuilt == f
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert degree(gcd(parts[i][0], parts[j][0], p)) == 0


def test_distinct_degree_blocks_carry_their_degree():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        f = _random_monic(rng, rng.randint(2, 6), p)
        # make f squarefree by stripping repeated parts first
        square_free = ONE
        for piece, _ in squarefree_decomposition(f, p):
            square_free = mul(square_free, piece, p)
        for block, d in distinct_degree_factorization(square_free, p):
            assert degree(block) % d == 0
            pieces = equal_degree_factorization(block, d, p, random.Random(0))
            rebuilt = ONE
            for piece in pieces:
                assert degree(piece) == d
                assert rabin_irreducible(piece, p)
                rebuilt = mul(rebuilt, piece, p)
            assert rebuilt == block


# ---------------------------------------------------------------------------
# Dedekind and profiles from minimal polynomials


def _dedekind(spec):
    return dedekind_p_maximal(spec, factor_mod_p(spec))


def test_dedekind_worked_examples():
    assert _dedekind(MinPolySpec((-5, 0, 1), 5))
    assert _dedekind(MinPolySpec((-1, -1, 1), 5))
    assert not _dedekind(MinPolySpec((-8, -2, -1, 1), 2))


def test_profile_from_minpoly_worked_examples():
    split, fact = profile_from_minpoly(MinPolySpec((1, 0, 1), 5))
    assert split.loci == (PrimeLocus(1, 1), PrimeLocus(1, 1))
    assert fact == factor_mod_p(MinPolySpec((1, 0, 1), 5))
    ramified, _ = profile_from_minpoly(MinPolySpec((-1, -1, 1), 5))
    assert ramified.loci == (PrimeLocus(2, 1),)
    inert, _ = profile_from_minpoly(MinPolySpec((1, 1, 1), 2))
    assert inert.loci == (PrimeLocus(1, 2),)


def test_profile_from_minpoly_rejects_non_maximal_order():
    with pytest.raises(NotPMaximal):
        profile_from_minpoly(MinPolySpec((-8, -2, -1, 1), 2))


def test_profile_from_minpoly_degree_accounting():
    rng = random.Random(18)
    produced = 0
    while produced < 40:
        p = rng.choice(SMALL_PRIMES)
        coeffs = tuple(rng.randrange(-9, 10) for _ in range(rng.randint(2, 6))) + (1,)
        spec = MinPolySpec(coeffs, p)
        if not _dedekind(spec):
            continue
        profile, _ = profile_from_minpoly(spec)
        assert profile.degree == spec.degree
        assert sum(locus.e * locus.f for locus in profile.loci) == spec.degree
        produced += 1


def test_minpolyspec_validation():
    with pytest.raises(InvariantError):
        MinPolySpec((1, 1, 2), 5)  # not monic
    with pytest.raises(InvariantError):
        MinPolySpec((1, 1), 5)  # degree 1
    with pytest.raises(InvariantError):
        MinPolySpec((1, 1, 1), 6)  # p not prime
    with pytest.raises(InvariantError):
        MinPolySpec((0,) * 65 + (1,), 3)  # degree 65 over the cap
