"""Polynomial arithmetic over GF(p), factorization, and Dedekind's criterion.

Irreducibility of reported factors is cross-checked with a test-local Rabin
test (x^{p^n} = x mod f, plus gcd conditions at maximal proper subfield
degrees), so the factorizer never grades its own homework.
"""

import dataclasses
import itertools
import random

import pytest

from hassecones import (
    InternalCheckError,
    InvariantError,
    MinPolySpec,
    ModPFactorization,
    NotPMaximal,
    PrimeLocus,
    dedekind_p_maximal,
    factor_mod_p,
    gfpoly,
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


class _CheckedResidues(Residues):
    """The ring asserting its docstring's bound: every slot it reduces is below p R."""

    def _montgomery(self, v):
        assert max(self._slots(v)) < self.p << self._r, (self.p, self.n)
        return super()._montgomery(v)


class _NarrowResidues(_CheckedResidues):
    """One bit less of R than the bound asks for."""

    def _radix_bits(self):
        return super()._radix_bits() - 1


def _check_worst_case(ring_class, f, p):
    """Packed products at the ring's bounds against schoolbook mul/mod.

    Every slot of the inputs is at the lazy maximum, 2p - 1 (the bit 1 when
    p = 2); every slot of every result must lie in [0, 2p).
    """
    n = degree(f)
    ring = ring_class(f, p)
    top = 2 * p - 1 if p > 2 else 1

    def element_checked(packed):
        assert max(ring._slots(packed)) <= top, (p, n)
        return ring.poly(packed)

    a = sum(top << (8 * ring.width * i) for i in range(n))
    poly_a = ring.poly(a)
    square = element_checked(ring.mul(a, a))
    assert square == mod(mul(poly_a, poly_a, p), f, p), (p, n)
    # the square times x is the square shifted by one slot before its fold
    assert element_checked(ring._fold((a * a) << 8 * ring.width)) == mod(mul(square, X, p), f, p), (p, n)
    # a linear combination of 2n elements with coefficients p - 1
    assert ring.poly(a * (p - 1) * 2 * n) == normalize([c * (p - 1) * 2 * n for c in poly_a], p), (p, n)
    b, poly_b = a, poly_a
    for _ in range(6):
        b, poly_b = ring.mul(b, b), mod(mul(poly_b, poly_b, p), f, p)
        assert element_checked(b) == poly_b, (p, n)
    for e in (p, 2 * n + 1):
        assert element_checked(ring.x_pow(e)) == powmod(X, e, f, p), (p, n, e)


def _bound_cases(p):
    # every low coefficient of f at p - 1, and a random f
    rng = random.Random(p)
    for n in (1, 2, 17, 64):
        yield (p - 1,) * n + (1,)
        yield _random_monic(rng, n, p)


@pytest.mark.parametrize("p", RING_PRIMES)
def test_residue_ring_at_its_bounds(p):
    for f in _bound_cases(p):
        _check_worst_case(_CheckedResidues, f, p)


def test_narrow_ring_fails_at_its_bounds():
    # Negative control: with R = 2^(r - 1) the same inputs pass the reduction
    # a slot of at least p R (at 2^64 - 59 and 2^61 - 1, where R = 8np up to
    # rounding), so the check is sharp to one bit of R.  Characteristic 2
    # has no R to narrow.
    failed = []
    for p in RING_PRIMES[1:]:
        for f in _bound_cases(p):
            try:
                _check_worst_case(_NarrowResidues, f, p)
            except AssertionError:
                failed.append((p, degree(f)))
    assert {2**61 - 1, 2**64 - 59} <= {p for p, _ in failed}, failed


@pytest.mark.parametrize("p", RING_PRIMES)
def test_x_power_by_square_and_shift(p):
    rng = random.Random(p + 1)
    for n in (1, 2, 17, 64):
        f = _random_monic(rng, n, p)
        ring = Residues(f, p)
        for e in (0, 1, 2, p, rng.randrange(p * p)):
            assert ring.poly(ring.x_pow(e)) == powmod(X, e, f, p), (n, e)


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
        fact = factor_mod_p(spec)
        assert fact.product() == spec.reduced()
        for poly, mult in fact.factors:
            assert mult >= 1
            assert poly == monic(poly, p)
            assert rabin_irreducible(poly, p)


def test_factorization_refuses_a_product_that_does_not_multiply_back(monkeypatch):
    # x^2 - 1 = (x + 1)(x + 4) mod 5: the equal-degree stage splits both
    # linear factors out of one part, and with the first dropped the product
    # check must stop the result
    spec = MinPolySpec((-1, 0, 1), 5)
    assert factor_mod_p(spec).factors == (((1, 1), 1), ((4, 1), 1))
    equal_degree = gfpoly.equal_degree_factorization
    monkeypatch.setattr(gfpoly, "equal_degree_factorization", lambda *args: equal_degree(*args)[1:])
    with pytest.raises(InternalCheckError, match="^factorization product check failed$"):
        factor_mod_p(spec)


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


WORKED_DEDEKIND = (
    (MinPolySpec((-5, 0, 1), 5), True),
    (MinPolySpec((-1, -1, 1), 5), True),
    (MinPolySpec((-8, -2, -1, 1), 2), False),
    # x^4 + 2x^3 + x^2 - 2x = x^2 (x + 1)^2 mod 2 and F mod p = x: the
    # remainder test needs x and x + 1 apart, not grouped as (x^2 + x)^2
    (MinPolySpec((0, -2, 1, 2, 1), 2), False),
)


def test_dedekind_agrees_with_the_gcd_oracle():
    # one remainder per repeated factor against gcd(F mod p, g*, h*)
    rng = random.Random(19)
    rejected = 0
    cases = [spec for spec, _ in WORKED_DEDEKIND]
    for _ in range(3200):
        p = rng.choice((2, 3, 5, 7))
        cases.append(MinPolySpec(tuple(rng.randrange(-p * p, p * p) for _ in range(rng.randint(2, 7))) + (1,), p))
    for spec in cases:
        fact = factor_mod_p(spec)
        verdict = dedekind_p_maximal(spec, fact)
        assert verdict == oracles.dedekind_p_maximal(spec, fact), spec
        rejected += not verdict
    for spec, expected in WORKED_DEDEKIND:
        assert oracles.dedekind_p_maximal(spec, factor_mod_p(spec)) is expected
    # the factors the criterion reads are irreducible and distinct
    assert factor_mod_p(WORKED_DEDEKIND[-1][0]).factors == (((0, 1), 2), ((1, 1), 2))
    # both verdicts occur often enough to compare
    assert rejected > 200


def test_dedekind_refuses_a_factorization_that_does_not_multiply_back():
    # x^2 + 1 = (x + 2)(x + 3) mod 5, (x + 1)^2 (x^2 + x + 1) mod 2, and
    # (x + 1)(x^3 + x^2 + 1) mod 2, where x + 1 alone agrees with g up to
    # degree 1: only the padded top coefficients tell them apart
    specs = (MinPolySpec((1, 0, 1), 5), MinPolySpec((1, 1, 2, 1, 1), 2), MinPolySpec((1, 1, 1, 0, 1), 2))
    for spec in specs:
        fact = factor_mod_p(spec)
        assert len(fact.factors) == 2
        for kept in (fact.factors[:1], fact.factors[1:]):
            with pytest.raises(InternalCheckError, match="is not divisible by p"):
                dedekind_p_maximal(spec, ModPFactorization(spec.p, kept))


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


def _counting(monkeypatch, name: str) -> list:
    """Count the calls of gfpoly.name, looked up by the memoised profile_from_minpoly."""
    calls = []
    original = getattr(gfpoly, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(gfpoly, name, counting)
    return calls


def test_profile_from_minpoly_remembers_no_refusal(monkeypatch):
    dedekind = _counting(monkeypatch, "dedekind_p_maximal")
    factored = _counting(monkeypatch, "factor_mod_p")
    refused = [spec for spec, maximal in WORKED_DEDEKIND if not maximal]
    assert refused
    for spec in refused:
        gfpoly.profile_from_minpoly.cache_clear()
        dedekind.clear()
        factored.clear()
        for _ in range(2):
            with pytest.raises(NotPMaximal):
                profile_from_minpoly(spec)
        assert len(dedekind) == len(factored) == 2


def test_profile_from_minpoly_factors_again_for_another_prime(monkeypatch):
    factored = _counting(monkeypatch, "factor_mod_p")
    gfpoly.profile_from_minpoly.cache_clear()
    calls = ((1, 0, 1), 5), ((1, 0, 1), 5), ((1, 0, 1), 13), ((1, 0, 1), 13), ((1, 0, 1), 5)
    counts = []
    for coeffs, p in calls:
        profile_from_minpoly(MinPolySpec(coeffs, p))
        counts.append(len(factored))
    assert counts == [1, 1, 2, 2, 3]


def test_profile_from_minpoly_hit_equals_a_fresh_result():
    spec = MinPolySpec((3, 0, 1, 5, 0, 1), 7)
    gfpoly.profile_from_minpoly.cache_clear()
    first = profile_from_minpoly(spec)
    assert profile_from_minpoly(spec) is first
    gfpoly.profile_from_minpoly.cache_clear()
    fresh = profile_from_minpoly(spec)
    assert fresh is not first
    assert fresh == first
    assert fresh[1] == factor_mod_p(spec)


def test_profile_from_minpoly_result_is_frozen():
    profile, fact = profile_from_minpoly(MinPolySpec((1, 1, 1), 2))
    for value, field in ((profile, "p"), (profile, "loci"), (fact, "p"), (fact, "factors")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
    # what the fields hold is immutable as well
    assert type(profile.loci) is tuple and type(fact.factors) is tuple
    assert all(type(g) is tuple for g, _ in fact.factors)


def test_minpolyspec_validation():
    with pytest.raises(InvariantError):
        MinPolySpec((1, 1, 2), 5)  # not monic
    with pytest.raises(InvariantError):
        MinPolySpec((1, 1), 5)  # degree 1
    with pytest.raises(InvariantError):
        MinPolySpec((1, 1, 1), 6)  # p not prime
    with pytest.raises(InvariantError):
        MinPolySpec((0,) * 65 + (1,), 3)  # degree 65 over the cap
