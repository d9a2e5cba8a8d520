"""Splitting-profile parsing, validation, and primality testing."""

import json
import random

import pytest

from hassecones import (
    InvariantError,
    MinPolySpec,
    PrimeLocus,
    SchemaError,
    SplittingProfile,
    is_prime,
    parse_profile,
    profile_from_minpoly,
)
from hassecones.profile import MAX_DEGREE, MAX_PRIME, profile_from_data

import oracles
from helpers import profile_of


def test_worked_profile_parses():
    profile = parse_profile('{"p": 2, "loci": [{"e": 2, "f": 1}]}')
    assert profile.p == 2
    assert profile.degree == 2
    assert profile.loci == (PrimeLocus(2, 1),)
    assert not profile.is_totally_split()


def test_totally_split_profile():
    profile = parse_profile('{"p": 3, "loci": [{"e": 1, "f": 1}, {"e": 1, "f": 1}]}')
    assert profile.degree == 2
    assert profile.is_totally_split()


def test_as_dict_round_trips():
    profile = profile_of(5, [(1, 3), (2, 2)])
    again = parse_profile(json.dumps(profile.as_dict()))
    assert again == profile


def test_rejects_zero_ramification_index():
    with pytest.raises(InvariantError):
        parse_profile('{"p": 2, "loci": [{"e": 0, "f": 1}]}')


def test_rejects_zero_residue_degree():
    with pytest.raises(InvariantError):
        PrimeLocus(1, 0)


def test_rejects_nonprime_p():
    for bad in (1, 4, 561, -3, 0):
        with pytest.raises(InvariantError):
            profile_of(bad, [(2, 1)])


def test_rejects_degree_below_two():
    with pytest.raises(InvariantError):
        profile_of(2, [(1, 1)])


def test_rejects_a_profile_without_loci():
    with pytest.raises(InvariantError, match="^profile needs at least one locus$"):
        SplittingProfile(2, ())


def test_rejects_degree_above_cap():
    with pytest.raises(InvariantError):
        profile_of(2, [(1, MAX_DEGREE + 1)])
    # exactly at the cap is fine
    assert profile_of(2, [(1, MAX_DEGREE)]).degree == MAX_DEGREE
    # a degree too long to print is refused by naming the cap alone
    with pytest.raises(InvariantError, match=f"^total degree must be at most {MAX_DEGREE}$"):
        profile_of(2, [(10**4000, 10**4000)])


def test_rejects_prime_at_or_above_64_bits():
    # 2**64 + 13 is prime, but outside the supported envelope.
    with pytest.raises(InvariantError):
        profile_of(2**64 + 13, [(2, 1)])


def test_malformed_documents_are_schema_errors():
    bad_documents = [
        "not json at all",
        "[1, 2, 3]",
        '{"loci": [{"e": 1, "f": 2}]}',
        '{"p": 2}',
        '{"p": 2, "loci": []}',
        '{"p": 2, "loci": [{"e": 1}]}',
        '{"p": 2, "loci": [{"e": 1, "f": 2, "extra": 3}]}',
        '{"p": 2, "loci": [{"e": 1, "f": 2}], "extra": true}',
        '{"p": true, "loci": [{"e": 2, "f": 1}]}',
        '{"p": 2, "loci": [{"e": "2", "f": 1}]}',
        '{"p": 2.0, "loci": [{"e": 2, "f": 1}]}',
    ]
    for document in bad_documents:
        with pytest.raises(SchemaError):
            parse_profile(document)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PrimeLocus(True, 2),
        lambda: PrimeLocus(2, 1.0),
        lambda: SplittingProfile(True, (PrimeLocus(1, 2),)),
        lambda: SplittingProfile(2.0, (PrimeLocus(1, 2),)),
        lambda: MinPolySpec((-1, -1, True), 5),
        lambda: MinPolySpec((-1, -1.0, 1), 5),
        lambda: MinPolySpec(("a", 1, 1), 5),
        lambda: MinPolySpec((-1, -1, 1), True),
    ],
    ids=["locus-bool", "locus-float", "p-bool", "p-float", "coeff-bool", "coeff-float", "coeff-str", "minpoly-p-bool"],
)
def test_library_boundary_refuses_non_integers(build):
    # a bool is not an integer entry, and a float or str is a schema fault,
    # not a TypeError or a non-prime p (exit 3)
    with pytest.raises(SchemaError):
        build()


def test_profile_from_data_requires_mapping():
    with pytest.raises(SchemaError):
        profile_from_data(["p", 2])


def test_minpoly_document_route():
    # a polynomial enters only as --minpoly with --p, never as a profile document
    with pytest.raises(SchemaError, match="--minpoly with --p"):
        parse_profile('{"p": 5, "minpoly": [-1, -1, 1]}')
    profile, _ = profile_from_minpoly(MinPolySpec((-1, -1, 1), 5))
    assert profile.p == 5
    assert profile.loci == (PrimeLocus(2, 1),)


def test_minpoly_document_rejects_non_integer_coefficients():
    with pytest.raises(SchemaError, match="--minpoly with --p"):
        parse_profile('{"p": 5, "minpoly": [-1, "x", 1]}')


def test_loci_order_is_preserved():
    profile = profile_of(3, [(1, 2), (2, 1)])
    assert [(locus.e, locus.f) for locus in profile.loci] == [(1, 2), (2, 1)]
    assert profile.degree == 4


def _trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    q = 2
    while q * q <= n:
        if n % q == 0:
            return False
        q += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(-5, 2000):
        assert is_prime(n) == _trial_division_prime(n), n


def test_is_prime_on_large_inputs():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**61 + 1)  # 3 divides it
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(18446744073709551557)  # largest prime below 2**64


# psi_k, the least strong pseudoprime to the first k primes, for each distinct
# value with k <= 11 (psi_8 = psi_7 and psi_9 = psi_10 = psi_11), and the two
# past 2**64 that pass all twelve witnesses.
LEAST_STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981
# The upper ends of the witness bands: below each, a fixed prefix of the
# twelve witnesses decides.
BAND_BOUNDS = LEAST_STRONG_PSEUDOPRIMES[1:] + (MAX_PRIME,)


def test_is_prime_rejects_each_least_strong_pseudoprime():
    for n in LEAST_STRONG_PSEUDOPRIMES:
        assert not is_prime(n), n


def test_is_prime_refuses_n_at_or_above_its_cap():
    # both pass all twelve witnesses, so only the cap keeps them out
    assert oracles.is_prime(PSI_12) and oracles.is_prime(PSI_13)
    for n in (MAX_PRIME, MAX_PRIME + 13, PSI_12, PSI_13):
        with pytest.raises(InvariantError, match=r"^is_prime decides only n below MAX_PRIME = 2\*\*64$"):
            is_prime(n)
    assert is_prime(2**64 - 59)


def _largest_prime_below(bound):
    n = bound - 1
    while not oracles.is_prime(n):
        n -= 1
    return n


def test_is_prime_agrees_with_twelve_witnesses_in_every_band():
    rng = random.Random(28)
    low = 2
    for bound in BAND_BOUNDS:
        largest = _largest_prime_below(bound)
        assert is_prime(largest), largest
        sample = [rng.randrange(low, bound) for _ in range(200)]
        # random draws are mostly composite, so add the next prime after a few
        starts = [rng.randrange(low, bound) for _ in range(20)]
        for start in starts:
            n = start
            while not oracles.is_prime(n):
                n += 1
            sample.append(n)
        for n in sample:
            assert is_prime(n) == oracles.is_prime(n), n
        low = bound


def test_is_prime_remembers_one_answer():
    is_prime.cache_clear()
    assert is_prime(2**61 - 1) and is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    info = is_prime.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 2, 1, 1)


def test_profiles_are_hashable_values():
    a = profile_of(2, [(2, 1)])
    b = profile_of(2, [(2, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != profile_of(2, [(1, 2)])
