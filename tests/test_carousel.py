"""The embedding carousel: canonical order, the shift sigma, multipliers."""

import random

import pytest

from hassecones import ForeignEmbedding, SingletonOrbit, Weight, build_carousel, fibre_degree

import oracles
from helpers import carousel_of, exhaustive_profiles, random_profile


def test_sigma_on_ramified_quadratic():
    c = carousel_of(2, [(2, 1)])
    assert c.labels == ("P0:b0:i1", "P0:b0:i2")
    assert c.sigma_table == (1, 0)
    # the inverse on a 2-cycle is the same swap
    assert c.sigma_inv_table == (1, 0)


def test_sigma_wraps_beta_on_inert_quadratic():
    c = carousel_of(2, [(1, 2)])
    assert c.labels == ("P0:b0:i1", "P0:b1:i1")
    assert c.sigma_table == (1, 0)


def test_sigma_is_identity_when_totally_split():
    c = carousel_of(3, [(1, 1), (1, 1)])
    assert c.sigma_table == c.sigma_inv_table == (0, 1)
    assert c.blocks == (range(0, 1), range(1, 2))


def test_multiplier_values_on_ramified_locus():
    c = carousel_of(2, [(2, 1)])
    # n = p at tau_{0,1}, position 0, and 1 at tau_{0,2}, position 1
    assert c.n_table == (2, 1)


def test_multiplier_is_p_everywhere_when_unramified():
    c = carousel_of(5, [(1, 3)])
    assert c.n_table == (5, 5, 5)


def test_orbit_length_and_multiplier_product():
    c = carousel_of(2, [(2, 2)])
    (block,) = c.blocks
    assert block == range(4)
    # sigma walks the block in order and wraps at its end
    assert [c.sigma_table[j] for j in block] == [1, 2, 3, 0]
    prod = 1
    for j in block:
        prod *= c.n_table[j]
    assert prod == 4  # p^f with p = 2, f = 2


def test_canonical_order_and_labels():
    c = carousel_of(2, [(3, 1), (1, 1)])
    assert c.labels == ("P0:b0:i1", "P0:b0:i2", "P0:b0:i3", "P1:b0:i1")
    assert c.d == 4


def test_foreign_embedding_rejected():
    # a position is an int in [0, d): a negative one must not index from the end
    c = carousel_of(2, [(2, 1)])
    k = Weight((1, 1))
    for j in (2, -1, -2, True, False, 0.0, "0", None):
        with pytest.raises(ForeignEmbedding):
            fibre_degree(c, k, j, 1)
    assert fibre_degree(c, k, 1, 1) == 0
    # a singleton orbit is sigma_table[j] == j, named by its label
    split = carousel_of(3, [(1, 1), (2, 1)])
    assert split.sigma_table[0] == 0
    with pytest.raises(SingletonOrbit, match="P0:b0:i1 has a singleton orbit"):
        fibre_degree(split, Weight((0, 0, 0)), 0, 1)


def test_sigma_structure_on_random_profiles():
    rng = random.Random(21)
    for _ in range(40):
        profile = random_profile(rng, (2, 3, 5, 7), dmax=10)
        c = build_carousel(profile)
        d = c.d
        assert sorted(c.sigma_table) == list(range(d))
        assert all(c.sigma_table[c.sigma_inv_table[j]] == j for j in range(d))
        assert all(c.sigma_inv_table[c.sigma_table[j]] == j for j in range(d))
        for j, label in enumerate(c.labels):
            assert c.n_table[j] == (profile.p if label.endswith(":i1") else 1)
        offset = 0
        for block, locus in zip(c.blocks, profile.loci):
            assert block == range(offset, offset + locus.degree)
            # sigma restricted to the locus is one cycle through all of it
            cycle = [block.start]
            while (j := c.sigma_table[cycle[-1]]) != block.start:
                cycle.append(j)
            assert sorted(cycle) == list(block)
            prod = 1
            for j in block:
                prod *= c.n_table[j]
            assert prod == profile.p**locus.f
            offset += locus.degree


def test_block_tables_equal_embedding_rule_reference():
    # The tables are built from the block rule; the reference follows sigma
    # on (locus, beta, i) triples through a position dict.
    for profile in exhaustive_profiles((2, 3, 5), dmax=8):
        c = build_carousel(profile)
        labels, sigma_table, sigma_inv_table, n_table, orbits = oracles.carousel_tables(profile)
        assert c.labels == labels
        assert (c.sigma_table, c.sigma_inv_table, c.n_table) == (sigma_table, sigma_inv_table, n_table)
        assert tuple(tuple(block) for block in c.blocks) == orbits
        for j in range(c.d):
            column = [0] * c.d
            column[sigma_inv_table[j]] += n_table[j]
            column[j] -= 1
            normal = [0] * c.d
            normal[j] += n_table[j]
            normal[sigma_inv_table[j]] -= 1
            assert c.hasse_column(j) == tuple(column)
            assert c.min_normal(j) == tuple(normal)
