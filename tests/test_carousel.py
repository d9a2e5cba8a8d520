"""The embedding carousel: canonical order, the shift sigma, multipliers."""

import random

import pytest

from hassecones import (
    Embedding,
    ForeignEmbedding,
    build_carousel,
    n_of,
    orbit,
    sigma,
    sigma_inv,
)
from hassecones.carousel import parse_embedding_label

import oracles
from helpers import carousel_of, exhaustive_profiles, random_profile


def test_sigma_on_ramified_quadratic():
    c = carousel_of(2, [(2, 1)])
    t01 = Embedding(0, 0, 1)
    t02 = Embedding(0, 0, 2)
    assert c.embeddings == (t01, t02)
    assert sigma(c, t01) == t02
    assert sigma(c, t02) == t01
    # the inverse on a 2-cycle is the same swap
    assert sigma_inv(c, t01) == t02


def test_sigma_wraps_beta_on_inert_quadratic():
    c = carousel_of(2, [(1, 2)])
    t0 = Embedding(0, 0, 1)
    t1 = Embedding(0, 1, 1)
    assert sigma(c, t0) == t1
    assert sigma(c, t1) == t0


def test_sigma_is_identity_when_totally_split():
    c = carousel_of(3, [(1, 1), (1, 1)])
    for tau in c.embeddings:
        assert sigma(c, tau) == tau
        assert orbit(c, tau) == (tau,)


def test_multiplier_values_on_ramified_locus():
    c = carousel_of(2, [(2, 1)])
    assert n_of(c, Embedding(0, 0, 1)) == 2
    assert n_of(c, Embedding(0, 0, 2)) == 1


def test_multiplier_is_p_everywhere_when_unramified():
    c = carousel_of(5, [(1, 3)])
    assert [n_of(c, tau) for tau in c.embeddings] == [5, 5, 5]


def test_orbit_length_and_multiplier_product():
    c = carousel_of(2, [(2, 2)])
    cycle = orbit(c, c.embeddings[0])
    assert len(cycle) == 4
    assert set(cycle) == set(c.embeddings)
    prod = 1
    for tau in cycle:
        prod *= n_of(c, tau)
    assert prod == 4  # p^f with p = 2, f = 2


def test_canonical_order_and_labels():
    c = carousel_of(2, [(3, 1), (1, 1)])
    labels = [tau.label() for tau in c.embeddings]
    assert labels == ["P0:b0:i1", "P0:b0:i2", "P0:b0:i3", "P1:b0:i1"]
    for j, tau in enumerate(c.embeddings):
        assert c.index_of(tau) == j
        assert parse_embedding_label(tau.label()) == tau


def test_parse_label_rejects_garbage():
    for text in ("", "P0", "P0:b0", "Q0:b0:i1", "P0:b0:i0x", "P-1:b0:i1"):
        with pytest.raises(ForeignEmbedding):
            parse_embedding_label(text)


def test_foreign_embedding_rejected():
    c = carousel_of(2, [(2, 1)])
    with pytest.raises(ForeignEmbedding):
        c.index_of(Embedding(1, 0, 1))  # locus out of range
    with pytest.raises(ForeignEmbedding):
        c.index_of(Embedding(0, 1, 1))  # beta out of range for f = 1
    with pytest.raises(ForeignEmbedding):
        c.index_of(Embedding(0, 0, 3))  # i out of range for e = 2


def test_sigma_structure_on_random_profiles():
    rng = random.Random(21)
    for _ in range(40):
        profile = random_profile(rng, (2, 3, 5, 7), dmax=10)
        c = build_carousel(profile)
        d = c.d
        assert sorted(c.sigma_table) == list(range(d))
        assert all(c.sigma_table[c.sigma_inv_table[j]] == j for j in range(d))
        for tau in c.embeddings:
            assert sigma_inv(c, sigma(c, tau)) == tau
            assert n_of(c, tau) == (profile.p if tau.i == 1 else 1)
        offset = 0
        for locus in profile.loci:
            block = c.embeddings[offset : offset + locus.degree]
            # sigma restricted to the locus is one cycle through all of it
            cycle = orbit(c, block[0])
            assert len(cycle) == locus.degree
            assert set(cycle) == set(block)
            prod = 1
            for tau in block:
                prod *= n_of(c, tau)
            assert prod == profile.p**locus.f
            offset += locus.degree


def test_block_tables_equal_embedding_rule_reference():
    # The tables are built from the block rule; the reference follows sigma
    # on Embedding values through a position dict.
    for profile in exhaustive_profiles((2, 3, 5), dmax=8):
        c = build_carousel(profile)
        embeddings, sigma_table, sigma_inv_table, n_table, orbits = oracles.carousel_tables(profile)
        assert c.embeddings == embeddings
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
