"""The embedding carousel: indexing conventions for Sigma and the shift sigma.

For each locus P with invariants (e, f) there are e*f embeddings tau_{beta,i},
indexed by beta in [0, f) (the Frobenius layer) and i in [1, e] (the
ramification layer).  The canonical order of Sigma lists loci in profile
order, then beta ascending, then i ascending.  An embedding is its position
in that order: weights, matrices, tables and every library function index
by position, and `Carousel.labels[j]`, "P{locus}:b{beta}:i{i}", is only the
text reports print for position j.

The shift permutation sigma advances i within a layer and wraps into the next
Frobenius layer at the top:

    sigma(tau_{beta,i}) = tau_{beta,i+1}          for i < e
    sigma(tau_{beta,e}) = tau_{beta+1 mod f, 1}

so each locus is a single sigma-orbit of length e*f.  The multiplier n_tau is
p exactly when i = 1 and 1 otherwise; around any orbit the multipliers
multiply to p**f.

In canonical positions all of this is arithmetic.  Each locus is a
contiguous block of e*f positions (`Carousel.blocks`), tau_{beta,i} sits at
offset beta*e + i - 1 of its block, and the orbit visits the block in
canonical order: sigma adds 1 to the offset cyclically, and n_tau = p
exactly at the offsets divisible by e.  The tables are built from that rule,
and every closed form that walks an orbit walks a block.  The partial Hasse
invariant at position j has weight h_j = n_j e_{sigma^{-1} j} - e_j, a
column with two nonzero entries (`hasse_column`); the C^min normal
n_j e_j - e_{sigma^{-1} j} (`min_normal`) is the same two entries with their
positions exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profile import SplittingProfile


@dataclass(frozen=True)
class Carousel:
    """A profile with its embedding labels, orbit blocks and shift tables, all indexed by position."""

    profile: SplittingProfile
    labels: tuple[str, ...]
    blocks: tuple[range, ...]
    sigma_table: tuple[int, ...]
    sigma_inv_table: tuple[int, ...]
    n_table: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.labels)

    def hasse_column(self, j: int) -> tuple[int, ...]:
        """h_j = n_j e_{sigma^{-1} j} - e_j; where sigma fixes j (a split locus) the entry is p - 1."""
        return self._two_entries(self.sigma_inv_table[j], j, j)

    def min_normal(self, j: int) -> tuple[int, ...]:
        """n_j e_j - e_{sigma^{-1} j}: the C^min normal at j, h_j with its two positions exchanged."""
        return self._two_entries(j, self.sigma_inv_table[j], j)

    def _two_entries(self, at_n: int, at_minus_one: int, j: int) -> tuple[int, ...]:
        vec = [0] * self.d
        vec[at_n] += self.n_table[j]
        vec[at_minus_one] -= 1
        return tuple(vec)


def build_carousel(profile: SplittingProfile) -> Carousel:
    labels: list[str] = []
    blocks = []
    sigma_table: list[int] = []
    sigma_inv_table: list[int] = []
    n_table: list[int] = []
    for locus_index, locus in enumerate(profile.loci):
        block = range(len(labels), len(labels) + locus.degree)
        blocks.append(block)
        for t in range(locus.degree):
            beta, i = divmod(t, locus.e)
            labels.append(f"P{locus_index}:b{beta}:i{i + 1}")
            n_table.append(profile.p if i == 0 else 1)
        sigma_table += [*block[1:], block[0]]
        sigma_inv_table += [block[-1], *block[:-1]]
    return Carousel(
        profile=profile,
        labels=tuple(labels),
        blocks=tuple(blocks),
        sigma_table=tuple(sigma_table),
        sigma_inv_table=tuple(sigma_inv_table),
        n_table=tuple(n_table),
    )
