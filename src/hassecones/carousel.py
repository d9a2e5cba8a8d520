"""The embedding carousel: indexing conventions for Sigma and the shift sigma.

For each locus P with invariants (e, f) there are e*f embeddings tau_{beta,i},
indexed by beta in [0, f) (the Frobenius layer) and i in [1, e] (the
ramification layer).  The canonical order of Sigma lists loci in profile
order, then beta ascending, then i ascending; positions in that order are the
integer indices used by weight vectors and matrices everywhere else.

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

from .errors import ForeignEmbedding
from .profile import SplittingProfile


@dataclass(frozen=True)
class Embedding:
    """One embedding tau_{beta,i} of the locus with the given profile position."""

    locus: int
    beta: int
    i: int

    def label(self) -> str:
        return f"P{self.locus}:b{self.beta}:i{self.i}"


@dataclass(frozen=True)
class Carousel:
    """A profile together with its ordered embeddings, orbit blocks and shift tables."""

    profile: SplittingProfile
    embeddings: tuple[Embedding, ...]
    blocks: tuple[range, ...]
    sigma_table: tuple[int, ...]
    sigma_inv_table: tuple[int, ...]
    n_table: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.embeddings)

    def index_of(self, tau: Embedding) -> int:
        """Canonical position of tau; ForeignEmbedding if it is not in Sigma."""
        loci = self.profile.loci
        if not (0 <= tau.locus < len(loci)):
            raise ForeignEmbedding(f"{tau.label()}: locus index out of range")
        locus = loci[tau.locus]
        if not (0 <= tau.beta < locus.f) or not (1 <= tau.i <= locus.e):
            raise ForeignEmbedding(f"{tau.label()}: no such embedding for (e={locus.e}, f={locus.f})")
        return self.blocks[tau.locus][tau.beta * locus.e + tau.i - 1]

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
    embeddings: list[Embedding] = []
    blocks = []
    sigma_table: list[int] = []
    sigma_inv_table: list[int] = []
    n_table: list[int] = []
    for locus_index, locus in enumerate(profile.loci):
        block = range(len(embeddings), len(embeddings) + locus.degree)
        blocks.append(block)
        for t in range(locus.degree):
            beta, i = divmod(t, locus.e)
            embeddings.append(Embedding(locus_index, beta, i + 1))
            n_table.append(profile.p if i == 0 else 1)
        sigma_table += [*block[1:], block[0]]
        sigma_inv_table += [block[-1], *block[:-1]]
    return Carousel(
        profile=profile,
        embeddings=tuple(embeddings),
        blocks=tuple(blocks),
        sigma_table=tuple(sigma_table),
        sigma_inv_table=tuple(sigma_inv_table),
        n_table=tuple(n_table),
    )

