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


def parse_embedding_label(text: str) -> Embedding:
    """Inverse of Embedding.label, e.g. 'P0:b1:i2'."""
    parts = text.split(":")
    if len(parts) != 3 or not parts[0].startswith("P") or not parts[1].startswith("b") or not parts[2].startswith("i"):
        raise ForeignEmbedding(f"malformed embedding label {text!r}")
    try:
        tau = Embedding(int(parts[0][1:]), int(parts[1][1:]), int(parts[2][1:]))
    except ValueError as exc:
        raise ForeignEmbedding(f"malformed embedding label {text!r}") from exc
    if tau.locus < 0 or tau.beta < 0 or tau.i < 1:
        raise ForeignEmbedding(f"embedding label {text!r} is out of range")
    return tau


@dataclass(frozen=True)
class Carousel:
    """A profile together with its ordered embeddings and shift tables."""

    profile: SplittingProfile
    embeddings: tuple[Embedding, ...]
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
        offset = sum(l.degree for l in loci[: tau.locus])
        return offset + tau.beta * locus.e + (tau.i - 1)


def build_carousel(profile: SplittingProfile) -> Carousel:
    embeddings: list[Embedding] = []
    for locus_index, locus in enumerate(profile.loci):
        for beta in range(locus.f):
            for i in range(1, locus.e + 1):
                embeddings.append(Embedding(locus_index, beta, i))

    position = {emb: pos for pos, emb in enumerate(embeddings)}
    sigma_table = []
    n_table = []
    for emb in embeddings:
        locus = profile.loci[emb.locus]
        if emb.i < locus.e:
            image = Embedding(emb.locus, emb.beta, emb.i + 1)
        else:
            image = Embedding(emb.locus, (emb.beta + 1) % locus.f, 1)
        sigma_table.append(position[image])
        n_table.append(profile.p if emb.i == 1 else 1)

    sigma_inv_table = [0] * len(embeddings)
    for source, target in enumerate(sigma_table):
        sigma_inv_table[target] = source

    return Carousel(
        profile=profile,
        embeddings=tuple(embeddings),
        sigma_table=tuple(sigma_table),
        sigma_inv_table=tuple(sigma_inv_table),
        n_table=tuple(n_table),
    )


def sigma(c: Carousel, tau: Embedding) -> Embedding:
    return c.embeddings[c.sigma_table[c.index_of(tau)]]


def sigma_inv(c: Carousel, tau: Embedding) -> Embedding:
    return c.embeddings[c.sigma_inv_table[c.index_of(tau)]]


def n_of(c: Carousel, tau: Embedding) -> int:
    return c.n_table[c.index_of(tau)]


def orbit(c: Carousel, tau: Embedding) -> tuple[Embedding, ...]:
    """The full sigma-orbit of tau, starting at tau."""
    start = c.index_of(tau)
    out = [start]
    cur = c.sigma_table[start]
    while cur != start:
        out.append(cur)
        cur = c.sigma_table[cur]
    return tuple(c.embeddings[j] for j in out)


def locus_orbits(c: Carousel) -> tuple[tuple[int, ...], ...]:
    """Canonical positions of each locus, walked as the sigma-orbit of its first embedding."""
    out = []
    start = 0
    for locus in c.profile.loci:
        walk = [start]
        cur = c.sigma_table[start]
        while cur != start:
            walk.append(cur)
            cur = c.sigma_table[cur]
        out.append(tuple(walk))
        start += locus.degree
    return tuple(out)
