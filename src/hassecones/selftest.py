"""Embedded invariant suite run by the `selftest` subcommand.

Five checks over a fixed panel of profiles: the determinant identity
|det M| = prod (p**f - 1), the cone chain C^min <= C^st <= C^Hasse, the split
criterion (equality iff totally split), the fibre-degree bridge against
reducible directions, and the torsion divisor bound on all strata.  Each
check reads the one source that states its invariant, in the module that
owns the mathematics (hasse.determinant_identity, cones.cone_chain,
cones.split_criterion, strata.bridge_agrees, and the per-locus verdict
strata.torsion_summary gives as within_bound); the `cones`, `bridge` and
`picard` reports read the same sources.

The bridge and torsion checks hold at every weight and on every stratum once
they hold on the d unit weights and on two strata (_bridge_check,
_torsion_check), so a panel entry of any degree the input contract allows,
d <= 64, is checked in milliseconds.

The `bad_hasse` hook deliberately builds the Hasse matrix without its -e_tau
term, so the determinant check, and it alone, trips on every profile; it
exists as a negative control proving the suite can fail.
"""

from __future__ import annotations

from .carousel import build_carousel
from .cones import cone_chain, hasse_cone, min_cone, split_criterion
from .hasse import Weight, cycle_determinant, determinant_identity, hasse_matrix
from .profile import PrimeLocus, SplittingProfile
from .reduction import reducible_directions
from .strata import bridge_agrees, fibre_degree, torsion_summary


def _profile(p: int, pairs) -> SplittingProfile:
    return SplittingProfile(p, tuple(PrimeLocus(e, f) for e, f in pairs))


DEFAULT_PANEL: tuple[SplittingProfile, ...] = (
    _profile(2, [(2, 1)]),
    _profile(2, [(1, 2)]),
    _profile(3, [(1, 1), (1, 1)]),
    _profile(2, [(2, 2)]),
    _profile(5, [(1, 3)]),
    _profile(2, [(3, 1), (1, 1)]),
)

BRIDGE_POWERS = (1, 2)


def _determinant_check(c, bad_hasse: bool) -> bool:
    rows = [list(row) for row in hasse_matrix(c)]
    if bad_hasse:
        # Negative control: drop the -e_tau term of every column, leaving
        # n_tau e_{sigma^-1 tau}, so |det| = prod n_tau = prod p**f, which is
        # never the prod (p**f - 1) of the identity.
        for j in range(c.d):
            rows[j][j] += 1
    return determinant_identity(c.profile, cycle_determinant(c, rows))


def _bridge_check(c) -> bool:
    """The bridge identity at every weight, read off the d unit weights.

    fibre_degree(c, k, j, r) is linear in k, so it equals (p**r / n_j) N_j . k,
    N_j the C^min normal at j, for every k exactly when it does on each unit
    weight e_i.  As p**r / n_j > 0 its sign is then that of N_j . k, and
    N_j . k < 0 is reducibility at j.  bridge_agrees on each e_i ties that to
    the reduction engine: e_{sigma^{-1} j} is reducible at j and e_j is not.
    """
    p = c.profile.p
    positions = [j for j in range(c.d) if c.sigma_table[j] != j]
    normals = {j: c.min_normal(j) for j in positions}
    for i in range(c.d):
        unit = Weight(tuple(int(t == i) for t in range(c.d)))
        reducible = set(reducible_directions(c, unit))
        for j in positions:
            for r in BRIDGE_POWERS:
                scale = p**r // c.n_table[j]
                if fibre_degree(c, unit, j, r) != scale * normals[j][i] or not bridge_agrees(c, unit, j, r, reducible):
                    return False
    return True


def _torsion_check(c) -> bool:
    """The torsion bound on every stratum, from the stratum even on every locus and the one odd on every locus."""
    odd = ["0"] * c.d
    for block in c.blocks:
        odd[block.start] = "1"
    return all(torsion_summary(c, bits).within_bound for bits in ("0" * c.d, "".join(odd)))


CHECKS = ("determinant_identity", "cone_chain", "split_criterion", "bridge_identity", "torsion_bound")


def _verdicts(c, bad_hasse: bool) -> tuple[bool, ...]:
    """One verdict per name in CHECKS, in order; each cone is built once."""
    cone_min, cone_hasse = min_cone(c), hasse_cone(c)
    return (
        _determinant_check(c, bad_hasse),
        all(cone_chain(cone_min, cone_hasse)),
        split_criterion(c, cone_min, cone_hasse),
        _bridge_check(c),
        _torsion_check(c),
    )


def run_selftest(panel=None, bad_hasse: bool = False):
    """Run all checks over the panel; returns (rows, all_passed, vacuous)."""
    panel = DEFAULT_PANEL if panel is None else tuple(panel)
    rows = []
    all_passed = True
    for profile in panel:
        for name, passed in zip(CHECKS, _verdicts(build_carousel(profile), bad_hasse)):
            rows.append({"check": name, "profile": profile.as_dict(), "pass": passed})
            all_passed = all_passed and passed
    return rows, all_passed, not panel
