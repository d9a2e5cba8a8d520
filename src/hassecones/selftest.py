"""Embedded invariant suite run by the `selftest` subcommand.

Five checks over a fixed panel of profiles: the determinant identity
|det M| = prod (p**f - 1), the cone chain C^min <= C^st <= C^Hasse, the split
criterion (equality iff totally split), the fibre-degree bridge against
reducible directions, and the torsion divisor bound on all strata.  Each
check calls the one predicate that states its invariant, in the module that
owns the mathematics (hasse.determinant_identity, cones.cone_chain,
cones.split_criterion, strata.bridge_agrees, strata.within_torsion_bound);
the `cones`, `bridge` and `picard` reports use the same predicates.  The
torsion bound is checked once per class of per-locus parities
(strata.parity_classes), the classes a full `picard` sweep reads.

The `bad_hasse` hook deliberately builds the Hasse matrix with the wrong sign
on the e_tau term so the determinant check trips; it exists as a negative
control proving the suite can fail.
"""

from __future__ import annotations

from itertools import product

from .carousel import build_carousel
from .cones import cone_chain, hasse_cone, min_cone, split_criterion
from .errors import DimensionTooLarge
from .hasse import Weight, determinant_identity, hasse_matrix
from .intlinalg import bareiss_determinant
from .profile import PrimeLocus, SplittingProfile
from .reduction import reducible_directions
from .strata import bridge_agrees, parity_classes, within_torsion_bound


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

BRIDGE_BOX = 2
BRIDGE_POWERS = (1, 2)
# The bridge check walks (2 * BRIDGE_BOX + 1)**d weights, 78,125 at d = 7 and
# five times more per extra degree; an inert d = 7 entry at p = 3 takes
# seconds, and the cost of every other check is negligible beside it.
MAX_PANEL_DEGREE = 7


def _determinant_check(c, bad_hasse: bool) -> bool:
    rows = [list(row) for row in hasse_matrix(c)]
    if bad_hasse:
        # Negative control: flip the -e_tau term to +e_tau in every column.
        for j in range(c.d):
            rows[j][j] += 2
    return determinant_identity(c.profile, bareiss_determinant(rows))


def _cone_chain_check(c) -> bool:
    return all(cone_chain(min_cone(c), hasse_cone(c)))


def _split_check(c) -> bool:
    return split_criterion(c, min_cone(c), hasse_cone(c))


def _bridge_check(c) -> bool:
    taus = [tau for tau in c.embeddings if c.profile.loci[tau.locus].degree > 1]
    for coords in product(range(-BRIDGE_BOX, BRIDGE_BOX + 1), repeat=c.d):
        k = Weight(coords)
        reducible = set(reducible_directions(c, k))
        for tau in taus:
            for r in BRIDGE_POWERS:
                if not bridge_agrees(c, k, tau, r, reducible):
                    return False
    return True


def _torsion_check(c) -> bool:
    # the open torsion depends on a stratum only through its per-locus parities
    return all(within_torsion_bound(c, torsion) for torsion in parity_classes(c))


CHECKS = (
    ("determinant_identity", lambda c, bad: _determinant_check(c, bad)),
    ("cone_chain", lambda c, bad: _cone_chain_check(c)),
    ("split_criterion", lambda c, bad: _split_check(c)),
    ("bridge_identity", lambda c, bad: _bridge_check(c)),
    ("torsion_bound", lambda c, bad: _torsion_check(c)),
)


def run_selftest(panel=None, bad_hasse: bool = False):
    """Run all checks over the panel; returns (rows, all_passed, vacuous).

    A panel entry of degree above MAX_PANEL_DEGREE is refused before any
    check runs.
    """
    panel = DEFAULT_PANEL if panel is None else tuple(panel)
    for index, profile in enumerate(panel):
        if profile.degree > MAX_PANEL_DEGREE:
            raise DimensionTooLarge(
                f"selftest panel entry {index} has degree {profile.degree}; "
                f"the panel is capped at d <= {MAX_PANEL_DEGREE}"
            )
    rows = []
    all_passed = True
    for profile in panel:
        c = build_carousel(profile)
        for name, check in CHECKS:
            passed = bool(check(c, bad_hasse))
            rows.append({"check": name, "profile": profile.as_dict(), "pass": passed})
            all_passed = all_passed and passed
    return rows, all_passed, not panel
