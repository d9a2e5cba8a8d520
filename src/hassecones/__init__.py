"""Exact weight combinatorics for mod-p Hilbert modular forms.

Given the splitting behaviour of a prime p in a totally real field, this
package builds the embedding carousel, partial Hasse invariant weights, the
minimal/standard/Hasse cones, the greedy reduction and decomposition
machinery, and the stratum-level Picard torsion computations, all in exact
integer/rational arithmetic.  Every matrix involved is block-diagonal over
loci with one sigma-orbit per block, so the Hasse coordinates, the rays and
normals of the (simplicial) cones and the Picard quotients are computed in
closed form one orbit at a time.
"""

from .carousel import Carousel, build_carousel
from .cones import (
    MembershipCertificate,
    SimplicialCone,
    cone_chain,
    contains,
    hasse_cone,
    hasse_contains,
    min_cone,
    split_criterion,
    std_cone,
)
from .errors import (
    DimensionMismatch,
    ForeignEmbedding,
    HasseConesError,
    InternalCheckError,
    InvariantError,
    MultiplierNotDividing,
    NotPMaximal,
    ReductionTooLong,
    SchemaError,
    SingletonOrbit,
)
from .gfpoly import (
    MinPolySpec,
    ModPFactorization,
    dedekind_p_maximal,
    factor_mod_p,
    profile_from_minpoly,
)
from .hasse import (
    Weight,
    determinant_identity,
    hasse_coordinates,
    hasse_lattice_index,
    hasse_matrix,
)
from .profile import PrimeLocus, SplittingProfile, is_prime, parse_profile
from .reduction import (
    Decomposition,
    InMinCone,
    ReductionOutcome,
    Vanishing,
    enumerate_min_decompositions,
    greedy_reduce,
    make_decomposition,
    pareto_maximal_decompositions,
    reducible_directions,
)
from .strata import (
    PicardSummary,
    bridge_agrees,
    fibre_degree,
    torsion_summary,
)

__version__ = "0.1.0"
