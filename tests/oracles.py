"""The generic exact algorithms the library no longer runs, kept as test oracles.

The library solves the Hasse matrix, the cone conversions and the Picard
quotients one sigma-orbit at a time, in closed form.  The general-purpose
routines it used before are kept here unchanged, so the closed forms are
checked against an independent algorithm and the routines' own tests still
run:

  * the carousel tables built from the rule for sigma on (locus, beta, i)
    triples, through a position dict, and each locus orbit walked by sigma:
    the reference for the arithmetic block rule of build_carousel;
  * exact integer vectors (dot, content, primitive), the rank over the
    rationals that double description tests adjacency with, and the
    fraction-free (Bareiss) determinant, the reference for the determinant
    the library reads off the cycles of sigma;
  * double description (Fukuda & Prodon, "Double description method
    revisited", 1996) in both directions, capped at MAX_DD_DIMENSION
    (DimensionCapExceeded);
  * the single-representation cones HRepCone and VRepCone they act on;
  * membership in a V-representation by an exact phase-I simplex over
    Fraction with Bland's rule, and subset/equality built on it;
  * the dense pairing matrix of rays and normals, the reference for the
    pairing check a SimplicialCone makes from the sparser side;
  * the Picard relation rows of a stratum, their Smith normal form with
    unimodular transforms, and torsion orders read off its transform;
  * within_torsion_bound, the divisor bound p**(2f) - 1 checked embedding
    by embedding on any torsion orders, the Smith-form ones included: the
    reference for the verdict the library decides once per locus;
  * the bridge identity walked over every weight of a box, the reference
    for selftest's check on the unit weights;
  * factorization over GF(p) by one schoolbook `powmod` per degree and per
    split, the reference for the packed residue ring and its Frobenius
    matrix, with the polynomial sum and evaluation it and the tests use;
  * Dedekind's criterion by the gcd of F mod p with g* and h*, the reference
    for the library's one remainder per repeated factor.

Determinants and linear solves also have the Fraction elimination of
tests/helpers.py as a reference.  Names that clash with the library
(contains, cone_subset, cone_equal, torsion_summary,
distinct_degree_factorization, equal_degree_factorization,
dedekind_p_maximal) are meant to be used qualified: oracles.contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod

from hassecones import gfpoly
from hassecones.carousel import Carousel
from hassecones.cones import MembershipCertificate, _canonical_rows
from hassecones.errors import DimensionMismatch, InternalCheckError, InvariantError
from hassecones.hasse import Weight
from hassecones.profile import SplittingProfile
from hassecones.reduction import reducible_directions
from hassecones.selftest import BRIDGE_POWERS
from hassecones.strata import PicardSummary, bridge_agrees

MAX_DD_DIMENSION = 16


class DimensionCapExceeded(Exception):
    """Double description was asked for a cone above MAX_DD_DIMENSION."""


# ---------------------------------------------------------------------------
# The carousel from the rule for sigma on (locus, beta, i)


def carousel_tables(profile: SplittingProfile):
    """(labels, sigma_table, sigma_inv_table, n_table, orbits) by the rule for sigma.

    Embeddings are (locus, beta, i) triples in canonical order;
    sigma(tau_{beta,i}) = tau_{beta,i+1} for i < e and tau_{beta+1 mod f, 1}
    for i = e, looked up through a position dict; n_tau = p exactly when
    i = 1; orbits[P] walks sigma from the first embedding of locus P.
    """
    embeddings = [
        (index, beta, i)
        for index, locus in enumerate(profile.loci)
        for beta in range(locus.f)
        for i in range(1, locus.e + 1)
    ]
    position = {emb: pos for pos, emb in enumerate(embeddings)}
    sigma_table = []
    for index, beta, i in embeddings:
        locus = profile.loci[index]
        image = (index, beta, i + 1) if i < locus.e else (index, (beta + 1) % locus.f, 1)
        sigma_table.append(position[image])
    sigma_inv_table = [0] * len(embeddings)
    for source, target in enumerate(sigma_table):
        sigma_inv_table[target] = source
    n_table = [profile.p if i == 1 else 1 for _, _, i in embeddings]
    orbits = []
    for index in range(len(profile.loci)):
        walk = [position[(index, 0, 1)]]
        while sigma_table[walk[-1]] != walk[0]:
            walk.append(sigma_table[walk[-1]])
        orbits.append(tuple(walk))
    labels = tuple(f"P{index}:b{beta}:i{i}" for index, beta, i in embeddings)
    return labels, tuple(sigma_table), tuple(sigma_inv_table), tuple(n_table), tuple(orbits)


# ---------------------------------------------------------------------------
# Cones in one representation


@dataclass(frozen=True)
class HRepCone:
    """Cone cut out by normals: {x : a . x >= 0 for every row a}."""

    dim: int
    normals: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows, dim: int) -> "HRepCone":
        return cls(dim, _canonical_rows(rows, dim))


@dataclass(frozen=True)
class VRepCone:
    """Cone generated by rays: {sum lambda_j r_j : lambda_j >= 0}."""

    dim: int
    rays: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows, dim: int) -> "VRepCone":
        return cls(dim, _canonical_rows(rows, dim))


# ---------------------------------------------------------------------------
# Linear algebra


def dot(a, b) -> int:
    """Exact dot product; zero entries of a are skipped, so sparse rows are cheap."""
    return sum(x * y for x, y in zip(a, b) if x)


def content(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive(v) -> tuple[int, ...]:
    """Divide out the gcd, keeping direction; the zero vector is returned as is."""
    g = content(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def rank(rows, ncols: int | None = None) -> int:
    """Rank over the rationals of a list of integer rows."""
    work = [list(row) for row in rows]
    if not work:
        return 0
    if ncols is None:
        ncols = len(work[0])
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pivot = work[r][col]
        for i in range(r + 1, len(work)):
            factor = work[i][col]
            if factor:
                row = [pivot * a - factor * b for a, b in zip(work[i], work[r])]
                g = content(row)
                if g > 1:
                    row = [a // g for a in row]
                work[i] = row
        r += 1
        if r == len(work):
            break
    return r


def bareiss_determinant(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Exact division is guaranteed by the Bareiss identity.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Double description


def _adjacent(rp, rm, inserted, cur_rank: int) -> bool:
    tight = [row for row in inserted if dot(row, rp) == 0 and dot(row, rm) == 0]
    return rank(tight, len(rp)) == cur_rank - 2


def _dd_pair(constraints, dim: int):
    """Core DD sweep: returns (lineality basis, extreme rays mod lineality)."""
    basis = [tuple(1 if i == j else 0 for i in range(dim)) for j in range(dim)]
    rays: list[tuple[int, ...]] = []
    inserted: list[tuple[int, ...]] = []
    for a in sorted(constraints):
        bdots = [dot(a, b) for b in basis]
        if any(bdots):
            # A lineality vector leaves the hyperplane: pivot it into a ray.
            j = next(i for i, t in enumerate(bdots) if t != 0)
            b0 = basis[j] if bdots[j] > 0 else tuple(-x for x in basis[j])
            s = abs(bdots[j])
            new_basis = []
            for idx, b in enumerate(basis):
                if idx == j:
                    continue
                t = bdots[idx]
                new_basis.append(primitive(tuple(s * x - t * y for x, y in zip(b, b0))))
            projected = []
            for r in rays:
                t = dot(a, r)
                projected.append(primitive(tuple(s * x - t * y for x, y in zip(r, b0))))
            rays = sorted(set(projected) | {primitive(b0)})
            basis = new_basis
        else:
            signed = [(dot(a, r), r) for r in rays]
            plus = [r for t, r in signed if t > 0]
            zero = [r for t, r in signed if t == 0]
            minus = [(t, r) for t, r in signed if t < 0]
            if minus:
                cur_rank = dim - len(basis)
                fresh = set()
                for tp, rp in ((t, r) for t, r in signed if t > 0):
                    for tm, rm in minus:
                        if _adjacent(rp, rm, inserted, cur_rank):
                            combo = tuple(tp * x - tm * y for x, y in zip(rm, rp))
                            if any(combo):
                                fresh.add(primitive(combo))
                rays = sorted(set(plus) | set(zero) | fresh)
        inserted.append(a)
    return basis, rays


def _dd_generators(constraints, dim: int) -> tuple[tuple[int, ...], ...]:
    basis, rays = _dd_pair(constraints, dim)
    out = set(rays)
    for b in basis:
        out.add(primitive(b))
        out.add(primitive(tuple(-x for x in b)))
    return tuple(sorted(out))


def dd_h_to_v(cone: HRepCone) -> VRepCone:
    """Extreme rays (plus +/- a lineality basis) of an H-represented cone."""
    if cone.dim > MAX_DD_DIMENSION:
        raise DimensionCapExceeded(f"double description capped at dimension {MAX_DD_DIMENSION}")
    generators = _dd_generators(cone.normals, cone.dim)
    if not generators:
        return VRepCone(cone.dim, ())
    return VRepCone.from_rows(generators, cone.dim)


def dd_v_to_h(cone: VRepCone) -> HRepCone:
    """Facet normals of a V-represented cone, via double description on the dual."""
    if cone.dim > MAX_DD_DIMENSION:
        raise DimensionCapExceeded(f"double description capped at dimension {MAX_DD_DIMENSION}")
    normals = _dd_generators(cone.rays, cone.dim)
    return HRepCone(cone.dim, normals)


# ---------------------------------------------------------------------------
# Membership


def _as_fractions(x, dim: int) -> tuple[Fraction, ...]:
    entries = tuple(Fraction(v) for v in x)
    if len(entries) != dim:
        raise DimensionMismatch(f"vector has length {len(entries)}, expected {dim}")
    return entries


def contains(cone, x) -> MembershipCertificate:
    """Exact membership of a rational vector in an H- or V-represented cone.

    A library SimplicialCone, which has both, is read through its normals.
    """
    if isinstance(cone, VRepCone):
        vec = _as_fractions(x, cone.dim)
        ok, witness = farkas_membership(cone.rays, vec)
        if ok:
            return MembershipCertificate(True, "vrep-combination", witness)
        return MembershipCertificate(False, "vrep-separator", witness)
    if hasattr(cone, "normals"):
        vec = _as_fractions(x, cone.dim)
        slacks = tuple(sum(a * v for a, v in zip(row, vec) if a and v) for row in cone.normals)
        for index, slack in enumerate(slacks):
            if slack < 0:
                return MembershipCertificate(False, "hrep-violation", (index, slack))
        return MembershipCertificate(True, "hrep-slacks", slacks)
    raise TypeError(f"not a cone: {cone!r}")


def farkas_membership(rays, x: tuple[Fraction, ...]):
    """Is x a nonnegative rational combination of the rays?

    Exact phase-I simplex with Bland's rule.  Returns (True, lambdas) or
    (False, separator) where the separator z is integral, z.x < 0, and
    z.r >= 0 for every ray; both certificates are verified before returning.
    """
    dim = len(x)
    n = len(rays)
    sign = [1 if xi >= 0 else -1 for xi in x]
    # Columns: n lambda variables then dim artificials; rhs last.
    table = []
    for i in range(dim):
        row = [Fraction(sign[i] * r[i]) for r in rays]
        row += [Fraction(1 if j == i else 0) for j in range(dim)]
        row.append(sign[i] * x[i])
        table.append(row)
    basis = [n + i for i in range(dim)]
    ncols = n + dim
    # Reduced-cost row for minimizing the artificial sum: z_j = sum_i A[i][j] - c_j.
    zrow = [sum(table[i][j] for i in range(dim)) for j in range(ncols + 1)]
    for j in range(n, ncols):
        zrow[j] -= 1

    while True:
        enter = next((j for j in range(ncols) if zrow[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(dim):
            coef = table[i][enter]
            if coef > 0:
                ratio = table[i][ncols] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InternalCheckError("phase-I simplex unbounded")
        pivot = table[leave][enter]
        table[leave] = [v / pivot for v in table[leave]]
        for i in range(dim):
            if i != leave and table[i][enter]:
                factor = table[i][enter]
                table[i] = [v - factor * w for v, w in zip(table[i], table[leave])]
        factor = zrow[enter]
        zrow = [v - factor * w for v, w in zip(zrow, table[leave])]
        basis[leave] = enter

    objective = zrow[ncols]
    if objective == 0:
        lam = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                lam[var] = table[i][ncols]
        if any(l < 0 for l in lam):
            raise InternalCheckError("simplex produced a negative multiplier")
        for i in range(dim):
            if sum(lam[j] * rays[j][i] for j in range(n)) != x[i]:
                raise InternalCheckError("membership combination failed verification")
        return True, tuple(lam)

    # Dual certificate: the simplex multipliers satisfy y_i = 1 + (z_j - c_j)
    # on the artificial column for row i; the separator is z = -sign * y.
    y = [1 + zrow[n + i] for i in range(dim)]
    z = [-sign[i] * y[i] for i in range(dim)]
    denom_lcm = 1
    for v in z:
        denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    zi = primitive(tuple(int(v * denom_lcm) for v in z))
    if sum(w * v for w, v in zip(zi, x)) >= 0:
        raise InternalCheckError("separator fails z.x < 0")
    for r in rays:
        if dot(zi, r) < 0:
            raise InternalCheckError("separator fails z.r >= 0")
    return False, zi


# ---------------------------------------------------------------------------
# Subset and equality


@dataclass(frozen=True)
class SubsetCertificate:
    """Outcome of cone_subset: per-ray membership certificates in order."""

    holds: bool
    ray_certificates: tuple[tuple[tuple[int, ...], MembershipCertificate], ...]

    def __bool__(self) -> bool:
        return self.holds


def _as_vrep(cone) -> VRepCone:
    """The cone's own rays when it has them (a SimplicialCone does), else double description."""
    return VRepCone(cone.dim, cone.rays) if hasattr(cone, "rays") else dd_h_to_v(cone)


def cone_subset(inner, outer) -> SubsetCertificate:
    """Is every generator of `inner` contained in `outer`?

    `inner` is converted to rays if it has none; membership in `outer` uses its
    native representation (no conversion, so H-rep outers have no dimension
    cap).  Sound because cones are closed under nonnegative combinations.
    """
    rays = _as_vrep(inner).rays
    certs = []
    holds = True
    for ray in rays:
        cert = contains(outer, ray)
        certs.append((ray, cert))
        if not cert.member:
            holds = False
    return SubsetCertificate(holds, tuple(certs))


def cone_equal(a, b) -> bool:
    return bool(cone_subset(a, b)) and bool(cone_subset(b, a))


def pairing_certifies(rays, normals, dim: int) -> bool:
    """The verdict SimplicialCone gives on rays and normals, from the dense pairing matrix.

    True iff there are dim of each and the matrix of every normal against
    every ray, each entry summed over all dim coordinates, is a permutation
    of a positive diagonal: each row has one nonzero entry, it is positive,
    and no two rows have it in the same column.
    """
    if not (len(rays) == len(normals) == dim):
        return False
    matrix = [[sum(a * b for a, b in zip(normal, ray)) for ray in rays] for normal in normals]
    if any(v < 0 for row in matrix for v in row):
        return False
    hits = [[j for j, v in enumerate(row) if v] for row in matrix]
    return all(len(row) == 1 for row in hits) and len({row[0] for row in hits}) == dim


# ---------------------------------------------------------------------------
# Picard relations and the Smith normal form


def picard_relations(c: Carousel, bits: str) -> tuple[tuple[int, ...], ...]:
    """Integer relation rows among the omega_tau on the open stratum with bitstring bits.

    One row per embedding, sign +n_tau for tau in T (a 1 in bits) and
    -n_tau otherwise.
    """
    if len(bits) != c.d:
        raise InvariantError(f"stratum has length {len(bits)}, carousel degree {c.d}")
    rows = []
    for j in range(c.d):
        sign = 1 if bits[j] == "1" else -1
        row = [0] * c.d
        row[j] += 1
        row[c.sigma_inv_table[j]] += sign * c.n_table[j]
        rows.append(tuple(row))
    return tuple(rows)


def smith_normal_form(rows) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form with transforms: returns (U, D, V) with U A V = D.

    U and V are unimodular; D is diagonal with nonnegative entries and each
    diagonal entry divides the next.  Pivot selection takes the smallest
    nonzero absolute value in the working submatrix.
    """
    A = [list(row) for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(m, n):
        # Move the smallest nonzero entry of the submatrix to the pivot seat.
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(A[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            if A[t][t] < 0:
                negate_row(t)
            pivot = A[t][t]
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    add_row(i, t, -(A[i][t] // pivot))
                    if A[i][t]:
                        dirty = True
            if dirty:
                # A strictly smaller residue appeared below; promote it.
                bi = min(
                    (i for i in range(t + 1, m) if A[i][t]),
                    key=lambda i: abs(A[i][t]),
                )
                swap_rows(t, bi)
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    add_col(j, t, -(A[t][j] // pivot))
                    if A[t][j]:
                        dirty = True
            if dirty:
                bj = min(
                    (j for j in range(t + 1, n) if A[t][j]),
                    key=lambda j: abs(A[t][j]),
                )
                swap_cols(t, bj)
                continue
            # Row and column are clean; enforce divisibility of the rest.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1
    for i in range(min(m, n)):
        if A[i][i] < 0:
            negate_row(i)
    return U, A, V


def invariant_factors(rows) -> tuple[int, ...]:
    _, D, _ = smith_normal_form(rows)
    size = min(len(D), len(D[0]) if D else 0)
    return tuple(D[i][i] for i in range(size))


def _element_order(moduli, coords) -> int:
    order = 1
    for modulus, v in zip(moduli, coords):
        if modulus == 0:
            if v != 0:
                return 0
            continue
        if modulus == 1:
            continue
        step = modulus // gcd(modulus, v % modulus)
        order = order * step // gcd(order, step)
    return order


def torsion_summary(c: Carousel, bits: str) -> PicardSummary:
    """Invariant factors, per-embedding torsion orders, group order and bound verdict for an open stratum.

    The order of omega_tau is read off the Smith transform: with U A V = D,
    the class of e_tau in the quotient is row tau of V expressed against the
    moduli on the diagonal of D.  The group order is the product of the
    moduli, 0 when one is 0.  Every order is checked against the divisor
    bound p**(2f) - 1: an order off the bound raises InternalCheckError, so
    a returned verdict is always a pass.
    """
    rows = picard_relations(c, bits)
    d = c.d
    _, D, V = smith_normal_form(rows)
    facs = tuple(D[i][i] for i in range(min(len(D), d)))
    moduli = list(facs) + [0] * (d - len(facs))
    orders = tuple(_element_order(moduli, V[tau]) for tau in range(d))

    p = c.profile.p
    offset = 0
    for locus_data in c.profile.loci:
        span = range(offset, offset + locus_data.degree)
        bound = p ** (2 * locus_data.f) - 1
        for j in span:
            if orders[j] == 0 or bound % orders[j]:
                raise InternalCheckError(f"torsion order {orders[j]} at index {j} does not divide p^2f-1 = {bound}")
        offset += locus_data.degree
    return PicardSummary(facs, orders, prod(moduli), True)


def within_torsion_bound(c: Carousel, summary: PicardSummary) -> bool:
    """Whether every omega_tau has finite order dividing p**(2f) - 1, f that of tau's locus."""
    p = c.profile.p
    orders = summary.torsion_orders
    return all(
        orders[j] != 0 and (p ** (2 * locus.f) - 1) % orders[j] == 0
        for block, locus in zip(c.blocks, c.profile.loci)
        for j in block
    )


# ---------------------------------------------------------------------------
# The bridge identity on a box of weights


BRIDGE_BOX = 2


def bridge_walk(c: Carousel) -> bool:
    """Whether bridge_agrees holds at every weight of [-BRIDGE_BOX, BRIDGE_BOX]^d.

    Every position on an orbit of length at least two and every power of
    selftest's BRIDGE_POWERS, at each of the (2 * BRIDGE_BOX + 1)**d weights.
    """
    positions = [j for j in range(c.d) if c.sigma_table[j] != j]
    for coords in product(range(-BRIDGE_BOX, BRIDGE_BOX + 1), repeat=c.d):
        k = Weight(coords)
        reducible = set(reducible_directions(c, k))
        for j in positions:
            for r in BRIDGE_POWERS:
                if not bridge_agrees(c, k, j, r, reducible):
                    return False
    return True


# ---------------------------------------------------------------------------
# Factorization over GF(p), one powmod per degree


def add(a: gfpoly.Poly, b: gfpoly.Poly, p: int) -> gfpoly.Poly:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return gfpoly.trim((x + y) % p for x, y in zip(a, b))


def evaluate(a: gfpoly.Poly, x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def powmod(a: gfpoly.Poly, e: int, m: gfpoly.Poly, p: int) -> gfpoly.Poly:
    """a**e modulo the polynomial m, by schoolbook products and remainders."""
    result = gfpoly.mod(gfpoly.ONE, m, p)
    a = gfpoly.mod(a, m, p)
    while e:
        if e & 1:
            result = gfpoly.mod(gfpoly.mul(result, a, p), m, p)
        a = gfpoly.mod(gfpoly.mul(a, a, p), m, p)
        e >>= 1
    return result


def distinct_degree_factorization(f: gfpoly.Poly, p: int) -> list[tuple[gfpoly.Poly, int]]:
    """Squarefree monic f -> [(product of irreducible factors of degree d, d)]."""
    out = []
    h = gfpoly.mod(gfpoly.X, f, p)
    rest = f
    d = 0
    while gfpoly.degree(rest) >= 2 * (d + 1):
        d += 1
        h = powmod(h, p, rest, p)
        g = gfpoly.gcd(gfpoly.sub(h, gfpoly.X, p), rest, p)
        if gfpoly.degree(g) > 0:
            out.append((g, d))
            rest = gfpoly.divmod_poly(rest, g, p)[0]
            h = gfpoly.mod(h, rest, p)
    if gfpoly.degree(rest) > 0:
        out.append((rest, gfpoly.degree(rest)))
    return out


def equal_degree_factorization(f: gfpoly.Poly, d: int, p: int, rng) -> list[gfpoly.Poly]:
    """Split monic squarefree f, all of whose irreducible factors have degree d.

    Draws from rng exactly as the library does, so both split alike.
    """
    n = gfpoly.degree(f)
    if n == d:
        return [f]
    while True:
        a = gfpoly._random_poly(n - 1, p, rng)
        if gfpoly.degree(a) < 1:
            continue
        g = gfpoly.gcd(a, f, p)
        if 0 < gfpoly.degree(g) < n:
            break
        if p % 2 == 1:
            b = powmod(a, (p**d - 1) // 2, f, p)
            g = gfpoly.gcd(gfpoly.sub(b, gfpoly.ONE, p), f, p)
        else:
            # Trace map replaces the odd-characteristic power trick.
            b = gfpoly.ZERO
            t = gfpoly.mod(a, f, p)
            for _ in range(d):
                b = add(b, t, p)
                t = gfpoly.mod(gfpoly.mul(t, t, p), f, p)
            g = gfpoly.gcd(b, f, p)
        if 0 < gfpoly.degree(g) < n:
            break
    other = gfpoly.divmod_poly(f, g, p)[0]
    return equal_degree_factorization(g, d, p, rng) + equal_degree_factorization(other, d, p, rng)


# ---------------------------------------------------------------------------
# Dedekind's criterion by gcds


def dedekind_p_maximal(g: gfpoly.MinPolySpec, fact: gfpoly.ModPFactorization) -> bool:
    """Dedekind's criterion by three-way gcd; fact is factor_mod_p(g).

    With g mod p = prod gi**ei, set g* = prod lift(gi), h* = lift(g mod p / g*),
    F = (g* h* - g)/p; the order is p-maximal iff gcd(F mod p, g*, h*) = 1.
    """
    p = g.p
    gstar_bar = gfpoly.ONE
    hstar_bar = gfpoly.ONE
    for gi, ei in fact.factors:
        gstar_bar = gfpoly.mul(gstar_bar, gi, p)
        for _ in range(ei - 1):
            hstar_bar = gfpoly.mul(hstar_bar, gi, p)
    # a Poly already stores coefficients in [0, p), so it is its own lift to Z
    product = gfpoly._int_poly_mul(gstar_bar, hstar_bar)
    gc = g.coefficients
    n = max(len(product), len(gc))
    diff = [(product[i] if i < len(product) else 0) - (gc[i] if i < len(gc) else 0) for i in range(n)]
    if any(c % p for c in diff):
        raise InternalCheckError("g* h* - g is not divisible by p")
    fbar = gfpoly.normalize((c // p for c in diff), p)
    d1 = gfpoly.gcd(fbar, gstar_bar, p)
    return gfpoly.degree(gfpoly.gcd(d1, hstar_bar, p)) == 0
