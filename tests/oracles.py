"""The generic exact algorithms the library no longer runs, kept as test oracles.

The library solves the Hasse matrix, the cone conversions and the Picard
quotients one sigma-orbit at a time, in closed form.  The general-purpose
routines it used before are kept here unchanged, so the closed forms are
checked against an independent algorithm and the routines' own tests still
run:

  * fraction-free linear algebra: rank, Bareiss solve, integer adjugate;
  * the Hasse coordinate solve through a cached integer adjugate;
  * double description (Fukuda & Prodon, "Double description method
    revisited", 1996) in both directions, capped at MAX_DD_DIMENSION;
  * membership in a V-representation by an exact phase-I simplex over
    Fraction with Bland's rule, and subset/equality built on it;
  * Smith normal form with unimodular transforms, and torsion orders read
    off its transform.

Names that clash with the library (coordinates_scaled, contains, cone_subset,
cone_equal, torsion_summary) are meant to be used qualified: oracles.contains.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from hassecones.carousel import Carousel
from hassecones.cones import HRepCone, MembershipCertificate, SubsetCertificate, VRepCone
from hassecones.errors import DimensionMismatch, DimensionTooLarge, InternalCheckError
from hassecones.hasse import Weight, check_weight, hasse_matrix
from hassecones.intlinalg import bareiss_determinant, content, dot, primitive
from hassecones.strata import PicardSummary, StratumLabel, picard_relations

MAX_DD_DIMENSION = 16


# ---------------------------------------------------------------------------
# Linear algebra


def mat_vec(rows, v) -> tuple[int, ...]:
    return tuple(dot(row, v) for row in rows)


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


def solve_exact(rows, rhs) -> tuple[Fraction, ...]:
    """Solve A x = rhs for square nonsingular integer A; exact rational result.

    Bareiss forward elimination on the augmented matrix, then Fraction
    back-substitution.
    """
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                raise ValueError("matrix is singular")
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    if m[n - 1][n - 1] == 0:
        raise ValueError("matrix is singular")
    x: list[Fraction] = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(m[i][n])
        for j in range(i + 1, n):
            acc -= m[i][j] * x[j]
        x[i] = acc / m[i][i]
    return tuple(x)


def adjugate_with_det(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer adjugate and determinant: adj(A) @ A = det(A) * I.

    Columns of the adjugate are det * (solutions of A x = e_i); the scaled
    entries are provably integral, which is asserted.
    """
    n = len(rows)
    det = bareiss_determinant(rows)
    if det == 0:
        raise ValueError("matrix is singular")
    adj = [[0] * n for _ in range(n)]
    for j in range(n):
        e = [1 if i == j else 0 for i in range(n)]
        col = solve_exact(rows, e)
        for i in range(n):
            scaled = col[i] * det
            if scaled.denominator != 1:
                raise ValueError("adjugate entry not integral; elimination bug")
            adj[i][j] = int(scaled)
    return tuple(tuple(row) for row in adj), det


# ---------------------------------------------------------------------------
# Hasse coordinates through the integer adjugate


@lru_cache(maxsize=None)
def _solver(c: Carousel) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Adjugate rows and positive determinant for the carousel's Hasse matrix.

    Normalized so the returned denominator is positive: y = (adj @ k) / den.
    """
    adj, det = adjugate_with_det(hasse_matrix(c).rows)
    if det < 0:
        adj = tuple(tuple(-a for a in row) for row in adj)
        det = -det
    return adj, det


def coordinates_scaled(c: Carousel, k: Weight) -> tuple[tuple[int, ...], int]:
    """Hasse coordinates as (numerators, common positive denominator)."""
    check_weight(c, k)
    adj, den = _solver(c)
    return mat_vec(adj, k.coords), den


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
        raise DimensionTooLarge(f"double description capped at dimension {MAX_DD_DIMENSION}")
    generators = _dd_generators(cone.normals, cone.dim)
    if not generators:
        return VRepCone(cone.dim, ())
    return VRepCone.from_rows(generators, cone.dim)


def dd_v_to_h(cone: VRepCone) -> HRepCone:
    """Facet normals of a V-represented cone, via double description on the dual."""
    if cone.dim > MAX_DD_DIMENSION:
        raise DimensionTooLarge(f"double description capped at dimension {MAX_DD_DIMENSION}")
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
    """Exact membership of a rational vector in an H- or V-represented cone."""
    if isinstance(cone, HRepCone):
        vec = _as_fractions(x, cone.dim)
        slacks = tuple(sum(a * v for a, v in zip(row, vec)) for row in cone.normals)
        for index, slack in enumerate(slacks):
            if slack < 0:
                return MembershipCertificate(False, "hrep-violation", (index, slack))
        return MembershipCertificate(True, "hrep-slacks", slacks)
    if isinstance(cone, VRepCone):
        vec = _as_fractions(x, cone.dim)
        ok, witness = farkas_membership(cone.rays, vec)
        if ok:
            return MembershipCertificate(True, "vrep-combination", witness)
        return MembershipCertificate(False, "vrep-separator", witness)
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


def _as_vrep(cone) -> VRepCone:
    return cone if isinstance(cone, VRepCone) else dd_h_to_v(cone)


def cone_subset(inner, outer) -> SubsetCertificate:
    """Is every generator of `inner` contained in `outer`?

    `inner` is converted to rays if needed; membership in `outer` uses its
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


# ---------------------------------------------------------------------------
# Smith normal form


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


def torsion_summary(c: Carousel, T: StratumLabel, locus: str = "open") -> PicardSummary:
    """Invariant factors and per-embedding torsion orders for a stratum.

    The order of omega_tau is read off the Smith transform: with U A V = D,
    the class of e_tau in the quotient is row tau of V expressed against the
    moduli on the diagonal of D (missing rows of D contribute free factors).
    Orders for embeddings of a locus whose block of relations is complete are
    checked against the divisor bound p**(2f) - 1.
    """
    rows = picard_relations(c, T, locus)
    d = c.d
    if not rows:
        return PicardSummary(T, locus, (), tuple(0 for _ in range(d)))
    _, D, V = smith_normal_form(rows)
    facs = tuple(D[i][i] for i in range(min(len(D), d)))
    moduli = list(facs) + [0] * (d - len(facs))
    orders = tuple(_element_order(moduli, V[tau]) for tau in range(d))

    p = c.profile.p
    offset = 0
    for locus_data in c.profile.loci:
        span = range(offset, offset + locus_data.degree)
        complete = locus == "open" or all(j in T.members for j in span)
        if complete:
            bound = p ** (2 * locus_data.f) - 1
            for j in span:
                if orders[j] == 0 or bound % orders[j]:
                    raise InternalCheckError(
                        f"torsion order {orders[j]} at index {j} does not divide p^2f-1 = {bound}"
                    )
        offset += locus_data.degree
    return PicardSummary(T, locus, facs, orders)


