"""Independent checks of the reports the benchmark's workloads produce.

Nothing here imports `hassecones`.  The embedding order, the shift sigma and
the multipliers n_tau are rebuilt from the README's carousel convention, the
Hasse coordinates come from the per-orbit closed form

    (p**f - 1) y_t = sum_{j=0}^{L-1} (prod_{i=1}^{j} n_{sigma^i t}) k_{sigma^j t},

which follows from (M y)_t = n_{sigma t} y_{sigma t} - y_t = k_t.  Every
checker raises `CheckFailure` naming the first property that does not hold.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


class CheckFailure(AssertionError):
    """A report broke a property the method must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclass(frozen=True)
class Shape:
    """The carousel of a profile: labels, sigma, sigma^-1 and n, canonical order."""

    p: int
    loci: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    sigma: tuple[int, ...]
    sigma_inv: tuple[int, ...]
    n: tuple[int, ...]
    locus_of: tuple[int, ...]

    @property
    def d(self) -> int:
        return len(self.labels)

    def index(self) -> dict[str, int]:
        return {label: j for j, label in enumerate(self.labels)}

    def hasse_column(self, tau: int) -> list[int]:
        """h_tau = n_tau e_{sigma^-1 tau} - e_tau."""
        col = [0] * self.d
        col[self.sigma_inv[tau]] += self.n[tau]
        col[tau] -= 1
        return col

    def profile_doc(self) -> dict:
        return {"p": self.p, "loci": [{"e": e, "f": f} for e, f in self.loci]}


def shape(p: int, loci) -> Shape:
    """Loci in the given order, then beta ascending, then i from 1 to e."""
    loci = tuple((int(e), int(f)) for e, f in loci)
    labels, sigma, n, locus_of = [], [], [], []
    offset = 0
    for li, (e, f) in enumerate(loci):
        for beta in range(f):
            for i in range(1, e + 1):
                labels.append(f"P{li}:b{beta}:i{i}")
                n.append(p if i == 1 else 1)
                locus_of.append(li)
                if i < e:
                    sigma.append(offset + beta * e + i)
                else:
                    sigma.append(offset + ((beta + 1) % f) * e)
        offset += e * f
    sigma_inv = [0] * len(sigma)
    for src, dst in enumerate(sigma):
        sigma_inv[dst] = src
    return Shape(p, loci, tuple(labels), tuple(sigma), tuple(sigma_inv), tuple(n), tuple(locus_of))


def shape_of_doc(doc: dict) -> Shape:
    return shape(doc["p"], [(l["e"], l["f"]) for l in doc["loci"]])


def hasse_coordinates(s: Shape, k) -> list[Fraction]:
    """Exact y with M y = k from the per-orbit closed form."""
    y = []
    for t in range(s.d):
        acc, mult, cur = 0, 1, t
        while True:
            acc += mult * k[cur]
            cur = s.sigma[cur]
            if cur == t:
                break
            mult *= s.n[cur]
        y.append(Fraction(acc, mult * s.n[t] - 1))
    return y


def hasse_image(s: Shape, y) -> list:
    """M y, with (M y)_t = n_{sigma t} y_{sigma t} - y_t."""
    return [s.n[s.sigma[t]] * y[s.sigma[t]] - y[t] for t in range(s.d)]


def min_cone_violations(s: Shape, w) -> list[int]:
    """Indices tau with n_tau w_tau < w_{sigma^-1 tau}: the reducible directions."""
    return [t for t in range(s.d) if s.n[t] * w[t] < w[s.sigma_inv[t]]]


def subtract_hasse(s: Shape, k, a) -> list[int]:
    """k - sum_tau a_tau h_tau."""
    w = list(k)
    for tau, mult in enumerate(a):
        if mult:
            w[s.sigma_inv[tau]] -= mult * s.n[tau]
            w[tau] += mult
    return w


def lattice_index(s: Shape) -> int:
    out = 1
    for _, f in s.loci:
        out *= s.p**f - 1
    return out


def parse_fraction(text: str) -> Fraction:
    num, den = text.split("/")
    require(int(den) > 0, f"rational {text!r} has a nonpositive denominator")
    return Fraction(int(num), int(den))


def check_envelope(report: dict, subcommand: str) -> dict:
    require(report.get("exit_status") == 0, f"{subcommand}: exit_status {report.get('exit_status')!r}")
    require(report.get("command", {}).get("subcommand") == subcommand, f"{subcommand}: wrong command echo")
    require("payload" in report, f"{subcommand}: no payload")
    return report["payload"]


# ---------------------------------------------------------------------------
# reduce


def check_reduce(report: dict, s: Shape, k) -> None:
    """Every property the `reduce` report must have for weight k over shape s."""
    payload = check_envelope(report, "reduce")
    k = list(k)
    d = s.d
    require(payload["weight"] == k, "reduce: echoed weight differs from the input")
    y = [parse_fraction(v) for v in payload["hasse_coordinates"]]
    require(len(y) == d, "reduce: wrong number of Hasse coordinates")
    require(hasse_image(s, y) == k, "reduce: M y != k")
    require(payload["in_hasse_cone"] == all(v >= 0 for v in y), "reduce: in_hasse_cone disagrees with sign(y)")
    expected_dirs = [s.labels[t] for t in min_cone_violations(s, k)]
    require(payload["reducible_directions"] == expected_dirs, "reduce: reducible_directions wrong")

    outcome = payload["outcome"]
    index = s.index()
    require(all(label in index for label in outcome["steps"]), "reduce: step label outside the carousel")
    steps = Counter(index[label] for label in outcome["steps"])
    if outcome["kind"] == "in_min_cone":
        a = outcome["a"]
        require(len(a) == d, "reduce: a has the wrong length")
        require(all(v >= 0 for v in a), "reduce: a has a negative entry")
        require(all(v <= yv.numerator // yv.denominator for v, yv in zip(a, y)), "reduce: a exceeds floor(y)")
        w = outcome["w"]
        require(w == subtract_hasse(s, k, a), "reduce: w != k - sum a_tau h_tau")
        require(not min_cone_violations(s, w), "reduce: w is outside C^min")
        require(sum(a) == len(outcome["steps"]), "reduce: sum(a) != number of steps")
        require(all(steps[t] == a[t] for t in range(d)), "reduce: steps do not add up to a")
    elif outcome["kind"] == "vanishing":
        require(outcome["tau"] in index, "reduce: vanishing tau outside the carousel")
        tau = index[outcome["tau"]]
        stepped = [steps[t] for t in range(d)]
        require(
            outcome["weight_at_detection"] == subtract_hasse(s, k, stepped),
            "reduce: weight_at_detection != k - stepped h_tau",
        )
        coordinate = parse_fraction(outcome["coordinate"])
        require(coordinate == y[tau] - steps[tau], "reduce: vanishing coordinate != y_tau - steps along tau")
        require(coordinate < 0, "reduce: vanishing coordinate is not negative")
    else:
        raise CheckFailure(f"reduce: unexpected outcome {outcome['kind']!r}")


# ---------------------------------------------------------------------------
# minpoly


def poly_mul_mod(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def reduce_mod(coeffs, p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def check_minpoly_profile(report: dict, g, p: int, loci) -> Shape:
    """The profile report of a constructed polynomial; returns the reported shape."""
    payload = check_envelope(report, "profile")
    doc = payload["profile"]
    require(doc["p"] == p, "profile: wrong p")
    reported = sorted((l["e"], l["f"]) for l in doc["loci"])
    require(reported == sorted(loci), "profile: (e, f) multiset differs from the construction")
    require(payload["degree"] == len(g) - 1, "profile: degree differs from the construction")
    product_ = [1]
    seen = []
    for factor in payload["mod_p_factorization"]:
        coeffs, mult = factor["coefficients"], factor["multiplicity"]
        require(mult >= 1 and coeffs and coeffs[-1] == 1, "profile: factor not monic or bad multiplicity")
        require(all(0 <= c < p for c in coeffs), "profile: factor coefficient outside [0, p)")
        seen.append((mult, len(coeffs) - 1))
        for _ in range(mult):
            product_ = poly_mul_mod(product_, coeffs, p)
    require(product_ == reduce_mod(g, p), "profile: mod-p factors do not multiply back to g")
    require(sorted(seen) == sorted(loci), "profile: factor (multiplicity, degree) pairs differ from the loci")
    s = shape_of_doc(doc)
    require(payload["embeddings"] == list(s.labels), "profile: embedding labels differ from the convention")
    require(payload["multipliers"] == list(s.n), "profile: multipliers differ from the convention")
    require(payload["hasse_lattice_index"] == lattice_index(s), "profile: wrong Hasse lattice index")
    return s


# ---------------------------------------------------------------------------
# cones and picard


def check_cones(report: dict, s: Shape) -> None:
    payload = check_envelope(report, "cones")
    d = s.d
    require(abs(payload["determinant"]) == lattice_index(s), "cones: |det| != prod (p^f - 1)")
    require(payload["hasse_lattice_index"] == lattice_index(s), "cones: wrong lattice index")
    matrix = payload["hasse_matrix"]
    require(
        all([row[tau] for row in matrix] == s.hasse_column(tau) for tau in range(d)),
        "cones: Hasse matrix columns differ from h_tau",
    )
    require(payload["chain"] == {"min_in_std": True, "std_in_hasse": True}, "cones: chain flags not both true")
    split = all(e == 1 and f == 1 for e, f in s.loci)
    require(payload["split"]["totally_split"] == split, "cones: totally_split flag wrong")
    require(payload["split"]["cones_equal"] == split, "cones: cones_equal is not 'totally split'")
    for name in ("min_cone", "hasse_cone"):
        cone = payload[name]
        rays, normals = cone["rays"], cone["normals"]
        # Both cones are simplicial: d rays and d facets.
        require(len(rays) == d and len(normals) == d, f"cones: {name} is not simplicial")
        for ray in rays:
            for normal in normals:
                require(
                    sum(r * a for r, a in zip(ray, normal)) >= 0,
                    f"cones: {name} ray {ray} violates normal {normal}",
                )
    for tau in range(d):
        row = [0] * d
        row[tau] += s.n[tau]
        row[s.sigma_inv[tau]] -= 1
        require(any(_parallel(row, normal) for normal in payload["min_cone"]["normals"]), "cones: C^min normal missing")
        col = s.hasse_column(tau)
        require(any(_parallel(col, ray) for ray in payload["hasse_cone"]["rays"]), "cones: Hasse ray missing")


def _parallel(u, v) -> bool:
    """u and v are positive multiples of one another."""
    if len(u) != len(v):
        return False
    pairs = [(a, b) for a, b in zip(u, v) if a or b]
    if not pairs or any(a == 0 or b == 0 for a, b in pairs):
        return False
    a0, b0 = pairs[0]
    return all(a * b0 == b * a0 for a, b in pairs) and (a0 > 0) == (b0 > 0)


def stratum_torsion(s: Shape, members: set[int]) -> list[int]:
    """Per-locus order p^{f_P} - (-1)^{|T cap P|}, listed per embedding."""
    per_locus = []
    for li, (_, f) in enumerate(s.loci):
        hits = sum(1 for t in members if s.locus_of[t] == li)
        per_locus.append(s.p**f - (-1) ** hits)
    return [per_locus[s.locus_of[t]] for t in range(s.d)]


def check_picard(report: dict, s: Shape) -> None:
    payload = check_envelope(report, "picard")
    d = s.d
    rows = payload["strata"]
    expected_labels = ["".join(bits) for bits in product("01", repeat=d)]
    require([row["stratum"] for row in rows] == expected_labels, "picard: strata are not the full sweep in order")
    for row in rows:
        members = {i for i, ch in enumerate(row["stratum"]) if ch == "1"}
        orders = stratum_torsion(s, members)
        group = 1
        for li in range(len(s.loci)):
            group *= orders[s.locus_of.index(li)]
        require(row["dimension"] == d - len(members), "picard: wrong stratum dimension")
        require(row["torsion_orders"] == orders, f"picard: torsion orders wrong on {row['stratum']}")
        require(row["group_order"] == group, f"picard: group order wrong on {row['stratum']}")
        require(row["divisibility"] == "pass", "picard: divisibility flag not pass")
