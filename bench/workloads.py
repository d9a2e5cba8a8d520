"""The two workloads: seeded inputs, the timed operation and its checks.

A workload generates its operation list from the seed alone, without calling
the library.  `run` is the only part that is timed.  `check` compares the
output against `oracle`, which never calls the library either.  Operations
repeat pass after pass, except in `minpoly_session`, where every pass draws
fresh polynomials so that no two operations of a run share a (p, splitting)
pair and every operation builds its own Hasse solver.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb

import oracle


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.3 * 10**24."""
    if n < 2:
        return False
    witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in witnesses:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


class Workload:
    """Seeded operations; `generate` fills `ops` (one pass) and `warm` (setup)."""

    name = ""
    ops_per_pass = 0
    # With 25 operations a pass, four passes give 100 samples, so the tail
    # is p90, the highest percentile with ten samples beyond it; p95 fell
    # among the one or two costliest operations and spread twice as much.
    min_passes = 4
    setup_reps = 15
    fresh_ops = False

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []
        self.warm: list = []

    def pass_ops(self, index: int) -> list:
        return self.ops

    def warm_up(self, lib) -> None:
        for op in self.warm:
            self.run(lib, op)

    def failed(self, output) -> bool:
        return False

    def trace_counts(self, tracer, op, output) -> None:
        """Counters the tracer's wrappers cannot see; none by default."""


class CliWorkload(Workload):
    """Operations are argv lists for `cli.run`; output is the rendered report."""

    def run(self, lib, op):
        report, status = lib["cli"].run(op.argv)
        return status, lib["cli"].render(report, False)

    def failed(self, output) -> bool:
        return output[0] != 0

    def digest(self, output) -> bytes:
        return digest(output[1])

    def trace_counts(self, tracer, op, output) -> None:
        tracer.count("cli.report_kb", len(output[1]) / 1024)


# ---------------------------------------------------------------------------
# minpoly_session


def _eisenstein(c: int, e: int, p: int) -> list:
    """(x - c)**e - p, ascending coefficients."""
    coeffs = [comb(e, i) * (-c) ** (e - i) for i in range(e + 1)]
    coeffs[0] -= p
    return coeffs


def _int_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def binomial_irreducible(f: int, a: int, p: int) -> bool:
    """Order criterion for x^f - a over GF(p) (Lidl-Niederreiter 3.75).

    Irreducible iff every prime l | f divides p - 1 with a not an l-th power,
    i.e. a^((p-1)/l) != 1, and p = 1 mod 4 whenever 4 | f.
    """
    if a % p == 0:
        return False
    for l in (q for q in range(2, f + 1) if f % q == 0 and all(q % r for r in range(2, q))):
        if (p - 1) % l or pow(a, (p - 1) // l, p) == 1:
            return False
    return f % 4 != 0 or p % 4 == 1


@dataclass(frozen=True)
class MinpolyOp:
    coeffs: tuple
    p: int
    loci: tuple
    weight: tuple
    argv: list
    reduce_argv: list


# The cost of factoring depends on the splitting and the size of p, so
# position i of every pass has the same degree, prime size and splitting,
# drawn once from a fixed generator; the seed draws the primes, the
# Eisenstein shifts c, the binomial constants a and the weights.
MINPOLY_DEGREES = (8, 10, 12, 14, 16, 18, 20, 24)
MINPOLY_BITS = (20, 30, 40, 50, 61)
BINOMIAL_DEGREES = (2, 3, 4, 6, 8)


def random_prime(rng: random.Random, bits: int) -> int:
    """A prime of the given size with p = 1 mod 12, so x^f - a can be inert for f in BINOMIAL_DEGREES."""
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1))
        p -= (p - 1) % 12
        if p.bit_length() == bits and is_prime(p):
            return p


def random_splitting(rng: random.Random, d: int) -> list:
    """A multiset of (e, f) with sum e*f = d: Eisenstein (e, 1) or inert (1, f).

    Apart from up to three (1, 1), no pair repeats.  Factors mod p then share
    their multiplicity and degree only when they are linear, so equal-degree
    splitting draws at random only among a few linear factors; its retries
    would otherwise make the cost of an operation a matter of luck.
    """
    pairs = [(e, 1) for e in range(1, 5)] + [(1, f) for f in BINOMIAL_DEGREES]
    while True:
        rng.shuffle(pairs)
        loci, left = [], d
        for e, f in pairs:
            if e * f <= left:
                loci.append((e, f))
                left -= e * f
        ones = loci.count((1, 1))
        while left and ones < 3:
            loci.append((1, 1))
            left -= 1
            ones += 1
        if not left:
            return loci


def build_minpoly(rng: random.Random, p: int, loci) -> list:
    """Product of (x - c)^e - p and x^f - a, pairwise coprime mod p by construction.

    The c are distinct mod p; each binomial is irreducible by the order
    criterion, and binomials of equal degree have distinct a.
    """
    g = [1]
    used_c, used_a = set(), set()
    for e, f in loci:
        if f == 1:
            c = rng.randrange(p)
            while c in used_c:
                c = rng.randrange(p)
            used_c.add(c)
            g = _int_mul(g, _eisenstein(c, e, p))
        else:
            while True:
                a = rng.randrange(2, p)
                if (f, a) not in used_a and binomial_irreducible(f, a, p):
                    break
            used_a.add((f, a))
            g = _int_mul(g, [-a] + [0] * (f - 1) + [1])
    return g


def minpoly_schedule(count: int) -> list:
    """(degree, prime bits, loci) for each position of a pass; independent of the seed."""
    rng = random.Random("minpoly_session schedule")
    return [
        (
            MINPOLY_DEGREES[i % len(MINPOLY_DEGREES)],
            MINPOLY_BITS[i % len(MINPOLY_BITS)],
            tuple(sorted(random_splitting(rng, MINPOLY_DEGREES[i % len(MINPOLY_DEGREES)]))),
        )
        for i in range(count)
    ]


class MinpolySession(CliWorkload):
    """`profile --minpoly` then `reduce --minpoly` on a fresh constructed polynomial."""

    name = "minpoly_session"
    ops_per_pass = 25
    fresh_ops = True

    def generate(self):
        self.primes = set()
        self.current = (None, [])
        self.schedule = minpoly_schedule(self.ops_per_pass)
        self.warm = self.pass_ops(-1)[:2]

    def pass_ops(self, index: int):
        """Pass `index`'s polynomials, drawn from (seed, index); primes never repeat in a run."""
        if index != self.current[0]:
            rng = random.Random(f"{self.seed}:{index}")
            ops = []
            for d, bits, loci in self.schedule:
                p = random_prime(rng, bits)
                while p in self.primes:
                    p = random_prime(rng, bits)
                self.primes.add(p)
                g = tuple(build_minpoly(rng, p, loci))
                weight = tuple(rng.randint(-2, 12) for _ in range(d))
                head = ["--minpoly=" + _csv(g), "--p", str(p)]
                ops.append(
                    MinpolyOp(g, p, loci, weight, ["profile"] + head, ["reduce"] + head + ["--weight=" + _csv(weight)])
                )
            self.current = (index, ops)
        return self.current[1]

    def run(self, lib, op):
        cli = lib["cli"]
        report, status = cli.run(op.argv)
        text = cli.render(report, False)
        report2, status2 = cli.run(op.reduce_argv)
        return max(status, status2), text, cli.render(report2, False)

    def digest(self, output) -> bytes:
        return digest(output[1] + output[2])

    def trace_counts(self, tracer, op, output) -> None:
        tracer.count("cli.report_kb", (len(output[1]) + len(output[2])) / 1024)

    def check(self, op, output) -> None:
        s = oracle.check_minpoly_profile(json.loads(output[1]), op.coeffs, op.p, op.loci)
        report = json.loads(output[2])
        oracle.require(report["payload"]["profile"] == s.profile_doc(), "reduce --minpoly: profile differs from profile")
        oracle.check_reduce(report, s, op.weight)


# ---------------------------------------------------------------------------
# geometry_sweep


GEOMETRY_DEGREES = (6, 7, 8, 9, 10)
GEOMETRY_PRIMES = (2, 3, 5, 7, 11, 13)


@dataclass(frozen=True)
class GeometryOp:
    argv: list
    shape: oracle.Shape
    kind: str


def random_loci(rng: random.Random, d: int) -> tuple:
    """A random multiset of (e, f) with sum e*f = d, mixing split, inert and ramified."""
    loci = []
    left = d
    while left:
        e = rng.randint(1, min(3, left))
        f = rng.randint(1, min(4, left // e))
        loci.append((e, f))
        left -= e * f
    return tuple(loci)


def geometry_schedule(count: int) -> list:
    """The loci at each position of a pass; independent of the seed.

    Double description's cost depends on the splitting far more than on p,
    so the splittings are fixed and the seed draws the primes.  One profile
    in three is totally split, at every degree in turn, so both sides of the
    split criterion occur and the costliest operations are not all alike.
    """
    rng = random.Random("geometry_sweep schedule")
    out = []
    for i in range(count):
        d = GEOMETRY_DEGREES[i % len(GEOMETRY_DEGREES)]
        out.append(((1, 1),) * d if i % 3 == 2 else random_loci(rng, d))
    return out


class GeometrySweep(CliWorkload):
    """`cones` and full-sweep `picard` over profiles of degree 6 to 10."""

    name = "geometry_sweep"
    # Odd, so that neither the median nor the p90 of a pass's latencies
    # falls on the boundary between two positions: with 26 the median sat
    # between a 25 ms and a 32 ms operation and jumped between them.
    ops_per_pass = 25

    def generate(self):
        rng = random.Random(self.seed)
        ops = []
        for loci in geometry_schedule((self.ops_per_pass + 1) // 2):
            s = oracle.shape(rng.choice(GEOMETRY_PRIMES), loci)
            doc = json.dumps(s.profile_doc())
            ops.append(GeometryOp(["cones", "--profile", doc], s, "cones"))
            ops.append(GeometryOp(["picard", "--profile", doc], s, "picard"))
        self.ops = ops[: self.ops_per_pass]
        s = oracle.shape(3, ((1, 2), (2, 1)))
        doc = json.dumps(s.profile_doc())
        self.warm = [GeometryOp(["cones", "--profile", doc], s, "cones"), GeometryOp(["picard", "--profile", doc], s, "picard")]

    def check(self, op, output) -> None:
        report = json.loads(output[1])
        if op.kind == "cones":
            oracle.check_cones(report, op.shape)
        else:
            oracle.check_picard(report, op.shape)


WORKLOADS = {w.name: w for w in (MinpolySession, GeometrySweep)}
