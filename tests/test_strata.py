"""Stratum bitstrings, relation lattices, torsion, fibres.

The relation rows and their Smith normal form are no longer library code;
their tests run against the copies in tests/oracles.py, which are the
reference for the closed-form torsion.  The closure of a stratum is walked
by tests/helpers.py, which also builds the `picard` row of one stratum that
every row of a full sweep must equal.
"""

import json
import random
from dataclasses import replace
from itertools import combinations, product
from time import perf_counter

import pytest

from hassecones import (
    InvariantError,
    MultiplierNotDividing,
    SchemaError,
    SingletonOrbit,
    Weight,
    build_carousel,
    fibre_degree,
    reducible_directions,
    torsion_summary,
    within_torsion_bound,
)
from hassecones import cli
from hassecones import reduction, selftest, strata
from hassecones.strata import PicardSummary

from helpers import (
    DEGREE_64_PANEL,
    carousel_of,
    closure_set,
    exhaustive_profiles,
    fraction_determinant,
    panel_carousels,
    profile_of,
    stratum_row,
)
import oracles
from oracles import invariant_factors, picard_relations, smith_normal_form

MERSENNE_61 = 2**61 - 1


def _all_strata(d):
    return ["".join(bits) for bits in product("01", repeat=d)]


# ---------------------------------------------------------------------------
# Bitstrings and the closure poset


def test_bitstring_round_trip():
    # the leftmost character is position 0: over two split loci at p = 3 the
    # locus hit once closes up into Z/(3 + 1), the other into Z/(3 - 1)
    c = carousel_of(3, [(1, 1), (1, 1)])
    assert torsion_summary(c, "10").torsion_orders == (4, 2)
    assert torsion_summary(c, "01").torsion_orders == (2, 4)
    doc = json.dumps(c.profile.as_dict())
    for text in ("10", "01"):
        report, code = cli.run(["picard", "--profile", doc, "--stratum", text])
        assert code == 0
        (row,) = report["payload"]["strata"]
        assert row["stratum"] == text
        assert row["torsion_orders"] == list(torsion_summary(c, text).torsion_orders)


def test_bitstring_rejects_garbage():
    c = carousel_of(2, [(2, 1)])
    doc = json.dumps(c.profile.as_dict())
    # a malformed stratum is a malformed flag payload, refused by the library
    # alone: the CLI passes --stratum through
    for text in ("", "012", "1x", "1x0", " 10", "1", "101"):
        with pytest.raises(SchemaError):
            torsion_summary(c, text)
        report, code = cli.run(["picard", "--profile", doc, "--stratum", text])
        assert code == 2 and report["error"]["type"] == "SchemaError", text
    # a bitstring is a str: a sequence of bits or a number is refused alike
    for bits in (("1", "0"), ["1", "0"], b"10", 10, 2):
        with pytest.raises(SchemaError):
            torsion_summary(c, bits)


def test_dimension_worked_examples():
    # a picard row reports the dimension d - |T| of its stratum
    def dimension(pairs, bits):
        doc = json.dumps(profile_of(2, pairs).as_dict())
        report, code = cli.run(["picard", "--profile", doc, "--stratum", bits])
        assert code == 0
        (row,) = report["payload"]["strata"]
        return row["dimension"]

    assert dimension([(1, 3)], "000") == 3
    assert dimension([(1, 3)], "111") == 0
    assert dimension([(2, 1)], "01") == 1


def test_closure_worked_examples():
    assert closure_set("00") == ("00", "01", "10", "11")
    assert closure_set("11") == ("11",)
    assert closure_set("10") == ("10", "11")


def test_closure_poset_sanity():
    for d in (2, 3, 4):
        for bits in _all_strata(d):
            closure = closure_set(bits)
            assert len(closure) == 2 ** bits.count("0")
            for other in closure:
                assert all(b <= a for a, b in zip(other, bits))
                if other != bits:
                    assert other.count("1") > bits.count("1")


# ---------------------------------------------------------------------------
# Relation lattices


def test_picard_relations_worked_examples():
    c = carousel_of(2, [(2, 1)])
    assert picard_relations(c, "10") == ((1, 2), (-1, 1))
    assert picard_relations(c, "11") == ((1, 2), (1, 1))
    assert picard_relations(c, "00") == ((1, -2), (-1, 1))


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_worked_examples():
    _, D, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [D[0][0], D[1][1]] == [1, 6]
    _, D, _ = smith_normal_form([[1, 2], [1, 1]])
    assert [D[0][0], D[1][1]] == [1, 1]
    _, D, _ = smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]


def _minor_gcds(rows, n, m):
    """Invariant factors via gcds of k x k minors, the classical definition."""
    from math import gcd

    previous = 1
    out = []
    for k in range(1, min(n, m) + 1):
        g = 0
        for row_idx in combinations(range(n), k):
            for col_idx in combinations(range(m), k):
                sub = [[rows[i][j] for j in col_idx] for i in row_idx]
                g = gcd(g, abs(fraction_determinant(sub)))
        if g == 0:
            out.append(0)
            previous = 0
            continue
        out.append(g // previous if previous else 0)
        previous = g
    return out


def test_snf_random_properties():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        U, D, V = smith_normal_form(rows)
        assert abs(fraction_determinant(U)) == 1
        assert abs(fraction_determinant(V)) == 1
        # U . A . V = D, checked entry by entry
        ua = [[sum(U[i][k] * rows[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
        uav = [[sum(ua[i][k] * V[k][j] for k in range(m)) for j in range(m)] for i in range(n)]
        assert uav == D
        diag = [D[i][i] for i in range(min(n, m))]
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert D[i][j] == 0
        assert all(v >= 0 for v in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(72)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        assert list(invariant_factors(rows)) == _minor_gcds(rows, n, m)


# ---------------------------------------------------------------------------
# Torsion summaries


def test_torsion_worked_examples():
    c = carousel_of(2, [(2, 1)])
    hit = torsion_summary(c, "10")
    assert hit.invariant_factors == (1, 3)
    assert hit.torsion_orders == (3, 3)
    assert hit.group_order == 3

    full = torsion_summary(c, "11")
    assert full.torsion_orders == (1, 1)
    assert full.group_order == 1

    empty = torsion_summary(c, "00")
    assert empty.torsion_orders == (1, 1)
    assert empty.group_order == 1


def test_torsion_bound_small_sweep():
    for profile in exhaustive_profiles((2, 3), dmax=5):
        c = build_carousel(profile)
        bounds = []
        for locus in profile.loci:
            bounds.extend([profile.p ** (2 * locus.f) - 1] * (locus.e * locus.f))
        for bits in _all_strata(c.d):
            summary = torsion_summary(c, bits)
            for order, bound in zip(summary.torsion_orders, bounds):
                assert order != 0 and bound % order == 0, (profile, bits)


def test_single_locus_group_order_formula():
    for p in (2, 3, 5):
        for e, f in ((2, 1), (1, 2), (3, 1), (1, 3), (2, 2), (4, 1), (1, 4)):
            c = carousel_of(p, [(e, f)])
            for bits in _all_strata(c.d):
                summary = torsion_summary(c, bits)
                expected = abs(p**f - (-1) ** bits.count("1"))
                assert summary.group_order == expected, (p, e, f, bits)
                rows = picard_relations(c, bits)
                assert abs(fraction_determinant([list(r) for r in rows])) == expected


def test_torsion_matches_snf_oracle_on_every_stratum():
    # invariant factors, every torsion order and the verdict, d <= 7
    for profile in exhaustive_profiles((2, 3, 5), dmax=7):
        c = build_carousel(profile)
        for bits in _all_strata(c.d):
            assert torsion_summary(c, bits) == oracles.torsion_summary(c, bits), (profile, bits)


def test_torsion_closed_form_at_degree_64():
    p = MERSENNE_61
    c = carousel_of(p, [(1, 32), (2, 16)])
    first = "10" * 16  # 16 hits: a = p**32 - 1
    second = "111" + "0" * 29  # 3 hits: a = p**16 + 1
    a, b = p**32 - 1, p**16 + 1
    summary = torsion_summary(c, first + second)
    assert summary.torsion_orders == (a,) * 32 + (b,) * 32
    # p**16 + 1 divides p**32 - 1, so the two cyclic parts stay apart
    assert summary.invariant_factors == (1,) * 62 + (b, a)
    assert summary.group_order == a * b


def test_parity_classes_agree_with_torsion_summary():
    # every open stratum reads the summary of its class of per-locus
    # parities, the one torsion_summary gives it, with the same verdict
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        c = build_carousel(profile)
        rows = strata.open_sweep(c)
        assert [text for text, _, _ in rows] == _all_strata(c.d)
        classes = {}
        for text, size, summary in rows:
            assert size == text.count("1")
            assert summary == torsion_summary(c, text), (profile, text)
            assert summary.within_bound == within_torsion_bound(c, summary)
            key = tuple(text[block.start : block.stop].count("1") % 2 for block in c.blocks)
            assert classes.setdefault(key, summary) is summary, (profile, text)
        assert len(classes) == 2 ** len(profile.loci)


@pytest.mark.parametrize("rejected", [None, (1, +1), (2, -1), (3, +1)])
def test_two_strata_decide_the_torsion_bound_on_every_stratum(monkeypatch, rejected):
    # selftest checks the stratum even on every locus and the one odd on
    # every locus; its verdict is that of the whole sweep, with the real
    # bound and with one rejecting a_P = p**f -+ 1 on the loci of one f
    if rejected is not None:
        real, (f_rejected, sign) = strata._divides_bound, rejected

        def rejecting(p, f, order):
            return not (f == f_rejected and order == p**f + sign) and real(p, f, order)

        monkeypatch.setattr(strata, "_divides_bound", rejecting)
    verdicts = set()
    for profile in exhaustive_profiles((2, 3, 5), dmax=6):
        c = build_carousel(profile)
        verdict = selftest._torsion_check(c)
        assert verdict == all(summary.within_bound for _, _, summary in strata.open_sweep(c)), profile
        verdicts.add(verdict)
    assert verdicts == ({True} if rejected is None else {True, False})


def test_sweeps_refuse_above_the_cap_at_once():
    # 64 totally split loci at p = 2^64 - 59 have 2^64 parity classes and
    # strata: the sweep refuses before building any
    c = carousel_of(2**64 - 59, [(1, 1)] * 64)
    start = perf_counter()
    with pytest.raises(InvariantError, match=r"^degree 64 > MAX_SWEEP_DEGREE = 12"):
        strata.open_sweep(c)
    assert perf_counter() - start < 0.5
    # one inert locus of degree 13: two classes, but 2^13 strata
    c = carousel_of(3, [(1, 13)])
    with pytest.raises(InvariantError, match=r"^degree 13 > MAX_SWEEP_DEGREE = 12"):
        strata.open_sweep(c)
    # at the cap the sweep runs
    c = carousel_of(13, [(1, 1)] * 12)
    assert len(strata.open_sweep(c)) == 2**12


def test_torsion_bound_rejects_orders_off_the_bound():
    # p = 2 on the inert (1, 2) locus: the bound is 2**4 - 1 = 15
    c = carousel_of(2, [(1, 2)])
    assert within_torsion_bound(c, torsion_summary(c, "10"))
    for orders in ((4, 15), (15, 7), (0, 3)):
        assert not within_torsion_bound(c, PicardSummary((1, 15), orders, 15, True))


@pytest.mark.parametrize("chosen", [0, 1])
def test_torsion_verdict_fails_where_the_bound_is_made_to_fail(monkeypatch, chosen):
    # Negative control: a_P = p**f -+ 1 always divides p**(2f) - 1, so the
    # verdict can only fail if the bound is patched.  Reject a_P = p**f + 1
    # on one locus (the first, then the middle one; the loci have distinct f):
    # exactly the classes, strata and rows odd on that locus must fail.
    p, pairs = 2, ((1, 1), (1, 2), (1, 3))
    profile = profile_of(p, pairs)
    c = build_carousel(profile)
    chosen_f = pairs[chosen][1]
    real = strata._divides_bound

    def rejecting(p, f, order):
        return not (f == chosen_f and order == p**f + 1) and real(p, f, order)

    monkeypatch.setattr(strata, "_divides_bound", rejecting)

    def odd_on_chosen(text):
        return text[c.blocks[chosen].start : c.blocks[chosen].stop].count("1") % 2 == 1

    texts = ["".join(bits) for bits in product("01", repeat=c.d)]
    for text, _, torsion in strata.open_sweep(c):
        assert torsion.within_bound == within_torsion_bound(c, torsion) == (not odd_on_chosen(text)), text
    for text in texts:
        assert torsion_summary(c, text).within_bound == (not odd_on_chosen(text)), text
    doc = json.dumps(profile.as_dict())
    report, code = cli.run(["picard", "--profile", doc])
    assert code == 0
    rows = report["payload"]["strata"]
    assert [row["stratum"] for row in rows] == texts
    for row in rows:
        assert row["divisibility"] == ("fail" if odd_on_chosen(row["stratum"]) else "pass"), row["stratum"]
        single, code = cli.run(["picard", "--profile", doc, "--stratum", row["stratum"]])
        assert code == 0 and single["payload"]["strata"] == [row]
    checks, all_passed, _ = selftest.run_selftest([profile])
    assert {row["check"]: row["pass"] for row in checks} == {
        "determinant_identity": True,
        "cone_chain": True,
        "split_criterion": True,
        "bridge_identity": True,
        "torsion_bound": False,
    }
    assert not all_passed


# d = 7 to 12, beyond the golden corpus's d <= 6: split, inert, ramified and
# mixed loci, the totally split d = 12 sweep where each stratum is its own
# parity class, and the largest prime the input contract allows.
SWEEP_PANEL = (
    (3, ((1, 2), (1, 1), (3, 1), (1, 1))),
    (5, ((2, 2), (1, 4))),
    (2, ((1, 1),) * 9),
    (7, ((2, 1), (1, 3), (5, 1))),
    (13, ((1, 11),)),
    (2, ((1, 1),) * 12),
    (2**64 - 59, ((2, 2), (1, 3), (3, 1), (1, 1), (1, 1))),
)


@pytest.mark.parametrize("p, pairs", SWEEP_PANEL)
def test_full_sweep_equals_the_per_stratum_rows(p, pairs):
    c = carousel_of(p, pairs)
    report, code = cli.run(["picard", "--profile", json.dumps(profile_of(p, pairs).as_dict())])
    assert code == 0
    rows = report["payload"]["strata"]
    texts = ["".join(bits) for bits in product("01", repeat=c.d)]
    assert rows == [stratum_row(c, text) for text in texts]
    # the Smith-form route agrees on a sample of the strata
    rng = random.Random(f"sweep {p} {pairs}")
    for index in rng.sample(range(len(rows)), 24):
        summary = oracles.torsion_summary(c, texts[index])
        assert rows[index]["invariant_factors"] == list(summary.invariant_factors)
        assert rows[index]["torsion_orders"] == list(summary.torsion_orders)
        assert rows[index]["group_order"] == summary.group_order
        assert rows[index]["divisibility"] == ("pass" if summary.within_bound else "fail")
    # each row owns its lists: changing one changes no other
    lists = [row[key] for row in rows for key in ("invariant_factors", "torsion_orders")]
    assert len({id(values) for values in lists}) == len(lists)


def test_order_of_identity_relations():
    # the quotient by the full lattice Z^d is trivial, a degenerate sanity case
    _, D, _ = smith_normal_form([[1, 0], [0, 1]])
    assert [D[0][0], D[1][1]] == [1, 1]


# ---------------------------------------------------------------------------
# Fibre degrees and the bridge


def test_fibre_degree_worked_examples():
    c = carousel_of(2, [(1, 2)])
    assert fibre_degree(c, Weight((1, 0)), 0, 1) == 2
    assert fibre_degree(c, Weight((0, 1)), 0, 1) == -1
    assert fibre_degree(c, Weight((0, 0)), 0, 1) == 0


def test_bridge_worked_examples():
    c = carousel_of(2, [(1, 2)])
    assert fibre_degree(c, Weight((0, 1)), 0, 1) < 0
    assert 0 in reducible_directions(c, Weight((0, 1)))
    assert not fibre_degree(c, Weight((1, 0)), 0, 1) < 0
    # degree 2*1 - 1*2 = 0 is not negative, and 2k_tau >= k_sigma_inv holds
    assert not fibre_degree(c, Weight((1, 2)), 0, 1) < 0


def test_fibre_degree_rejects_singleton_orbit():
    c = carousel_of(3, [(1, 1), (1, 1)])
    with pytest.raises(SingletonOrbit):
        fibre_degree(c, Weight((1, 1)), 0, 1)


def test_fibre_degree_rejects_non_dividing_multiplier():
    c = carousel_of(2, [(2, 1)])
    # n_tau = 2 does not divide p^0 = 1
    with pytest.raises(MultiplierNotDividing):
        fibre_degree(c, Weight((1, 1)), 0, 0)
    # but r = 0 is fine when n_tau = 1
    assert fibre_degree(c, Weight((1, 1)), 1, 0) == 0


def test_fibre_degree_rejects_negative_power():
    c = carousel_of(2, [(1, 2)])
    with pytest.raises(InvariantError):
        fibre_degree(c, Weight((1, 1)), 0, -1)


@pytest.mark.parametrize("r", [True, False, 1.0, "1", None])
def test_fibre_degree_refuses_a_non_integer_power(r):
    # isinstance(True, int) holds, so an isinstance check alone reads True as r = 1
    c = carousel_of(2, [(1, 2)])
    with pytest.raises(SchemaError, match="the power r must be an integer"):
        fibre_degree(c, Weight((0, 1)), 0, r)


def test_bridge_identity_small_sweep():
    for c in panel_carousels():
        assert oracles.bridge_walk(c), c.profile


# Mutants of the bridge, each patched into every module that calls it: the
# fibre degree with its sign flipped or reading sigma for sigma^{-1}, and
# reducibility reading sigma for sigma^{-1}.  On an orbit of length two
# sigma = sigma^{-1}, so those two mutants fail only on longer orbits.
def _flipped(real):
    return lambda *args: -real(*args)


def _reading_sigma(real):
    return lambda c, *args: real(replace(c, sigma_inv_table=c.sigma_table), *args)


BRIDGE_MUTANTS = {
    "library": [],
    "flipped fibre degree": [(strata, "fibre_degree", _flipped), (selftest, "fibre_degree", _flipped)],
    "fibre degree reads sigma": [(strata, "fibre_degree", _reading_sigma), (selftest, "fibre_degree", _reading_sigma)],
    "reducibility reads sigma": [(reduction, "_reducible", _reading_sigma)],
}


@pytest.mark.parametrize("mutant", list(BRIDGE_MUTANTS))
def test_bridge_check_equals_the_box_walk(monkeypatch, mutant):
    # selftest reads the bridge identity off the d unit weights; the oracle
    # walks all 5^d weights of the box.  Their verdicts agree on every
    # profile; each mutant fails some profile, and there only the bridge row
    for module, name, wrap in BRIDGE_MUTANTS[mutant]:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    failing = []
    for profile in exhaustive_profiles((2, 3, 5), dmax=5):
        c = build_carousel(profile)
        verdict = selftest._bridge_check(c)
        assert verdict == oracles.bridge_walk(c), (mutant, profile)
        if not verdict:
            failing.append(profile)
    assert bool(failing) == (mutant != "library")
    rows, _, _ = selftest.run_selftest(failing)
    assert [(row["check"], row["profile"]) for row in rows if not row["pass"]] == [
        ("bridge_identity", profile.as_dict()) for profile in failing
    ]


def test_selftest_runs_a_degree_64_panel_within_a_second():
    start = perf_counter()
    rows, all_passed, vacuous = selftest.run_selftest(DEGREE_64_PANEL)
    assert perf_counter() - start < 1.0
    assert all_passed and not vacuous
    assert len(rows) == len(DEGREE_64_PANEL) * len(selftest.CHECKS)
    # the negative control drops the -e_tau term, so |det| = prod p^f against
    # prod (p^f - 1): every entry fails the determinant check and nothing else
    panel = json.dumps([profile.as_dict() for profile in DEGREE_64_PANEL])
    report, code = cli.run(["selftest", "--panel", panel, "--debug-bad-hasse"])
    assert code == 4
    failed = [(row["check"], row["profile"]) for row in report["payload"]["checks"] if not row["pass"]]
    assert failed == [("determinant_identity", profile.as_dict()) for profile in DEGREE_64_PANEL]
