"""Acceptance gate: one test per shipped criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a short summary line on success.  Runtime
ceilings are part of the criteria and asserted, not just reported.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from fgl.laws import MonoidAction, endomorphism_from_logarithm, from_logarithm
from fgl.lubin_tate import (
    LubinTateDatum,
    build_action,
    build_endomorphism,
    build_fgl,
    integrality_scan,
    multiplicative_datum,
)
from fgl.monoids import FreeCommutativeMonoid, padic_truncation_of
from fgl.recovery import build_addition_table, variation_demo
from fgl.rings import IntegerRing, PadicIntegers, RationalField
from fgl.series import TruncatedSeries
from fgl.universal import (
    IdealNotKilled,
    classify_fgl,
    generate_presentation,
    specialize,
    z_two_variable_check,
)


def test_criterion_1_random_logarithms_give_lawful_actions():
    Q = RationalField()
    rng = random.Random(20260822)
    t0 = time.time()
    for trial in range(100):
        terms = {(1,): Fraction(1)}
        for k in range(2, 9):
            terms[(k,)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        log = TruncatedSeries(Q, ("T",), 8, terms)
        law, exp = from_logarithm(log)
        assert law.report.all_pass
        a = rng.randint(-6, 6)
        b = rng.randint(-6, 6)
        ea = endomorphism_from_logarithm(law, log, exp, Q.el(a))
        eb = endomorphism_from_logarithm(law, log, exp, Q.el(b))
        ea.verify()
        eab = endomorphism_from_logarithm(law, log, exp, Q.el(a * b))
        assert ea.series.substitute_single(eb.series).terms == eab.series.terms
        esum = endomorphism_from_logarithm(law, log, exp, Q.el(a + b))
        added = law.F.substitute({"x": ea.series, "y": eb.series})
        assert added.terms == esum.series.terms
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(
        "\n[criterion 1] PASS: 100 random degree-8 logarithms over Q, "
        f"axioms and scalar identities exact, {elapsed:.1f}s"
    )


def test_criterion_2_quintic_datum_acts_through_integer_scalars():
    Z5 = PadicIntegers(5, 8)
    t0 = time.time()
    f = TruncatedSeries(Z5, ("T",), 10, {(1,): 5, (5,): 1})
    datum = LubinTateDatum(Z5, f)
    law = build_fgl(datum, 10)
    assert law.report.all_pass

    fx = f.rename(("x",)).embed(("x", "y"))
    fy = f.rename(("y",)).embed(("x", "y"))
    f_of_F = f.substitute_single(law.F)
    F_of_f = law.F.substitute({"x": fx, "y": fy})
    assert f_of_F.terms == F_of_f.terms

    # integer representatives below 5^4 keep sums and products inside the
    # window where the symbol [a] is determined by a alone at this precision
    rng = random.Random(7)
    cache = {}

    def endo(a):
        if a not in cache:
            cache[a] = build_endomorphism(datum, law, Z5.el(a))
        return cache[a]

    for trial in range(50):
        a = rng.randrange(1, 5**4)
        b = rng.randrange(1, 5**4)
        ea, eb = endo(a), endo(b)
        assert ea.series.substitute_single(eb.series).terms == endo(a * b).series.terms
        added = law.F.substitute({"x": ea.series, "y": eb.series})
        assert added.terms == endo(a + b).series.terms
    elapsed = time.time() - t0
    assert elapsed < 30.0
    print(
        "\n[criterion 2] PASS: f = 5T + T^5 at degree 10, defining identity "
        f"exact and 50 scalar pairs compose/add exactly, {elapsed:.1f}s"
    )


def test_criterion_3_multiplicative_preset_is_closed_form():
    Z5 = PadicIntegers(5, 8)
    datum = multiplicative_datum(Z5, 12)
    law = build_fgl(datum, 12)
    one = Z5.normalize(1)
    assert law.F.terms == {(1, 0): one, (0, 1): one, (1, 1): one}
    mod = 5**8
    for a in (2, 7, 5, 6):
        endo = build_endomorphism(datum, law, Z5.el(a))
        expected = {}
        for k in range(1, 13):
            c = math.comb(a, k) % mod
            if c:
                expected[(k,)] = Z5.normalize(c)
        assert endo.series.terms == expected
    print(
        "\n[criterion 3] PASS: multiplicative preset gives x + y + x*y with "
        "all higher terms zero and [a] = sum C(a,k) T^k for a in {2, 7, 5, 6}"
    )


def test_criterion_4_recovered_addition_matches_native_ring():
    t0 = time.time()
    Z5 = PadicIntegers(5, 8)
    datum = multiplicative_datum(Z5, 4)
    law = build_fgl(datum, 4)
    monoid = padic_truncation_of(Z5, 2, 3)
    action = build_action(datum, law, monoid=monoid)
    # build_addition_table reads the row 1 + c off the native sums of
    # canonical lifts, which the certificate proves, and confirms 1 + c by
    # the law at class precision for c each generator and the class of each
    # certificate node, five classes here; an unflagged a + b is a*(1 +
    # b/a). A failed confirmation is a hard error
    ring = build_addition_table(action)
    report = ring.verify_ring_axioms()
    elapsed = time.time() - t0
    assert len(ring.elements) == 60
    assert ring.flag_counts() == {"cap": 120, "precision": 180}
    assert report["checked"] == {
        "commutativity": 3600,
        "associativity": 171000,
        "distributivity": 100000,
    }
    assert elapsed < 120.0
    print(
        "\n[criterion 4] PASS: 60-element truncation table recovered, every "
        "entry equal to the native sum class, ring axioms exhaustively "
        f"verified away from flags, {elapsed:.1f}s"
    )


def test_criterion_5_two_eisenstein_data_share_multiplication_not_addition():
    report = variation_demo(5, (-5, 0, 1), (-10, 0, 1), 3, 3)
    assert report.multiplication_identical
    assert report.carrier_size == 301
    assert len(report.variants) >= 3
    for variant in report.variants:
        assert variant.disagreements > 0
    assert report.all_variants_disagree
    assert report.seconds < 300.0
    lo = min(v.disagreements for v in report.variants)
    hi = max(v.disagreements for v in report.variants)
    print(
        "\n[criterion 5] PASS: t^2 - 5 vs t^2 - 10 share the carrier and "
        f"multiplication; all {len(report.variants)} unit twists disagree on "
        f"addition ({lo} to {hi} entries), {report.seconds:.1f}s"
    )


def test_criterion_6_rank_one_obstruction_confirmed_by_expansion():
    # independent oracle: expand g(F(x,y)) - F(g(x), g(y)) at degree 2 with
    # polynomial coefficients in m, c = c_1_1, d = d_m_2, by brute force
    def padd(a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return out

    def pmul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return {e: c for e, c in out.items() if c}

    def sadd(f, g):
        out = dict(f)
        for e, p in g.items():
            out[e] = padd(out.get(e, {}), p)
            if not out[e]:
                del out[e]
        return out

    def sscale(f, p):
        return {e: pmul(p, q) for e, q in f.items()}

    def smul(f, g):
        out = {}
        for ef, pf in f.items():
            for eg, pg in g.items():
                e = tuple(i + j for i, j in zip(ef, eg))
                if sum(e) > 2:
                    continue
                out[e] = padd(out.get(e, {}), pmul(pf, pg))
                if not out[e]:
                    del out[e]
        return out

    one = {(0, 0, 0): 1}
    M = {(1, 0, 0): 1}
    C = {(0, 1, 0): 1}
    D = {(0, 0, 1): 1}
    F = {(1, 0): one, (0, 1): one, (1, 1): C}
    g_of_F = sadd(sscale(F, M), sscale(smul(F, F), D))
    gx = {(1, 0): M, (2, 0): D}
    gy = {(0, 1): M, (0, 2): D}
    F_of_g = sadd(sadd(gx, gy), sscale(smul(gx, gy), C))
    defect = sadd(g_of_F, {e: {k: -v for k, v in p.items()} for e, p in F_of_g.items()})
    assert set(defect) == {(1, 1)}
    oracle = defect[(1, 1)]
    assert oracle == {(1, 1, 0): 1, (0, 0, 1): 2, (2, 1, 0): -1}

    pres = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    nonzero = pres.nonzero_ideal()
    assert [label for label, _ in nonzero] == ["Q_m_1_1"]
    got = dict(nonzero[0][1].payload)
    assert got == oracle

    Z = IntegerRing()
    action, report = specialize(pres, Z, {"m": 3}, {(1, 1): 1}, {("m", 2): 3})
    assert report == {"relations_checked": 14, "all_zero": True}
    action.verify()
    with pytest.raises(IdealNotKilled):
        specialize(pres, Z, {"m": 3}, {(1, 1): 1}, {("m", 2): 0})
    print(
        "\n[criterion 6] PASS: rank-one obstruction m*c_1_1 + 2*d_m_2 - "
        "m^2*c_1_1 re-derived by brute-force expansion; specialization at "
        "(3, 1, 3) holds and d = 0 is rejected"
    )


def test_criterion_7_classification_round_trips_byte_exactly():
    Z5 = PadicIntegers(5, 8)
    free_m = FreeCommutativeMonoid(("m",))
    pres = generate_presentation(free_m, 4)
    datum = multiplicative_datum(Z5, 4)
    law = build_fgl(datum, 4)
    endo = build_endomorphism(datum, law, Z5.el(2))
    action = MonoidAction(free_m, law, {(1,): endo})

    hom = classify_fgl(pres, action)
    assert hom.verification == {"relations_checked": 53, "all_zero": True}

    induced = hom.induced_action()
    assert json.dumps(induced.law.F.to_json(), sort_keys=True) == json.dumps(
        law.F.to_json(), sort_keys=True
    )
    assert json.dumps(
        induced.endo_for((1,)).series.to_json(), sort_keys=True
    ) == json.dumps(endo.series.to_json(), sort_keys=True)
    print(
        "\n[criterion 7] PASS: classifying map kills all 53 relations and "
        "specializing it back reproduces the series byte for byte"
    )


def test_criterion_8_multiplicative_log_blocks_at_degree_p():
    Z5 = PadicIntegers(5, 8)
    datum = multiplicative_datum(Z5, 6)
    law = build_fgl(datum, 6)
    _, scan = integrality_scan(law)
    assert not scan.all_integral
    blocking = scan.first_blocking()
    assert blocking is not None
    assert blocking.degree == 5
    assert blocking.valuation == -1
    assert not blocking.integral
    print(
        "\n[criterion 8] PASS: candidate logarithm over Z_5 first blocks at "
        "T^5 with coefficient valuation -1"
    )


def test_criterion_9_two_variable_relation_reduces_to_zero():
    pres = generate_presentation(FreeCommutativeMonoid(("m", "mp")), 4)
    for first, second in (((1, 0), (0, 1)), ((0, 1), (1, 0))):
        out = z_two_variable_check(pres, first, second)
        assert out == {"ok": True, "degree": 4, "relations_used": 4}
    print(
        "\n[criterion 9] PASS: commutation relation for two free generators "
        "reduces to zero in the ideal at degree 4, both orders"
    )
