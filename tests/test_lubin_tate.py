import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.laws import (
    FglEndomorphism,
    FormalGroupLaw,
    LawError,
    MonoidAction,
    action_from_bundle,
    intertwining_defect,
    verify_action,
)
from fgl.lubin_tate import (
    LubinTateDatum,
    LubinTateError,
    build_action,
    build_endomorphism,
    build_fgl,
    compare_lubin_tate,
    integrality_scan,
    lift_series,
    multiplicative_datum,
    reduce_series,
    standard_datum,
)
from fgl.monoids import BOTTOM, padic_factorial_valuation, padic_truncation_of
from fgl.rings import EisensteinExtension, PadicIntegers, RationalField
from fgl.series import TruncatedSeries


# the closed-form oracle for the multiplicative preset: (1+T)^a - 1 has
# binomial coefficients, reduced mod p^k for p-adic a
def binomial_endo_terms(a: int, N: int, mod: int) -> dict:
    return {
        (k,): math.comb(a, k) % mod
        for k in range(1, min(a, N) + 1)
        if math.comb(a, k) % mod
    }


def test_defining_identity_standard():
    Z5 = PadicIntegers(5, 8)
    d = standard_datum(Z5, degree=10)
    law = build_fgl(d, 10)
    assert law.report.all_pass
    # f(F(x,y)) = F(f(x), f(y)) at ring precision
    N = 10
    f = d.f.truncate(N)
    X = TruncatedSeries.variable(Z5, ("x", "y"), N, "x")
    Y = TruncatedSeries.variable(Z5, ("x", "y"), N, "y")
    lhs = f.substitute_single(law.F)
    rhs = law.plus(f.substitute_single(X), f.substitute_single(Y))
    assert lhs == rhs


def test_pi_acts_as_f():
    Z5 = PadicIntegers(5, 8)
    d = standard_datum(Z5, degree=8)
    law = build_fgl(d, 8)
    assert build_endomorphism(d, law, 5).series == d.f.truncate(8)

    E = EisensteinExtension(5, 8, (-5, 0, 1))
    de = standard_datum(E, degree=6)
    lawe = build_fgl(de, 6)
    assert build_endomorphism(de, lawe, E.uniformizer()).series == de.f.truncate(6)


def test_multiplicative_preset_is_exactly_x_plus_y_plus_xy():
    Z5 = PadicIntegers(5, 8)
    law = build_fgl(multiplicative_datum(Z5, degree=8), 8)
    assert law.F.terms == {(1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_multiplicative_endomorphisms_match_binomials():
    Z5 = PadicIntegers(5, 8)
    d = multiplicative_datum(Z5, degree=12)
    law = build_fgl(d, 12)
    mod = 5**8
    assert build_endomorphism(d, law, 2).series.terms == {(1,): 2, (2,): 1}
    for a in (3, 4, 7, 11):
        endo = build_endomorphism(d, law, a)
        assert endo.series.terms == binomial_endo_terms(a, 12, mod)


# every class of both criterion-5 carriers (n=3, V=3, N=2) and of
# criterion 4's Z_5 carrier (n=2, V=3, N=4): (ring, preset, N, n, V)
COMMUTING_CARRIERS = {
    "criterion-5 t^2-5": (EisensteinExtension(5, 9, (-5, 0, 1)), "standard", 2, 3, 3),
    "criterion-5 t^2-10": (EisensteinExtension(5, 9, (-10, 0, 1)), "standard", 2, 3, 3),
    "criterion-4": (PadicIntegers(5, 8), "multiplicative", 4, 2, 3),
}


@pytest.mark.parametrize("carrier", sorted(COMMUTING_CARRIERS))
def test_every_class_commutes_with_f_in_the_ring(carrier):
    # the defining identity [a](f) = f([a]) that [a] = exp(a*log) must meet
    ctx, preset, N, n, V = COMMUTING_CARRIERS[carrier]
    d = standard_datum(ctx) if preset == "standard" else multiplicative_datum(ctx, N)
    monoid = padic_truncation_of(ctx, n, V)
    action = build_action(d, build_fgl(d, N), monoid=monoid)
    f = d.f.truncate(N)
    assert len(action.assignment) == len(monoid.payloads()) - 1
    for endo in action.assignment.values():
        assert endo.series.substitute_single(f) == f.substitute_single(endo.series)


def test_field_law_is_solved_once_per_datum_and_degree(monkeypatch):
    # one _solve_field per datum and degree builds the law, its log and exp
    # together; build_fgl builds no scalar table, and every [a] reads the
    # one memoized on the field's log
    import fgl.lubin_tate as lt

    solves = []
    solve = lt._solve_field
    monkeypatch.setattr(lt, "_solve_field", lambda d, N: solves.append(N) or solve(d, N))
    d = standard_datum(PadicIntegers(5, 8), degree=6)
    law = build_fgl(d, 6)
    assert solves == [6] and d.field(6).log._scalar_table is None
    build_endomorphism(d, law, 1)
    fld = d.field(6)
    table = lt.scalar_table(fld.log, fld.exp)
    for a in range(2, 8):
        build_endomorphism(d, law, a)
    assert solves == [6] and lt.scalar_table(fld.log, fld.exp) is table
    law4 = build_fgl(d, 4)
    build_endomorphism(d, law4, 2)
    build_endomorphism(d, law, 8)
    assert solves == [6, 4] and lt.scalar_table(fld.log, fld.exp) is table
    build_fgl(standard_datum(PadicIntegers(5, 8), degree=6), 6)
    assert solves == [6, 4, 6]


@pytest.mark.parametrize("N", [2, 4])
def test_only_build_action_runs_the_certificate(monkeypatch, N):
    # the certificate composes the field log with [a] at a_1..a_N; the
    # solve, build_fgl, build_endomorphism and a comparison compose none
    E = EisensteinExtension(5, 9, (-5, 0, 1))
    d, other = standard_datum(E), _nonadditive_datum(E)
    into_log = []
    composed_terms = TruncatedSeries.composed_terms

    def counted(self, assignments):
        if all(len(t.variables) == 1 for t in assignments.values()):
            into_log.append(self)
        return composed_terms(self, assignments)

    def certificate_compositions():
        logs = (d.field(N).log, other.field(N).log)
        return sum(any(s is log for log in logs) for s in into_log)

    monkeypatch.setattr(TruncatedSeries, "composed_terms", counted)
    law = build_fgl(d, N)
    build_endomorphism(d, law, 2)
    compare_lubin_tate(d, other, N)
    assert certificate_compositions() == 0
    build_action(d, law, monoid=padic_truncation_of(E, 1, 2))
    assert certificate_compositions() == N


def _reference_field_law(d, N):
    """The oracle: F solved directly as a fixed point over the fraction
    field, degree by degree.  A degree-deg correction delta moves the
    degree-deg defect f(F) - F(f, f) by (pi - pi^deg) * delta, so delta is
    the defect over pi^deg - pi."""
    field = d.ctx.fraction_field()
    f = lift_series(d.f_at(N))
    pi = field.el(d.ctx.lift(d.pi))
    one = field.int_payload(1)
    F = TruncatedSeries(field, ("x", "y"), N, {(1, 0): one, (0, 1): one})
    for deg in range(2, N + 1):
        inv = (pi**deg - pi).inverse().payload
        S = F.truncate(deg)
        defect = intertwining_defect(f.truncate(deg), S, S)
        delta = {exp: field.mul(c, inv)
                 for exp, c in defect.terms.items() if sum(exp) == deg}
        if delta:
            F = F + TruncatedSeries(field, F.variables, N, delta)
    return F


FIELD_RINGS = {
    "Z_3": PadicIntegers(3, 8),
    "Z_5": PadicIntegers(5, 8),
    "Z_5[sqrt 5]": EisensteinExtension(5, 9, (-5, 0, 1)),
    "Z_5[sqrt 10]": EisensteinExtension(5, 9, (-10, 0, 1)),
}


def _preset(ctx, preset, N):
    return {"standard": lambda: standard_datum(ctx, N),
            "multiplicative": lambda: multiplicative_datum(ctx, N),
            "nonadditive": lambda: _nonadditive_datum(ctx)}[preset]()


@pytest.mark.parametrize("ring, preset", [
    (ring, preset) for ring in sorted(FIELD_RINGS)
    for preset in ("standard", "multiplicative", "nonadditive")
    if preset != "multiplicative" or ring in ("Z_3", "Z_5")
])
def test_field_law_matches_the_degree_by_degree_solve(ring, preset):
    ctx = FIELD_RINGS[ring]
    d = _preset(ctx, preset, 6)
    for N in range(1, 7):
        assert d.field(N).law == _reference_field_law(d, N), N


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_law_of_a_random_datum_matches_the_degree_by_degree_solve(data):
    ctx = FIELD_RINGS[data.draw(st.sampled_from(sorted(FIELD_RINGS)))]
    q, pi = ctx.p, ctx.uniformizer().payload
    top = data.draw(st.integers(q, q + 2))
    # a unit at T^q, every other coefficient past T divisible by pi
    terms = {(1,): pi, (q,): data.draw(st.integers(1, 4 * q).filter(lambda c: c % q))}
    for k in range(2, top + 1):
        if k != q:
            terms[(k,)] = ctx.mul(pi, ctx.normalize(data.draw(st.integers(-30, 30))))
    d = LubinTateDatum(ctx, TruncatedSeries(ctx, ("T",), top, terms))
    N = data.draw(st.integers(1, 5))
    assert d.field(N).law == _reference_field_law(d, N)


@pytest.mark.parametrize("p", [3, 5])
def test_multiplicative_log_is_log_one_plus_t(p):
    log = multiplicative_datum(PadicIntegers(p, 8), degree=6).field(6).log
    assert log.terms == {(k,): Fraction((-1) ** (k + 1), k) for k in range(1, 7)}


def _nonadditive_datum(ctx):
    # f = pi*T + pi*T^2 + T^q: a non-additive law below degree q (= 5 over
    # Z_5 and its extensions)
    pi, q = ctx.uniformizer().payload, ctx.p
    return LubinTateDatum(ctx, TruncatedSeries(ctx, ("T",), q,
                                               {(1,): pi, (2,): pi, (q,): 1}))


def _composed_endomorphism(d, law, a):
    """The oracle: [a] = exp(a * log) composed over the fraction field, then
    reduced to the ring."""
    fld = d.field(law.trunc_degree)
    return reduce_series(fld.exp.substitute_single(fld.log.scale(d.ctx.lift(a))), d.ctx)


# (ring, preset, N, n, V): every class of both criterion-5 carriers, of
# criterion 4's carrier and of the non-additive datum over Z_5[sqrt 5]
ORACLE_CARRIERS = {
    **COMMUTING_CARRIERS,
    "nonadditive t^2-5": (EisensteinExtension(5, 9, (-5, 0, 1)), "nonadditive", 4, 2, 3),
}


@pytest.mark.parametrize("carrier", sorted(ORACLE_CARRIERS))
def test_endomorphisms_match_the_composed_oracle(carrier):
    ctx, preset, N, n, V = ORACLE_CARRIERS[carrier]
    d = _preset(ctx, preset, N)
    law = build_fgl(d, N)
    monoid = padic_truncation_of(ctx, n, V)
    degrees = set()
    for payload in monoid.payloads():
        if payload != BOTTOM:
            a = monoid.canonical_lift(payload)
            series = build_endomorphism(d, law, a).series
            assert series == _composed_endomorphism(d, law, a), payload
            degrees.update(k for (k,) in series.terms)
    # the standard datum is additive below degree q, so only its linear
    # terms survive; the other two reach the table's rows
    assert max(degrees) == (1 if preset == "standard" else N)


def test_multiplicative_endomorphisms_match_the_composed_oracle():
    Z5 = PadicIntegers(5, 8)
    d = multiplicative_datum(Z5, degree=12)
    law = build_fgl(d, 12)
    for a in range(1, 12):
        assert build_endomorphism(d, law, a).series == _composed_endomorphism(d, law, a)


def test_datum_validation():
    Z5 = PadicIntegers(5, 6)
    with pytest.raises(LubinTateError, match="uniformizer"):
        LubinTateDatum(Z5, TruncatedSeries(Z5, ("T",), 5, {(1,): 1, (5,): 1}))
    with pytest.raises(LubinTateError, match="unit"):
        LubinTateDatum(Z5, TruncatedSeries(Z5, ("T",), 5, {(1,): 5, (5,): 5}))
    with pytest.raises(LubinTateError, match="vanish"):
        LubinTateDatum(
            Z5, TruncatedSeries(Z5, ("T",), 5, {(1,): 5, (2,): 1, (5,): 1})
        )
    Q = RationalField()
    with pytest.raises(LubinTateError, match="p-adic"):
        LubinTateDatum(Q, TruncatedSeries(Q, ("T",), 5, {(1,): 5, (5,): 1}))


def test_fraction_field_of_rationals_rejected():
    # only p-adic rings own a fraction field to scan in
    law = FormalGroupLaw.multiplicative(RationalField(), 4)
    with pytest.raises(LubinTateError, match="p-adic"):
        integrality_scan(law)


def test_random_pairs_compose_and_add():
    # scalars below 5^3, so products and sums keep their canonical integer
    # representatives inside the precision window and the identities are exact
    Z5 = PadicIntegers(5, 6)
    d = standard_datum(Z5, degree=6)
    law = build_fgl(d, 6)
    rng = random.Random(4005)
    cache = {}

    def endo(a):
        if a not in cache:
            cache[a] = build_endomorphism(d, law, a)
        return cache[a]

    for _ in range(12):
        a = rng.randrange(1, 125)
        b = rng.randrange(1, 125)
        composite = endo(a).series.substitute_single(endo(b).series)
        assert composite == endo(a * b).series
        assert law.plus(endo(a).series, endo(b).series) == endo(a + b).series


def test_scalar_reduction_moves_deep_coefficients():
    # [c] depends on the representative of c one digit beyond ring precision
    # at degree 5: reducing 177*192 mod 5^6 before solving shifts the T^5
    # coefficient by a multiple of 5^5, and by nothing below valuation
    # 6 - v_5(k!) in any degree k
    Z5 = PadicIntegers(5, 6)
    d = standard_datum(Z5, degree=6)
    law = build_fgl(d, 6)
    composite = build_endomorphism(d, law, 177).series.substitute_single(
        build_endomorphism(d, law, 192).series
    )
    reduced = build_endomorphism(d, law, (177 * 192) % 5**6)
    assert composite != reduced.series
    delta = composite - reduced.series
    assert set(delta.terms) == {(5,)}
    assert Z5.valuation(delta.terms[(5,)]) == 5
    for (k,), c in delta.terms.items():
        assert Z5.valuation(c) >= 6 - padic_factorial_valuation(k, 5)


def test_integrality_scan_blocking_coefficients():
    Z5 = PadicIntegers(5, 8)
    _, report = integrality_scan(build_fgl(multiplicative_datum(Z5, degree=6), 6))
    blocking = report.first_blocking()
    assert blocking.degree == 5
    assert blocking.valuation == -1

    # the standard series is additive below degree q, so the scan only
    # trips at T^5 as well
    _, report2 = integrality_scan(build_fgl(standard_datum(Z5, degree=6), 6))
    assert [e.degree for e in report2.entries if not e.integral] == [5]


def test_comparison_standard_vs_multiplicative():
    # same uniformizer, so the two laws are strictly isomorphic over the ring
    Z5 = PadicIntegers(5, 8)
    cmp = compare_lubin_tate(
        standard_datum(Z5, degree=6), multiplicative_datum(Z5, degree=6), 6
    )
    assert cmp.integrality.all_integral
    assert cmp.verified_in_ring
    assert cmp.h_ring.terms[(1,)] == 1


def _small_truncation_action():
    Z5 = PadicIntegers(5, 8)
    d = standard_datum(Z5, degree=4)
    law = build_fgl(d, 4)
    return build_action(d, law, monoid=padic_truncation_of(Z5, 1, 2))


def test_truncation_action_verifies_with_tolerance():
    report = _small_truncation_action().verify()
    assert report.ok
    assert report.checked_pairs == 48
    assert report.skipped_pairs == 16  # pairs whose product hits the cap


def test_absorbing_pairs_are_not_composed(monkeypatch):
    # the pair checks are the only one-variable compositions; the
    # endomorphism-law checks compose into two-variable series
    action = _small_truncation_action()
    composed_terms = TruncatedSeries.composed_terms
    compositions = []

    def counting(self, assignments):
        if all(len(t.variables) == 1 for t in assignments.values()):
            compositions.append(assignments)
        return composed_terms(self, assignments)

    monkeypatch.setattr(TruncatedSeries, "composed_terms", counting)
    report = action.verify()
    assert (report.checked_pairs, report.skipped_pairs) == (48, 16)
    assert len(compositions) == 48


def test_verify_action_reads_each_endomorphism_variable():
    # the pair checks substitute for the series' own variable, whatever
    # its name, also where two endomorphisms name theirs differently
    action = _small_truncation_action()
    bundle = action.to_bundle()
    for k, entry in enumerate(bundle["endomorphisms"]):
        entry["series"]["vars"] = ["S" if k % 2 else "T"]
    report = action_from_bundle(bundle).verify()
    assert report.ok
    assert (report.checked_pairs, report.skipped_pairs) == (48, 16)


def test_truncation_action_bundle_round_trips():
    action = _small_truncation_action()
    text = json.dumps(action.to_bundle(), sort_keys=True)
    again = action_from_bundle(json.loads(text))
    assert again.tolerance == "truncation"
    report = again.verify()
    assert report.ok
    assert (report.checked_pairs, report.skipped_pairs) == (48, 16)
    assert json.dumps(again.to_bundle(), sort_keys=True) == text


def test_truncation_tolerance_needs_a_truncation_monoid():
    action = _small_truncation_action()
    bundle = action.to_bundle()
    bundle["monoid"] = {"kind": "free", "generators": []}
    with pytest.raises(LawError, match="truncation monoid"):
        action_from_bundle(bundle)


@pytest.mark.parametrize("kind", ["built", "plain"])
def test_an_action_is_fixed_when_built(kind):
    # a different action is a new MonoidAction; none changes in place.  A
    # built action keeps what [a] is read from and builds [a] when asked, a
    # new series equal to the last one
    built = _small_truncation_action()
    action = built if kind == "built" else MonoidAction(built.monoid, built.law,
                                                         built.assignment)
    law, monoid, endo = action.law, action.monoid, action.assignment[(1, 1)]
    other_law = FormalGroupLaw.multiplicative(law.ctx, 4)
    other_monoid = padic_truncation_of(law.ctx, 1, 3)
    fixed = {"law": other_law, "monoid": other_monoid, "assignment": {}}
    if kind == "built":
        fixed.update(datum=None, field=None, table={})
    for name, value in fixed.items():
        with pytest.raises(AttributeError, match="fixed when it is built"):
            setattr(action, name, value)
        with pytest.raises(AttributeError, match="fixed when it is built"):
            delattr(action, name)
    with pytest.raises(TypeError):
        action.assignment[(1, 1)] = action.assignment[(1, 2)]
    with pytest.raises(TypeError):
        del action.assignment[(1, 1)]
    if kind == "built":
        # [a] acts through the monoid's own lift, and the monoid's classes
        # are a read-only view
        assert endo.series.terms[(1,)] == monoid.canonical_lift((1, 1))
        with pytest.raises(TypeError):
            monoid.payloads()[(1, 1)] = (1, 2)
    with pytest.raises(AttributeError, match="fixed when it is built"):
        endo.series = action.assignment[(1, 2)].series
    assert action.law is law and action.monoid is monoid
    if kind == "built":
        assert action.assignment[(1, 1)] == endo
    else:
        assert action.assignment[(1, 1)] is endo
    assert verify_action(action).ok


def test_a_built_series_is_read_only():
    # an edit to [u]'s terms would leave its recorded law_violation = None
    # and its memoized power table behind; neither a law nor an
    # endomorphism takes one
    E = EisensteinExtension(5, 7, (-5, 0, 1))
    d = standard_datum(E)
    law = build_fgl(d, 2)
    action = build_action(d, law, monoid=padic_truncation_of(E, 2, 2))
    u = action.monoid.class_of(E.normalize(2))
    series = action.assignment[u].series
    powers = series.powers(2)
    with pytest.raises(TypeError):
        series.terms[(1,)] = E.normalize(3)
    with pytest.raises(TypeError):
        del series.terms[(1,)]
    with pytest.raises(TypeError):
        law.F.terms[(1, 1)] = E.normalize(1)
    assert series.terms == {(1,): action.monoid.canonical_lift(u)}
    assert powers[1].terms == series.terms and series.powers(2) is powers
    assert TruncatedSeries(E, law.F.variables, 2, law.F.terms).terms == law.F.terms
    assert action.assignment[u].law_violation is None and law.report.all_pass


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_composition_check_is_tight_at_class_precision(k):
    """Moving [1:2] at degree k by pi^(precision - 1) breaks composition;
    moving it by pi^precision stays inside the class."""
    action = _small_truncation_action()
    monoid, law = action.monoid, action.law
    target = (1, 2)  # = 0:2 * 1:1, neither factor the identity
    precisions = monoid.class_precisions(target[0], law.trunc_degree)
    assert precisions == (2,) * 5  # v + n; v_5(k!) = 0 below k = 5
    for shift, caught in ((precisions[k] - 1, True), (precisions[k], False)):
        bump = TruncatedSeries(law.ctx, ("T",), law.trunc_degree, {(k,): 5**shift})
        moved = FglEndomorphism(law, action.assignment[target].series + bump)
        mutant = MonoidAction(monoid, law, {**action.assignment, target: moved})
        composition = [v.where for v in verify_action(mutant).violations
                       if v.kind == "composition"]
        assert ("0:2*1:1=1:2" in composition) is caught


def test_eisenstein_law_reduces_to_additive_mod_pi():
    E = EisensteinExtension(5, 8, (-5, 0, 1))
    law = build_fgl(standard_datum(E, degree=6), 6)
    for exp, c in law.F.terms.items():
        if exp in ((1, 0), (0, 1)):
            assert c == E.int_payload(1)
        else:
            assert E.valuation(c) >= 1
