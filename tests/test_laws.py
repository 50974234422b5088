import itertools
import math
import random

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.laws import (
    ActionViolation,
    FglEndomorphism,
    FormalGroupLaw,
    LawError,
    MonoidAction,
    NonInvertibleDivision,
    action_from_bundle,
    check_axioms_series,
    endomorphism_from_logarithm,
    formal_inverse,
    from_logarithm,
    intertwining_defect,
    logarithm,
)
from fgl.monoids import FreeCommutativeMonoid, RingSubsetMonoid
from fgl.rings import EisensteinExtension, PadicIntegers, RationalField, grlex_key
from fgl.series import SeriesError, TruncatedSeries, first_difference

Q = RationalField()


def _one_var(terms, N=6, ctx=Q):
    return TruncatedSeries(ctx, ("T",), N, {(k,): v for k, v in terms.items()})


def _log_of_multiplicative(N):
    return _one_var({k: Fraction((-1) ** (k + 1), k) for k in range(1, N + 1)}, N)


def test_builtin_laws_pass_axioms():
    assert FormalGroupLaw.additive(Q, 6).report.all_pass
    assert FormalGroupLaw.multiplicative(Q, 6).report.all_pass
    assert FormalGroupLaw.multiplicative(PadicIntegers(5, 8), 6).report.all_pass


def test_axiom_failure_names_associativity():
    F = TruncatedSeries(Q, ("x", "y"), 4,
                        {(1, 0): 1, (0, 1): 1, (2, 2): 1})
    report = check_axioms_series(F)
    assert not report.all_pass
    bad = report.first_failure()
    assert bad.name == "associativity"
    assert bad.monomial == (1, 1, 2)


def test_axiom_failure_names_commutativity():
    F = TruncatedSeries(Q, ("x", "y"), 3, {(1, 0): 1, (0, 1): 1, (2, 1): 1})
    report = check_axioms_series(F)
    assert report.first_failure().name == "commutativity"


def test_axiom_failure_names_linear_shape():
    F = TruncatedSeries(Q, ("x", "y"), 3, {(1, 0): 1, (0, 1): 2})
    report = check_axioms_series(F)
    assert report.first_failure().name == "linear_shape"


def test_from_series_raises_on_bad_law():
    F = TruncatedSeries(Q, ("x", "y"), 4, {(1, 0): 1, (0, 1): 1, (2, 2): 1})
    with pytest.raises(LawError, match="associativity"):
        FormalGroupLaw.from_series(F)


def test_from_logarithm_of_log_one_plus_t():
    # g(f(x) + f(y)) for f = log(1+T) is exactly x + y + xy at any degree
    for N in (4, 6, 9):
        law, g = from_logarithm(_log_of_multiplicative(N))
        assert law.F.terms == {
            (1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)
        }
        assert g == _log_of_multiplicative(N).compositional_inverse()


def test_from_logarithm_round_trips_through_logarithm():
    rng = random.Random(2024)
    for _ in range(20):
        coeffs = {1: Fraction(1)}
        for k in range(2, 8):
            coeffs[k] = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        f = _one_var(coeffs, N=7)
        law, _ = from_logarithm(f)
        assert law.report.all_pass
        assert logarithm(law) == f


def test_from_logarithm_needs_strict_series():
    with pytest.raises(LawError):
        from_logarithm(_one_var({1: 2}))


def test_formal_inverse_of_multiplicative():
    law, _ = from_logarithm(_log_of_multiplicative(6))
    iota = formal_inverse(law)
    # -T/(1+T)
    assert iota.terms == {(k,): Fraction((-1) ** k) for k in range(1, 7)}


def test_formal_inverse_of_additive():
    iota = formal_inverse(FormalGroupLaw.additive(Q, 5))
    assert iota.terms == {(1,): Fraction(-1)}


def test_logarithm_blocks_over_padics():
    law = FormalGroupLaw.multiplicative(PadicIntegers(5, 6), 6)
    with pytest.raises(NonInvertibleDivision) as info:
        logarithm(law)
    assert info.value.denominator == 5
    assert info.value.degree == 5


def test_scalar_endomorphisms_are_binomials():
    f = _log_of_multiplicative(6)
    law, g = from_logarithm(f)
    e3 = endomorphism_from_logarithm(law, f, g, Q.el(3))
    assert e3.series.terms == {
        (k,): Fraction(math.comb(3, k)) for k in range(1, 4)
    }


def test_scalar_endomorphisms_compose_and_add():
    f = _one_var({1: 1, 2: Fraction(1, 3), 4: -2}, N=6)
    law, g = from_logarithm(f)
    rng = random.Random(77)
    for _ in range(15):
        a = Fraction(rng.randint(-6, 6))
        b = Fraction(rng.randint(-6, 6))
        ea = endomorphism_from_logarithm(law, f, g, Q.el(a))
        eb = endomorphism_from_logarithm(law, f, g, Q.el(b))
        eab = endomorphism_from_logarithm(law, f, g, Q.el(a * b))
        esum = endomorphism_from_logarithm(law, f, g, Q.el(a + b))
        assert ea.series.substitute_single(eb.series) == eab.series
        assert law.plus(ea.series, eb.series) == esum.series


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 8), data=st.data())
def test_endomorphism_from_logarithm_matches_the_composition(N, data):
    # lawbuild's distribution: a strict log with coefficients n/d, |n| <= 9
    # and 1 <= d <= 9, and the scalars a, b, a*b and a + b for a, b in [-6, 6]
    coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    log = _one_var({1: 1, **{k: data.draw(coeff) for k in range(2, N + 1)}}, N)
    a, b = data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6))
    law, exp = from_logarithm(log)
    for m in (a, b, a * b, a + b):
        endo = endomorphism_from_logarithm(law, log, exp, Q.el(m))
        assert endo.series == exp.substitute_single(log.scale(m))


def test_endomorphism_from_logarithm_needs_strict_log_and_exp():
    f = _log_of_multiplicative(4)
    law, g = from_logarithm(f)
    one = TruncatedSeries.constant(Q, ("T",), 4, 1)
    for log, exp in ((f.scale(2), g), (f, g.scale(2)), (f + one, g), (f, g + one)):
        with pytest.raises(LawError, match="log and exp must be T mod degree 2"):
            endomorphism_from_logarithm(law, log, exp, Q.el(3))


def test_endomorphism_shares_its_laws_degree():
    law = FormalGroupLaw.multiplicative(Q, 4)
    for N in (3, 5):
        with pytest.raises(LawError, match=f"truncated at degree {N}, its law at degree 4"):
            FglEndomorphism(law, _one_var({1: 1}, N=N))


def test_endomorphism_verify_catches_non_endo():
    law = FormalGroupLaw.multiplicative(Q, 4)
    bad = FglEndomorphism(law, _one_var({1: 2}, N=4))
    with pytest.raises(LawError):
        bad.verify()


def test_action_on_window_verifies_and_detects_corruption():
    f = _log_of_multiplicative(5)
    law, g = from_logarithm(f)
    window = RingSubsetMonoid(Q, [Fraction(2), Fraction(4)])
    assignment = {
        p: endomorphism_from_logarithm(law, f, g, Q.el(p))
        for p in window.payloads()
    }
    action = MonoidAction(window, law, assignment)
    report = action.verify()
    assert report.ok
    assert report.checked_pairs > 0

    # swap [4] for [5]: composition 2*2=4 must now fail
    assignment[Fraction(4)] = endomorphism_from_logarithm(law, f, g, Q.el(5))
    broken = MonoidAction(window, law, assignment).verify()
    assert not broken.ok
    assert broken.violations[0].kind == "composition"


def test_free_action_checks_commutation():
    f = _one_var({1: 1, 3: Fraction(2, 5)}, N=6)
    law, g = from_logarithm(f)
    M = FreeCommutativeMonoid(("u", "v"))
    action = MonoidAction(M, law, {
        (1, 0): endomorphism_from_logarithm(law, f, g, Q.el(2)),
        (0, 1): endomorphism_from_logarithm(law, f, g, Q.el(3)),
    })
    assert action.verify().ok
    # words act through composition
    e6 = action.endo_for(M.check_payload((1, 1)))
    assert e6 == endomorphism_from_logarithm(law, f, g, Q.el(6))


def test_verify_action_reports_an_identity_that_does_not_act_as_t():
    law = FormalGroupLaw.additive(Q, 3)
    window = RingSubsetMonoid(Q, [Fraction(2)])
    double = FglEndomorphism(law, _one_var({1: 2}, N=3))
    report = MonoidAction(window, law, {p: double for p in window.payloads()}).verify()
    # [1] = 2T differs from T first at T^1, by 2 - 1
    assert report.violations[0] == ActionViolation("identity", "1", (1,), "1")


def test_verify_action_reports_generators_that_do_not_commute():
    law = FormalGroupLaw.additive(Q, 3)
    M = FreeCommutativeMonoid(("u", "v"))
    u, v = (FglEndomorphism(law, _one_var(c, N=3)) for c in ({1: 1, 2: 1}, {1: 2}))
    report = MonoidAction(M, law, {(1, 0): u, (0, 1): v}).verify()
    # u(v(T)) = 2T + 4T^2 against v(u(T)) = 2T + 2T^2
    commutation = [bad for bad in report.violations if bad.kind == "commutation"]
    assert commutation == [ActionViolation("commutation", "u,v", (2,), "2")]


def test_a_composite_word_is_formed_on_each_call_and_kept_by_no_one():
    f = _one_var({1: 1, 3: Fraction(2, 5)}, N=6)
    law, g = from_logarithm(f)
    M = FreeCommutativeMonoid(("u", "v"))
    u, v = (endomorphism_from_logarithm(law, f, g, Q.el(m)) for m in (2, 3))
    action = MonoidAction(M, law, {(1, 0): u, (0, 1): v})
    assert vars(action).keys() == {"monoid", "law", "assignment"}
    before = dict(vars(action))
    word = M.check_payload((2, 1))
    endo = action.endo_for(word)
    assert vars(action) == before
    assert endo.series == u.series.substitute_single(
        u.series.substitute_single(v.series))
    assert endo == action.endo_for(word)


def test_action_bundle_round_trip():
    f = _log_of_multiplicative(4)
    law, g = from_logarithm(f)
    M = FreeCommutativeMonoid(("m",))
    action = MonoidAction(M, law, {
        (1,): endomorphism_from_logarithm(law, f, g, Q.el(2)),
    })
    bundle = action.to_bundle()
    again = action_from_bundle(bundle)
    assert again.verify().ok
    assert again.to_bundle() == bundle
    m2 = M.check_payload((2,))
    assert again.endo_for(m2).series == action.endo_for(m2).series


# ---------------------------------------------------------------------------
# first_difference against a sort-based reference


def _congruent_by_sorting(s1, s2, precisions=None):
    """Walk the union of both exponent sets in graded-lex order and return
    the first monomial that fails, with its delta as text."""
    ctx = s1.ctx
    for exp in sorted(set(s1.terms) | set(s2.terms), key=grlex_key):
        zero = ctx.normalize(0)
        delta = ctx.add(s1.terms.get(exp, zero), ctx.neg(s2.terms.get(exp, zero)))
        if ctx.is_zero(delta):
            continue
        if precisions is None or ctx.valuation(delta) < precisions[sum(exp)]:
            return exp, ctx.fmt(delta)
    return None


E = EisensteinExtension(5, 6, (-5, 0, 1))
# coefficients a + b*pi scaled by p^j, so that deltas of every valuation occur
_COEFF = st.builds(lambda a, b, j: (a * 5**j, b * 5**j),
                   st.integers(-30, 30), st.integers(-30, 30), st.integers(0, 3))


@st.composite
def congruence_cases(draw):
    width, N = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    exps = [e for e in itertools.product(range(N + 1), repeat=width) if sum(e) <= N]
    variables = ("x", "y", "z")[:width]

    def series():
        terms = draw(st.dictionaries(st.sampled_from(exps), _COEFF, max_size=8))
        return TruncatedSeries(E, variables, N, terms)

    s1 = series()
    s2 = s1 + series()  # equal where the perturbation has no term
    precisions = draw(st.none() | st.tuples(*[st.integers(0, E.k)] * (N + 1)))
    return s1, s2, precisions


@settings(max_examples=200, deadline=None)
@given(congruence_cases())
def test_first_difference_matches_the_sorted_walk(case):
    s1, s2, precisions = case
    for a, b in ((s1, s2), (s2, s1), (s1, s1)):
        assert (first_difference(E, a.terms, b.terms, precisions)
                == _congruent_by_sorting(a, b, precisions))


def test_intertwining_defect_refuses_a_law_with_a_constant_term():
    F = TruncatedSeries(Q, ("x", "y"), 4, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    h = _one_var({1: 2, 2: 1}, N=4)
    with pytest.raises(SeriesError, match="assignment for 'T' has a nonzero constant term"):
        intertwining_defect(h, F, F)


def test_intertwining_defect_refuses_a_map_with_a_constant_term():
    F = FormalGroupLaw.multiplicative(Q, 4).F
    h = _one_var({0: 1, 1: 2, 2: 1}, N=4)
    with pytest.raises(SeriesError, match="assignment for 'x' has a nonzero constant term"):
        intertwining_defect(h, F, F)
