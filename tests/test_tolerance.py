"""How a truncation action is trusted, and how a generator-matched
isomorphism is.

An action that fgl.lubin_tate.build_action built carries its datum's
certificate, and the lemma of fgl.recovery.build_addition_table covers it
at every N; build_addition_table refuses any other action, which
verify_action and the every-pair oracle (oracles.exhaustive_table) check.
The two are tested against each other on every truncation action the
suite builds, below q and from q on, and on mutants of them; the lemma's
congruence step under hypothesis on both sides of q; and the certificate's
Newton-basis rows, which pass the T^q row that is integer-valued but not
integral coefficient by coefficient.  A TwistIsomorphism checks only its
generators' images; on every carrier below, its table (oracles.tabulated)
passes the every-pair walk of MonoidMorphism.verify.
"""
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.laws import FglEndomorphism, MonoidAction, scalar_table, verify_action
from fgl.lubin_tate import (
    LubinTateError,
    _certify_rows,
    build_action,
    build_endomorphism,
    build_fgl,
    multiplicative_datum,
    standard_datum,
)
from fgl.monoids import (
    BOTTOM,
    MonoidError,
    MonoidMorphism,
    build_monoid_isomorphism,
    padic_factorial_valuation,
    padic_truncation_of,
    unit_isomorphism_variants,
)
from fgl.recovery import RecoveryError, build_addition_table, transport_structure
from fgl.rings import EisensteinExtension, PadicIntegers
from fgl.series import TruncatedSeries, first_difference
from oracles import REFUSED, exhaustive_table, tabulated

T2_5, T2_10 = (-5, 0, 1), (-10, 0, 1)


def _ring(spec):
    kind, k, *poly = spec
    if kind == "E":
        return EisensteinExtension(5, k, tuple(poly))
    return PadicIntegers(int(kind[1:]), k)  # "Z3" or "Z5"


@functools.lru_cache(maxsize=None)
def _action(ring, preset, N, n, V):
    ctx = _ring(ring)
    d = (multiplicative_datum if preset == "multiplicative" else standard_datum)(ctx, N)
    return build_action(d, build_fgl(d, N), monoid=padic_truncation_of(ctx, n, V))


# (ring, preset, N, n, V) of every truncation action the tier-1 suite builds
# below q, where premise (b) holds
BELOW_Q = {
    "lubin-tate-small": (("Z5", 8), "standard", 4, 1, 2),
    "criterion-4": (("Z5", 8), "multiplicative", 4, 2, 3),
    "recover-add": (("Z5", 6), "standard", 4, 1, 2),
    "recover-add-V4": (("Z5", 6), "standard", 4, 1, 4),
    "recovery-n2-V2": (("Z5", 8), "multiplicative", 4, 2, 2),
    "recovery-n1-V2": (("Z5", 6), "multiplicative", 4, 1, 2),
    "t2-5": (("E", 7, *T2_5), "standard", 2, 2, 2),
    "demo-n2-t2-10": (("E", 7, *T2_10), "standard", 2, 2, 2),
    "demo-n1-t2-5": (("E", 6, *T2_5), "standard", 2, 1, 2),
    "criterion-5-t2-10": (("E", 9, *T2_10), "standard", 2, 3, 3),
}
# N >= q: the kernel oracle's degree-5 Eisenstein action, and Z_3 at N = 4
FROM_Q = {
    "kernel-oracle-N5": (("E", 9, *T2_5), "standard", 5, 1, 2),
    "z3-multiplicative-N4": (("Z3", 6), "multiplicative", 4, 2, 2),
}


def _premise_b_failures(action):
    """(class, exponent) of every coefficient of [a] not divisible by
    pi^v(a), premise (b): an integral scalar table implies it, as each
    coefficient of [s] is a sum of M[k][j] * s^j with j >= 1.  The lemma
    no longer needs it; where it fails the table must still be the
    oracle's."""
    ctx = action.law.ctx
    return [(a, exp) for a, endo in action.assignment.items()
            for exp, c in endo.series.terms.items() if ctx.valuation(c) < a[0]]


# ---------------------------------------------------------------------------
# premise (b), which holds below q and fails from q on


@pytest.mark.parametrize("name", sorted(BELOW_Q))
def test_premise_b_holds_on_every_tier_1_truncation_action(name):
    action = _action(*BELOW_Q[name])
    assert action.law.trunc_degree < action.law.ctx.p
    assert _premise_b_failures(action) == []


def test_premise_b_fails_once_n_reaches_q():
    action = _action(*FROM_Q["kernel-oracle-N5"])
    # [a] = a*T + ... + c*T^5 with c a unit for v(a) >= 1
    assert {exp for _, exp in _premise_b_failures(action)} == {(5,)}
    assert build_addition_table(action).row == exhaustive_table(action).row


def test_z3_at_degree_4_fails_premise_b_and_keeps_the_oracle_row():
    action = _action(*FROM_Q["z3-multiplicative-N4"])
    assert _premise_b_failures(action)
    assert verify_action(action).ok
    assert build_addition_table(action).row == exhaustive_table(action).row


# ---------------------------------------------------------------------------
# the certificate's rows: Newton-basis coordinates and the degree bound


def _rows(ctx, k, terms, shift=1):
    """A one-row scalar table, P_k(a) = sum_j terms[j] * a^j / pi^shift."""
    field = ctx.fraction_field()
    inv = field.invert(ctx.lift((ctx.uniformizer() ** shift).payload))
    return {k: [(j, field.mul(field.int_payload(c), inv)) for j, c in terms.items()]}


@pytest.mark.parametrize("ctx", [PadicIntegers(3, 6), EisensteinExtension(5, 9, T2_5)],
                         ids=["Z3", "Z5[sqrt5]"])
def test_the_row_a_to_the_q_minus_a_over_pi_is_certified(ctx):
    # a^q = a mod pi on the ring, so (a^q - a)/pi is integer-valued, though
    # its coefficients are not integral
    q = ctx.p
    _certify_rows(ctx, _rows(ctx, q, {1: -1, q: 1}), q)


@pytest.mark.parametrize("ctx", [PadicIntegers(3, 6), EisensteinExtension(5, 9, T2_5)],
                         ids=["Z3", "Z5[sqrt5]"])
def test_the_row_a_over_pi_is_refused(ctx):
    with pytest.raises(LubinTateError, match="coordinate 1 of the degree-2 row"):
        _certify_rows(ctx, _rows(ctx, 2, {1: 1}), 2)


def test_a_row_integral_on_the_integers_only_is_refused():
    # (a^5 - a)/5 is integral at every integer, but at a = pi = sqrt 5 it is
    # pi^3 - 1/pi: the node a_5 = pi, not 5, is what shows it
    ctx = EisensteinExtension(5, 9, T2_5)
    with pytest.raises(LubinTateError, match="coordinate 5 of the degree-5 row"):
        _certify_rows(ctx, _rows(ctx, 5, {1: -1, 5: 1}, shift=2), 5)


def test_n_equal_q_is_certified_where_coefficients_are_not_integral():
    # at N = q the T^q row has a coefficient of valuation -1, and the
    # certificate passes it; class precision drops by v_p(q!) = 1 at
    # degree q, which is v(D_q)
    Z5 = PadicIntegers(5, 8)
    monoid = padic_truncation_of(Z5, 1, 2)
    assert monoid.class_precisions(1, 5)[5] == 1
    d = standard_datum(Z5, 5)
    law = build_fgl(d, 5)
    fld = d.field(5)
    table = scalar_table(fld.log, fld.exp)
    assert min(Z5.field_valuation(m) for row in table.values() for _, m in row) == -1
    action = build_action(d, law, monoid=monoid)
    assert build_addition_table(action).row == exhaustive_table(action).row


def test_class_precision_drops_by_v_p_of_k_factorial_over_a_ramified_ring():
    # v(D_5) = v_5(5!) = 1 counted in powers of pi, also where e = 2, so a
    # class of valuation 1 at n = 1 keeps one digit at degree 5, not none
    E = EisensteinExtension(5, 9, T2_5)
    assert padic_truncation_of(E, 1, 2).class_precisions(1, 5) == (2, 2, 2, 2, 2, 1)


@pytest.mark.parametrize("poly", [T2_5, T2_10], ids=["t2-5", "t2-10"])
def test_the_recorded_n3_demo_at_degree_q_passes_every_pair(poly):
    # both actions of tests/golden/demo-variation-n3-N5.stdout (n = 3, V = 3,
    # N = 5 = q), checked pair by pair at the class precision above
    action = _action(("E", 9, *poly), "standard", 5, 3, 3)
    assert verify_action(action).ok
    assert build_addition_table(action).row == exhaustive_table(action).row


def test_degree_bound_is_checked_where_premise_b_holds():
    # the congruence step loses v(D_i) at degree k >= i, and at the
    # certificate's nodes a_i = sum_t i_t * pi^t, v(D_i) = v_p(i!) <=
    # v_p(k!), the precision a class loses there, so the certificate checks
    # no bound of its own: below q every D_i is a unit and premise (b)
    # holds, and past q^2 a second digit carries
    Z5 = PadicIntegers(5, 8)
    d = multiplicative_datum(Z5, 4)
    action = build_action(d, build_fgl(d, 4), monoid=padic_truncation_of(Z5, 1, 2))
    assert _premise_b_failures(action) == []
    for ctx in (Z5, PadicIntegers(3, 6), EisensteinExtension(5, 9, T2_5)):
        field, q = ctx.fraction_field(), ctx.p
        nodes, _ = _certify_rows(ctx, {}, q * q + 1)
        for i, x in enumerate(nodes):
            D = functools.reduce(field.mul, (field.add(x, field.neg(a)) for a in nodes[:i]),
                                 field.int_payload(1))
            assert ctx.field_valuation(D) == padic_factorial_valuation(i, q)


def _small():
    return _action(*BELOW_Q["lubin-tate-small"])


def test_premise_b_is_checked_below_q_too():
    # [1:1] gains a unit coefficient at degree 2; N = 4 < 5 is not enough:
    # the certificate covers only the [a] that were built, and an action
    # carrying another [a] is a plain MonoidAction, which no table takes
    # and the oracle verifies pair by pair
    action = _small()
    bump = TruncatedSeries(action.law.ctx, ("T",), 4, {(2,): 1})
    moved = FglEndomorphism(action.law, action.assignment[(1, 1)].series + bump)
    mutant = MonoidAction(action.monoid, action.law, {**action.assignment, (1, 1): moved})
    assert _premise_b_failures(mutant) == [((1, 1), (2,))]
    with pytest.raises(RecoveryError, match="action verification failed"):
        exhaustive_table(mutant)
    with pytest.raises(RecoveryError, match=REFUSED):
        build_addition_table(mutant)


# ---------------------------------------------------------------------------
# the lemma's congruence step: [s] = [s'] at class precision when s = s'
# mod pi^(v(s) + n); below q that is mod pi^(v(s) + n) at every degree


@st.composite
def congruent_scalars(draw):
    actions = draw(st.sampled_from([BELOW_Q, FROM_Q]))
    action = _action(*actions[draw(st.sampled_from(sorted(actions)))])
    ctx, n = action.law.ctx, action.monoid.n
    a = draw(st.sampled_from(sorted(action.assignment)))
    coeffs = st.tuples(*[st.integers(-5**6, 5**6)] * ctx.e)
    t = ctx.normalize(draw(coeffs) if ctx.e > 1 else draw(coeffs)[0])
    shift = (ctx.uniformizer() ** (a[0] + n)).payload
    s = ctx.add(action.monoid.canonical_lift(a), ctx.mul(shift, t))
    return action, a, s


@settings(max_examples=60, deadline=None)
@given(congruent_scalars())
def test_congruent_scalars_act_alike_at_class_precision(case):
    action, a, s = case
    ctx, monoid, N = action.law.ctx, action.monoid, action.law.trunc_degree
    assert monoid.class_of(s) == a
    endo = build_endomorphism(action.datum, action.law, s).series
    if N < ctx.p:
        delta = endo - action.assignment[a].series
        assert all(ctx.valuation(c) >= a[0] + monoid.n for c in delta.terms.values())
    assert first_difference(ctx, endo.terms, action.assignment[a].series.terms,
                            monoid.class_precisions(a[0], N)) is None


# ---------------------------------------------------------------------------
# generators of the truncation carrier


CARRIERS = [
    (("Z5", 8), 1, 1), (("Z5", 8), 1, 2), (("Z5", 8), 1, 3), (("Z5", 8), 2, 1),
    (("Z5", 8), 2, 2), (("Z5", 8), 2, 3), (("Z5", 5), 4, 2),
    (("E", 7, *T2_5), 1, 1), (("E", 7, *T2_5), 2, 1), (("E", 7, *T2_5), 2, 2),
    (("E", 7, *T2_5), 2, 3), (("E", 7, *T2_10), 2, 2), (("E", 9, *T2_5), 3, 3),
]


@pytest.mark.parametrize("ring,n,V", CARRIERS)
def test_generators_close_to_every_payload(ring, n, V):
    M = padic_truncation_of(_ring(ring), n, V)
    gens = M.generators()
    assert gens[0] == (BOTTOM if V == 1 else (1, M.unit_ctx.int_payload(1)))
    assert gens[1:] == [(0, g) for g in M.unit_group.generators]
    seen = {M.identity_payload()}
    frontier = list(seen)
    while frontier:
        frontier = {M.mul(g, a) for a in frontier for g in gens} - seen
        seen |= frontier
    assert seen == set(M.payloads())


@pytest.mark.parametrize("ring,n,V", CARRIERS)
def test_twists_pass_the_every_pair_walk_and_invert(ring, n, V, monkeypatch):
    # self-twists, each written out through apply; the 1,001-class carrier
    # walks its million pairs for one twist only
    M = padic_truncation_of(_ring(ring), n, V)
    isos = unit_isomorphism_variants(M, M, count=3)
    for iso in isos[-1:] if len(M.payloads()) > 1000 else isos:
        iso.verify()
        tabulated(iso).verify()
        back = iso.inverse()
        assert all(back.apply(iso.apply(c)) is c for c in M.payloads())
    # the entry of the target's unit_of that the first generator's image
    # reads, replaced by a residue whose d-th power is not 1: a unit of
    # larger order where the group has one, else 0, which is no class
    G = M.unit_group
    d, one = G.factors[0], M.unit_ctx.int_payload(1)
    wrong = next(x for x in (*M.unit_payloads(), M.unit_ctx.int_payload(0))
                 if G._pow(x, d) != one)
    monkeypatch.setitem(G.unit_of, (iso.twist[0],) + (0,) * (len(G.factors) - 1), wrong)
    with pytest.raises(MonoidError, match=f"has order not dividing {d}|maps to no class"):
        iso.verify()


@pytest.mark.parametrize("ring,n,V", CARRIERS)
def test_classes_are_the_sorted_registry_and_every_rings_elements(ring, n, V):
    # the registry's order is sorted already, so no ring sorts: a native
    # ring and one transported along a twist hold the monoid's one tuple
    M = _action(ring, "standard", 2, n, V).monoid
    assert list(M.classes) == sorted(c for c in M.payloads() if c != BOTTOM)
    assert all(M.payloads().mapping[c] is c for c in M.classes)
    native = build_addition_table(_action(ring, "standard", 2, n, V))
    transported = transport_structure(unit_isomorphism_variants(M, M)[-1], native)
    assert native.elements is M.classes and transported.elements is M.classes


# ---------------------------------------------------------------------------
# differential tests: the certificate against every pair


@pytest.mark.parametrize("name", sorted(BELOW_Q))
def test_both_modes_agree_on_every_tier_1_truncation_action(name):
    # every action the suite builds also passes every pair, and its table
    # is the oracle's; FROM_Q's are compared where premise (b) is
    action = _action(*BELOW_Q[name])
    full = verify_action(action)
    assert full.ok
    assert full.checked_pairs + full.skipped_pairs == len(action.assignment)**2
    assert build_addition_table(action).row == exhaustive_table(action).row


def _compositions(report):
    return [v.where for v in report.violations if v.kind == "composition"]


def _both_modes(action, assignment):
    """The exhaustive report on assignment: an action carrying it is a
    plain MonoidAction, which build_addition_table refuses; the oracle's
    table is refused where the report fails, and equals the built
    action's table where it passes."""
    mutant = MonoidAction(action.monoid, action.law, assignment)
    with pytest.raises(RecoveryError, match=REFUSED):
        build_addition_table(mutant)
    report = verify_action(mutant)
    if report.ok:
        assert exhaustive_table(mutant).row == build_addition_table(action).row
    else:
        with pytest.raises(RecoveryError, match="action verification failed"):
            exhaustive_table(mutant)
    return report


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_both_modes_are_tight_at_class_precision(k):
    """The bump of test_composition_check_is_tight_at_class_precision on the
    non-generator class 1:2.  Past degree 1 the mutant fails the exact
    endomorphism law at every shift; the composition check is what must be
    right, failing at precision - 1 and passing at precision."""
    action = _small()
    monoid, law = action.monoid, action.law
    target = (1, 2)
    assert target not in monoid.generators()
    precision = monoid.class_precisions(target[0], law.trunc_degree)[k]
    for shift, caught in ((precision - 1, True), (precision, False)):
        bump = TruncatedSeries(law.ctx, ("T",), law.trunc_degree, {(k,): 5**shift})
        moved = FglEndomorphism(law, action.assignment[target].series + bump)
        compositions = _compositions(
            _both_modes(action, {**action.assignment, target: moved}))
        assert bool(compositions) is caught
        assert ("0:2*1:1=1:2" in compositions) is caught


def test_both_modes_catch_a_layer_relabelled_by_a_unit():
    """[2:u] becomes [2:2u] on criterion 4's carrier.  Unit rows still
    close, since [0:g]o[2:2u] = [2:2gu]; pi's row, [pi]o[1:u] against
    [2:u], sees it."""
    action = _action(*BELOW_Q["criterion-4"])
    monoid = action.monoid
    moved = {(2, u): action.assignment[monoid.mul((0, 2), (2, u))]
             for v, u in action.assignment if v == 2}
    report = _both_modes(action, {**action.assignment, **moved})
    assert "1:1*1:1=2:1" in _compositions(report)


def test_both_modes_tie_each_class_to_its_linear_coefficient():
    """[1:u] := [1:2u] for every u, the assignment moved along pi -> 2pi.
    That is a monoid automorphism, so every composition still closes; only
    the linear coefficient of [1:u], in class 1:2u, shows the move."""
    action = _small()
    moved = {(1, u): action.assignment[(1, 2 * u % 5)] for u in range(1, 5)}
    report = _both_modes(action, {**action.assignment, **moved})
    assert (report.checked_pairs, report.skipped_pairs) == (48, 16)
    assert [(v.kind, v.where, v.delta) for v in report.violations] == [
        ("linear_class", f"1:{u}", f"1:{2 * u % 5}") for u in range(1, 5)
    ]


@pytest.mark.parametrize("terms, found", [({}, "0"), ({(1,): 25}, "bot")])
def test_linear_coefficient_without_the_class_is_a_violation(terms, found):
    # a zero linear coefficient has no class and 25 lies in BOTTOM; both
    # are reported against 1:1, not raised
    action = _small()
    law = action.law
    moved = FglEndomorphism(law, TruncatedSeries(law.ctx, ("T",), 4, terms))
    violations = _both_modes(action, {**action.assignment, (1, 1): moved}).violations
    assert ("linear_class", "1:1", found) in [
        (v.kind, v.where, v.delta) for v in violations]


def test_exhaustive_check_reports_each_unassigned_class():
    action = _small()
    assignment = {a: e for a, e in action.assignment.items() if a not in ((1, 2), (0, 3))}
    report = _both_modes(action, assignment)
    assert [(v.kind, v.where) for v in report.violations] == [
        ("unassigned", "0:3"), ("unassigned", "1:2")]


def test_morphism_relabelling_one_layer_fails_on_the_pi_row():
    # f(2:u) = 2:2u and f = id elsewhere commutes with every unit row
    M = padic_truncation_of(PadicIntegers(5, 8), 1, 3)
    table = {p: p for p in M.payloads()}
    table.update({(2, u): M.mul((0, 2), (2, u)) for u in M.unit_payloads()})
    with pytest.raises(MonoidError, match=r"multiplicativity fails at \(1:1, "):
        MonoidMorphism(M, M, table=table).verify()


def _iso():
    m1 = padic_truncation_of(EisensteinExtension(5, 7, T2_5), 2, 2)
    m2 = padic_truncation_of(EisensteinExtension(5, 7, T2_10), 2, 2)
    return build_monoid_isomorphism(m1, m2)


def _swaps():
    M = _iso().source
    gens = set(M.generators()) | {M.identity_payload()}
    others = [p for p in M.payloads() if p not in gens]
    rng = random.Random(12)
    picks = [(others[0], others[1]), (others[0], BOTTOM)]
    picks += [tuple(rng.sample(others, 2)) for _ in range(6)]
    return picks


@pytest.mark.parametrize("a,b", _swaps(), ids=str)
def test_swapped_non_generator_images_fail_verify(a, b):
    table = tabulated(_iso())
    table.table[a], table.table[b] = table.table[b], table.table[a]
    with pytest.raises(MonoidError, match="multiplicativity fails"):
        table.verify()

