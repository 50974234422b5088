import random

from fractions import Fraction

import pytest

from fgl.laws import (
    FglEndomorphism,
    MonoidAction,
    endomorphism_from_logarithm,
    from_logarithm,
)
from fgl.lubin_tate import build_action, build_fgl, multiplicative_datum, standard_datum
from fgl.monoids import (
    BOTTOM,
    RingSubsetMonoid,
    padic_truncation_of,
    unit_isomorphism_variants,
)
from fgl.recovery import (
    ADJOINED_ZERO,
    CAPPED,
    NoMatch,
    RecoveredRing,
    RecoveryError,
    build_addition_table,
    recover_sum,
    transport_structure,
    variation_demo,
)
from fgl.rings import PadicIntegers, RationalField
from fgl.series import TruncatedSeries

Q = RationalField()


def _window_action(elements, N=5):
    f = TruncatedSeries(
        Q, ("T",), N,
        {(k,): Fraction((-1) ** (k + 1), k) for k in range(1, N + 1)},
    )
    law, g = from_logarithm(f)
    window = RingSubsetMonoid(Q, [Fraction(e) for e in elements])
    assignment = {
        p: endomorphism_from_logarithm(law, f, g, Q.el(p))
        for p in window.payloads()
    }
    return MonoidAction(window, law, assignment)


def test_window_sum_identified():
    action = _window_action([2, 3, 5])
    monoid = action.monoid
    # F([2], [3]) has linear coefficient 5 and the full series of [5]
    el = monoid.check_payload
    assert recover_sum(action, el(Fraction(2)), el(Fraction(3))) == Fraction(5)
    assert recover_sum(action, el(Fraction(1)), el(Fraction(1))) == Fraction(2)


def test_window_sum_outside_window():
    action = _window_action([2, 3])
    monoid = action.monoid
    with pytest.raises(NoMatch):
        recover_sum(action, monoid.check_payload(Fraction(3)),
                    monoid.check_payload(Fraction(3)))


def test_window_formal_negatives_hit_adjoined_zero():
    action = _window_action([-1])
    monoid = action.monoid
    assert (
        recover_sum(action, monoid.check_payload(Fraction(1)),
                    monoid.check_payload(Fraction(-1)))
        == ADJOINED_ZERO
    )


def _perturbed(action, payload, degree):
    """The same action with 1 added to the degree-th coefficient of
    [payload]."""
    series = action.endo_for(payload).series
    bump = TruncatedSeries(series.ctx, series.variables, series.trunc_degree,
                           {(degree,): 1})
    assignment = dict(action.assignment)
    assignment[payload] = FglEndomorphism(action.law, series + bump)
    return MonoidAction(action.monoid, action.law, assignment,
                        tolerance=action.tolerance)


def test_window_zero_sum_must_vanish_exactly():
    # 1 + (-1) = 0 natively, so F([1], [-1]) must be the zero series; with
    # [-1] perturbed at degree 3 it is not, and the law refutes the sum
    action = _window_action([-1, 2, 3])
    one, minus_one = Fraction(1), Fraction(-1)
    assert recover_sum(action, one, minus_one) == ADJOINED_ZERO
    with pytest.raises(RecoveryError, match=r"differs from \[0\] at degree 3") as exc:
        recover_sum(_perturbed(action, minus_one, 3), one, minus_one)
    assert not isinstance(exc.value, NoMatch)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_window_sum_catches_a_perturbed_endomorphism(degree):
    action = _window_action([2, 3, 5])
    two, three = Fraction(2), Fraction(3)
    with pytest.raises(RecoveryError):
        recover_sum(_perturbed(action, two, degree), two, three)


def _trunc_ring(n=2, V=3, degree=4, precision=8):
    Z5 = PadicIntegers(5, precision)
    d = multiplicative_datum(Z5, degree=degree)
    law = build_fgl(d, degree)
    monoid = padic_truncation_of(Z5, n, V)
    action = build_action(d, law, monoid=monoid)
    return build_addition_table(action), action, monoid, Z5


def test_trunc_table_against_native_classes():
    ring, action, monoid, Z5 = _trunc_ring()
    # every entry doubles as an assertion inside the builder; freeze a few
    assert ring.add((0, 2), (0, 3)) == (1, 1)
    assert ring.flag((0, 2), (0, 3)) == "precision"
    assert ring.add((0, 2), (0, 2)) == (0, 4)
    assert ring.flag((0, 2), (0, 2)) is None
    assert ring.add((2, 1), (2, 4)) == CAPPED  # 25 + 100 = 125
    assert ring.flag((2, 1), (2, 4)) == "cap"
    assert ring.flag_counts() == {"cap": 120, "precision": 180}


def test_swapped_endomorphisms_fail_confirmation():
    # [2] and [3] trade places, so F([2], [2]) is the series of [6]; the
    # native sum 2 + 2 = 4 is the candidate, and the law refutes it
    action = _trunc_ring()[1]
    assignment = dict(action.assignment)
    assignment[(0, 2)], assignment[(0, 3)] = assignment[(0, 3)], assignment[(0, 2)]
    swapped = MonoidAction(action.monoid, action.law, assignment,
                           tolerance="truncation")
    with pytest.raises(RecoveryError, match=r"differs from \[0:4\] at degree 1"):
        recover_sum(swapped, (0, 2), (0, 2))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_table_build_catches_a_perturbed_endomorphism(degree):
    action = _perturbed(_trunc_ring()[1], (0, 2), degree)
    with pytest.raises(RecoveryError):
        build_addition_table(action)


def _native_flag(monoid, a, b):
    """A pair's flag from first principles: the native sum of the canonical
    lifts, its class, then the valuation comparison."""
    ctx = monoid.ctx
    s = ctx.add(monoid.canonical_lift(a), monoid.canonical_lift(b))
    cls = BOTTOM if ctx.is_zero(s) else monoid.class_of(s)
    if cls == BOTTOM:
        return "cap"
    return "precision" if cls[0] > min(a[0], b[0]) else None


def _eisenstein_ring():
    from fgl.rings import EisensteinExtension

    E = EisensteinExtension(5, 7, (-5, 0, 1))
    d = standard_datum(E)
    monoid = padic_truncation_of(E, 2, 2)
    return build_addition_table(build_action(d, build_fgl(d, 2), monoid=monoid))


@pytest.mark.parametrize("build", [lambda: _trunc_ring()[0], _eisenstein_ring],
                         ids=["criterion-4", "t2-5"])
def test_flags_match_native_classification(build):
    ring = build()
    for a in ring.elements:
        for b in ring.elements:
            assert ring.flag(a, b) == _native_flag(ring.monoid, a, b), (a, b)


def test_trunc_single_sums_match_table():
    ring, action, monoid, Z5 = _trunc_ring()
    rng = random.Random(60)
    elements = ring.elements
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(25)]
    # the random pairs seldom leave the window, so add every cap-flagged one;
    # a capped sum comes back as CAPPED, as the table stores it
    pairs += [(a, b) for a in elements for b in elements if ring.flag(a, b) == "cap"]
    for a, b in pairs:
        entry = recover_sum(action, monoid.check_payload(a), monoid.check_payload(b))
        assert entry == ring.add(a, b)
    assert recover_sum(action, BOTTOM, elements[0]) == CAPPED


def test_unflagged_entries_are_lift_independent():
    ring, action, monoid, Z5 = _trunc_ring()
    rng = random.Random(61)
    els = ring.elements
    unflagged = [(a, b) for a in els for b in els if ring.flag(a, b) is None]
    for pair in rng.sample(unflagged, 60):
        (va, ua), (vb, ub) = pair
        want = ring.add(*pair)
        for _ in range(4):
            # any lifts of the classes, not only the canonical ones
            la = 5**va * (ua + 25 * rng.randrange(0, 5**4))
            lb = 5**vb * (ub + 25 * rng.randrange(0, 5**4))
            s = Z5.normalize(la + lb)
            assert monoid.class_of(s) == want


def test_precision_flagged_entries_depend_on_lifts():
    # 2 + 3 = 5 for the canonical lifts, but 2 + (3 + 25) = 30 lands in a
    # different class; the table keeps the canonical entry and flags it
    ring, action, monoid, Z5 = _trunc_ring()
    assert monoid.class_of(Z5.normalize(5)) == (1, 1)
    assert monoid.class_of(Z5.normalize(30)) == (1, 6)


def test_ring_axioms_hold_on_unflagged_entries():
    ring, *_ = _trunc_ring()
    report = ring.verify_ring_axioms()
    assert report["checked"]["commutativity"] == 3600
    assert report["checked"]["associativity"] == 171000
    assert report["checked"]["distributivity"] == 100000
    # checks skipped exactly where a flagged entry enters the identity
    assert report["skipped"]["associativity"] == 45000
    assert report["skipped"]["distributivity"] == 116000


def _copy(ring):
    planted = RecoveredRing(ring.monoid, ring.provenance)
    planted.table[:] = ring.table
    return planted


def test_ring_axiom_check_catches_planted_faults():
    ring, *_ = _trunc_ring(n=2, V=2)
    ring.verify_ring_axioms()
    # one slot of an ordered pair changed, its mirror left alone
    asymmetric = _copy(ring)
    slot = ring.position[(0, 1)] * len(ring.elements) + ring.position[(0, 2)]
    asymmetric.table[slot] = (0, 4)
    with pytest.raises(RecoveryError, match="not symmetric"):
        asymmetric.verify_ring_axioms()
    # 1 + 2 = 4 in both orders, still unflagged: then (1 + 2) + 4 = 8 but
    # 1 + (2 + 4) = 7, through unflagged entries only
    assert ring.flag((0, 1), (0, 2)) is None
    broken = _copy(ring)
    broken.put((0, 1), (0, 2), (0, 4))
    with pytest.raises(RecoveryError,
                       match=r"associativity fails at \(\(0, 1\), \(0, 2\), \(0, 4\)\)"):
        broken.verify_ring_axioms()


def test_table_json_marks_flags():
    ring, *_ = _trunc_ring(n=1, V=2, degree=4, precision=6)
    out = ring.to_json()
    cells = [c for row in out["table"] for c in row["sums"]]
    assert any(c == "!cap" for c in cells)
    assert any(c.endswith("?") for c in cells)
    assert out["flags"] == ring.flag_counts()


def test_transport_preserves_structure_along_isomorphism():
    from fgl.rings import EisensteinExtension

    E1 = EisensteinExtension(5, 7, (-5, 0, 1))
    E2 = EisensteinExtension(5, 7, (-10, 0, 1))
    m1 = padic_truncation_of(E1, 2, 2)
    m2 = padic_truncation_of(E2, 2, 2)
    d2 = standard_datum(E2)
    law2 = build_fgl(d2, 2)
    r2 = build_addition_table(build_action(d2, law2, monoid=m2))
    (powers, iso), = list(unit_isomorphism_variants(m1, m2, count=1))
    iso.verify()
    moved = transport_structure(iso, r2)
    assert moved.monoid.key() == m1.key()
    classes = [p for p in m1.payloads() if p != BOTTOM]
    assert moved.elements == sorted(classes)
    assert len(moved.table) == len(classes) ** 2
    assert None not in moved.table  # every slot filled
    # multiplicativity of the matching means flags transport along entries
    assert sorted(moved.flag_counts().items()) == sorted(r2.flag_counts().items())


def test_transport_matches_per_pair_oracle_on_a_twist():
    from fgl.rings import EisensteinExtension

    E1 = EisensteinExtension(5, 7, (-5, 0, 1))
    E2 = EisensteinExtension(5, 7, (-10, 0, 1))
    m1 = padic_truncation_of(E1, 2, 2)
    m2 = padic_truncation_of(E2, 2, 2)
    d2 = standard_datum(E2)
    r2 = build_addition_table(build_action(d2, build_fgl(d2, 2), monoid=m2))
    variants = unit_isomorphism_variants(m1, m2, count=3)
    twisted = [iso for powers, iso in variants if powers != (1,)]
    assert twisted
    for iso in twisted:
        fwd = iso.table
        inv = {b: a for a, b in fwd.items()}
        inv[CAPPED], inv[ADJOINED_ZERO] = CAPPED, ADJOINED_ZERO
        moved = transport_structure(iso, r2)
        for a in moved.elements:
            for b in moved.elements:
                assert moved.add(a, b) == inv[r2.add(fwd[a], fwd[b])]
                assert moved.flag(a, b) == r2.flag(fwd[a], fwd[b])


def test_variation_demo_shallow_depth():
    # at n = 2 the generator-matched twist transports addition perfectly;
    # mismatched twists disagree everywhere off the flags
    report = variation_demo(5, (-5, 0, 1), (-10, 0, 1), n=2, V=2)
    assert report.multiplication_identical
    assert report.carrier_size == 41
    by_twist = {v.twist: v for v in report.variants}
    assert by_twist[(1,)].disagreements == 0
    assert by_twist[(3,)].disagreements == 720
    assert by_twist[(7,)].disagreements == 720
    assert all(v.flag_mismatches == 0 for v in report.variants)
    assert not report.all_variants_disagree
