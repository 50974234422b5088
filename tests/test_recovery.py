import functools
import gc
import random
import re
import sys
import tracemalloc

from collections import Counter
from itertools import product

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl import laws, lubin_tate, recovery
from fgl.laws import (
    FglEndomorphism,
    FormalGroupLaw,
    LawError,
    MonoidAction,
    endomorphism_from_logarithm,
    from_logarithm,
    verify_action,
)
from fgl.lubin_tate import (
    LubinTateAction,
    LubinTateDatum,
    LubinTateError,
    build_action,
    build_fgl,
    multiplicative_datum,
    standard_datum,
)
from fgl.monoids import (
    BOTTOM,
    MonoidError,
    MonoidMorphism,
    PadicTruncationMonoid,
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
    entry_label,
    pair_flag,
    recover_sum,
    transport_structure,
    variation_demo,
)
from fgl.rings import EisensteinExtension, PadicIntegers, RationalField
from fgl.series import TruncatedSeries
from oracles import REFUSED, composed_row, exhaustive_table, tabulated
from test_monoids import _package_growth

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


def _perturbed(action, payload, degree, by=1):
    """The same action with by added to the degree-th coefficient of
    [payload]."""
    series = action.endo_for(payload).series
    bump = TruncatedSeries(series.ctx, series.variables, series.trunc_degree,
                           {(degree,): by})
    assignment = dict(action.assignment)
    assignment[payload] = FglEndomorphism(action.law, series + bump)
    return MonoidAction(action.monoid, action.law, assignment)


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
    swapped = MonoidAction(action.monoid, action.law, assignment)
    with pytest.raises(RecoveryError, match=r"differs from \[0:4\] at degree 1"):
        recover_sum(swapped, (0, 2), (0, 2))


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_table_build_catches_a_perturbed_endomorphism(degree):
    action = _perturbed(_trunc_ring()[1], (0, 2), degree)
    with pytest.raises(RecoveryError):
        exhaustive_table(action)
    with pytest.raises(RecoveryError, match=REFUSED):
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


def _planted(ring, c, entry):
    """ring with its row entry 1 + c replaced by entry."""
    return RecoveredRing(ring.monoid, ring.provenance, {**ring.row, c: entry},
                         ring.other)


def test_ring_axiom_check_catches_planted_faults():
    ring, *_ = _trunc_ring(n=2, V=2)
    ring.verify_ring_axioms()
    # 1 + 2 = 3 planted as 4: a + 2a reads a*Z[2] one way round and
    # (2a)*Z[1/2] the other, and only the second is a + 2a
    assert ring.row[(0, 2)] == (0, 3)
    with pytest.raises(RecoveryError, match="not symmetric"):
        _planted(ring, (0, 2), (0, 4)).verify_ring_axioms()
    # 1 + 5 = 6 planted as 11, still unflagged: a pair (a, b) with v(b) =
    # v(a) + 1 is read one way round only, so the table stays symmetric, and
    # associativity catches it
    assert ring.row[(1, 1)] == (0, 6)
    with pytest.raises(RecoveryError,
                       match=r"associativity fails at \(\(0, 1\), \(0, 1\), \(1, 1\)\)"):
        _planted(ring, (1, 1), (0, 11)).verify_ring_axioms()


def _cubic_axioms(ring):
    """The ring axioms by a walk of every pair and every triple: the
    reference for verify_ring_axioms' counts and first failure."""
    els = ring.elements
    checked = {"commutativity": 0, "associativity": 0, "distributivity": 0}
    skipped = {"associativity": 0, "distributivity": 0}
    unflagged = {}
    for a, b in product(els, repeat=2):
        e = ring.add(a, b)
        if e != ring.add(b, a):
            raise RecoveryError(f"table not symmetric at ({a}, {b})")
        checked["commutativity"] += 1
        if pair_flag(a, b, e) is None:
            unflagged[(a, b)] = e
    for a in els:
        for b in els:
            ab = unflagged.get((a, b))
            if ab is None:
                skipped["associativity"] += len(els)
                continue
            for c in els:
                bc = unflagged.get((b, c))
                left = unflagged.get((ab, c))
                right = unflagged.get((a, bc))  # (a, None) is absent
                if left is None or right is None:
                    skipped["associativity"] += 1
                    continue
                if left != right:
                    raise RecoveryError(
                        f"associativity fails at ({a}, {b}, {c})"
                    )
                checked["associativity"] += 1
    for m in els:
        for a in els:
            ma = ring.monoid.mul(m, a)
            if ma == BOTTOM:
                skipped["distributivity"] += len(els)
                continue
            for b in els:
                s = unflagged.get((a, b))
                ms = BOTTOM if s is None else ring.monoid.mul(m, s)
                # (ma, BOTTOM) is absent: BOTTOM is not an element
                other = unflagged.get((ma, ring.monoid.mul(m, b)))
                if ms == BOTTOM or other is None:
                    skipped["distributivity"] += 1
                    continue
                if ms != other:
                    raise RecoveryError(
                        f"distributivity fails at m={m}, ({a}, {b})"
                    )
                checked["distributivity"] += 1
    return {"checked": checked, "skipped": skipped}


def _axioms_outcome(check, ring):
    """check(ring)'s report, or the message of the RecoveryError it raises."""
    try:
        return check(ring)
    except RecoveryError as exc:
        return str(exc)


def _twisted_ring():
    native, r2 = _demo_rings("t2-5-t2-10")
    variants = unit_isomorphism_variants(native.monoid, r2.monoid, count=3)
    iso = next(iso for iso in variants if iso.twist != (1,))
    return transport_structure(iso, r2)


@pytest.mark.parametrize("build", [
    *(functools.partial(lambda name: build_addition_table(_carrier_action(name)), name)
      for name in ("criterion-4", "t2-5-n2-V2", "cli-n1-V2", "p3-n2-V2")),
    _twisted_ring,
], ids=["criterion-4", "t2-5-n2-V2", "cli-n1-V2", "p3-n2-V2", "transported"])
def test_ring_axioms_match_the_cubic_walk(build):
    ring = build()
    report = ring.verify_ring_axioms()
    assert report == _cubic_axioms(ring)
    assert report["checked"]["commutativity"] == len(ring.elements) ** 2


def _other_planted(ring, pair, entry):
    """ring with other() answering entry at pair, and as before elsewhere."""
    def other(a, b):
        return entry if (a, b) == pair else ring.other(a, b)

    return RecoveredRing(ring.monoid, ring.provenance, ring.row, other)


def test_ring_axioms_match_the_cubic_walk_on_planted_faults():
    # 40 rings with 1-3 row entries replaced by other units, and 40 with
    # one flagged pair's sum replaced: the same report or the same message
    ring = build_addition_table(_carrier_action("criterion-4"))
    rng = random.Random(16)
    flagged = sorted(ring.flagged_pairs())
    planted = []
    for _ in range(40):
        row = dict(ring.row)
        for c in rng.sample(ring.elements, rng.randint(1, 3)):
            row[c] = rng.choice([u for u in ring.units if u != ring.row[c]])
        planted.append(RecoveredRing(ring.monoid, ring.provenance, row, ring.other))
    for _ in range(40):
        a, b = pair = rng.choice(flagged)
        wrong = [e for e in (*ring.elements, CAPPED) if e != ring.other(a, b)]
        planted.append(_other_planted(ring, pair, rng.choice(wrong)))
    outcomes = Counter()
    for mutant in planted:
        got = _axioms_outcome(RecoveredRing.verify_ring_axioms, mutant)
        assert got == _axioms_outcome(_cubic_axioms, mutant)
        outcomes[got.split(" at ")[0] if isinstance(got, str) else "report"] += 1
    assert outcomes["table not symmetric"] > 40
    assert outcomes["associativity fails"] > 0


def test_ring_axioms_on_the_criterion_5_carrier():
    # the counts of the cubic walk, which takes about a minute here
    ring = build_addition_table(_carrier_action("criterion-5-t2-5"))
    assert ring.verify_ring_axioms() == {
        "checked": {"commutativity": 90000, "associativity": 21375000,
                    "distributivity": 12500000},
        "skipped": {"associativity": 5625000, "distributivity": 14500000},
    }


def test_an_unflagged_sum_on_a_flagged_pair_fails_the_ring_axioms():
    # 1 + (-1) reads a flagged row entry; an other() that answers a class
    # for it, both ways round, keeps the table symmetric, and is the one
    # way distributivity can fail
    ring = build_addition_table(_carrier_action("criterion-4"))
    minus_one = ring.monoid.class_of(ring.monoid.ctx.normalize(-1))
    one = ring.monoid.identity_payload()
    assert ring.flag(one, minus_one) == "precision"  # 1 + 24 = 25

    def other(a, b):
        return one if {a, b} == {one, minus_one} else ring.other(a, b)

    mutant = RecoveredRing(ring.monoid, ring.provenance, ring.row, other)
    with pytest.raises(RecoveryError,
                       match=r"distributivity fails at \(\(0, 1\), \(0, 24\)\)"):
        mutant.verify_ring_axioms()


def test_a_flagged_row_entry_above_valuation_0_fails_the_ring_axioms():
    # 1 + 5 is a unit; a row that flags it has pairs (a, 5a) whose sums
    # are unflagged, and (a, 5a) is a pair only while 5a is a class
    ring = build_addition_table(_carrier_action("criterion-4"))
    mutant = _planted(ring, (1, 1), CAPPED)
    assert len(list(mutant.flagged_pairs())) == len(list(ring.flagged_pairs())) + 40
    with pytest.raises(RecoveryError, match=r"distributivity fails at \(\(0, 1\), \(1, 1\)\)"):
        mutant.verify_ring_axioms()


def test_compare_refuses_an_asymmetric_row():
    # 1 + c for a unit c on one side only: the class weights need c and
    # 1/c to be of one kind, so the compare raises rather than count
    native, r2 = _demo_rings("t2-5-t2-10")
    iso, = unit_isomorphism_variants(native.monoid, r2.monoid, count=1)
    transported = transport_structure(iso, r2)
    c = next(c for c in native.units[1:] if transported.flag(native.units[0], c) is None)
    wrong = next(u for u in native.units if u != transported.row[c])
    with pytest.raises(RecoveryError, match="not symmetric"):
        recovery._compare_tables(native, _planted(transported, c, wrong))
    with pytest.raises(RecoveryError, match="not symmetric"):
        recovery._compare_tables(_planted(native, c, wrong), transported)


def test_table_json_marks_flags():
    ring, *_ = _trunc_ring(n=1, V=2, degree=4, precision=6)
    out = ring.to_json()
    cells = [c for row in out["table"] for c in row["sums"]]
    assert any(c == "!cap" for c in cells)
    assert any(c.endswith("?") for c in cells)
    assert out["flags"] == ring.flag_counts()


def test_table_json_computes_each_cell_once(monkeypatch):
    # the README table: 64 cells, each summed once, and flag_counts sums
    # each flagged pair once more
    ring = build_addition_table(_carrier_action("cli-n1-V2"))
    flagged = len(list(ring.flagged_pairs()))
    calls = Counter()
    add = RecoveredRing.add

    def counted(self, a, b):
        calls["add"] += 1
        return add(self, a, b)

    monkeypatch.setattr(RecoveredRing, "add", counted)
    out = ring.to_json()
    assert sum(len(row["sums"]) for row in out["table"]) == 64
    assert calls["add"] == 64 + flagged == 72


def test_transport_preserves_structure_along_isomorphism():
    from fgl.rings import EisensteinExtension

    E1 = EisensteinExtension(5, 7, (-5, 0, 1))
    E2 = EisensteinExtension(5, 7, (-10, 0, 1))
    m1 = padic_truncation_of(E1, 2, 2)
    m2 = padic_truncation_of(E2, 2, 2)
    d2 = standard_datum(E2)
    law2 = build_fgl(d2, 2)
    r2 = build_addition_table(build_action(d2, law2, monoid=m2))
    iso, = unit_isomorphism_variants(m1, m2, count=1)
    moved = transport_structure(iso, r2)
    assert moved.monoid.key() == m1.key()
    classes = [p for p in m1.payloads() if p != BOTTOM]
    assert list(moved.elements) == sorted(classes)
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
    twisted = [iso for iso in variants if iso.twist != (1,)]
    assert twisted
    for iso in twisted:
        fwd = tabulated(iso).table
        inv = {b: a for a, b in fwd.items()}
        inv[CAPPED], inv[ADJOINED_ZERO] = CAPPED, ADJOINED_ZERO
        moved = transport_structure(iso, r2)
        for a in moved.elements:
            for b in moved.elements:
                assert moved.add(a, b) == inv[r2.add(fwd[a], fwd[b])]
                assert moved.flag(a, b) == r2.flag(fwd[a], fwd[b])


# (p, poly1, poly2, N) of the demo pairs at n=2, V=2; p3 has N = 4 >= q
DEMO_PAIRS = {
    "t2-5-t2-10": (5, (-5, 0, 1), (-10, 0, 1), 2),
    "p3": (3, (-3, 0, 1), (-6, 0, 1), 4),
}


@functools.lru_cache(maxsize=None)
def _demo_rings(name):
    p, poly1, poly2, N = DEMO_PAIRS[name]
    rings = []
    for poly in (poly1, poly2):
        E = EisensteinExtension(p, 7, poly)
        d = standard_datum(E)
        monoid = padic_truncation_of(E, 2, 2)
        rings.append(build_addition_table(build_action(d, build_fgl(d, N), monoid=monoid)))
    return tuple(rings)


def _walk_compare(native, transported):
    """The four counts and the samples of _compare_tables, from add and
    pair_flag on both rings at every upper-triangle pair."""
    m = native.monoid
    counts = Counter()
    sample = []
    els = native.elements
    for i, a in enumerate(els):
        for b in els[i:]:
            e1, e2 = native.add(a, b), transported.add(a, b)
            f1 = pair_flag(a, b, e1) is not None
            f2 = pair_flag(a, b, e2) is not None
            kind = ("both" if f1 and f2 else "flag" if f1 or f2
                    else "agree" if e1 == e2 else "entry")
            counts[kind] += 1
            if kind in ("flag", "entry") and len(sample) < 10:
                sample.append({"pair": [m.label(a), m.label(b)],
                               "native": entry_label(m, e1),
                               "transported": entry_label(m, e2),
                               "kind": kind})
    return counts, sample


@pytest.mark.parametrize("name", sorted(DEMO_PAIRS))
def test_per_class_compare_matches_a_walk_of_every_pair(name):
    native, r2 = _demo_rings(name)
    variants = unit_isomorphism_variants(native.monoid, r2.monoid, count=100)
    disagreeing = 0
    for iso in variants:
        got = recovery._compare_tables(native, transport_structure(iso, r2))
        counts, sample = _walk_compare(native, transport_structure(iso, r2))
        assert (got.agreements, got.disagreements, got.flag_mismatches,
                got.both_flagged) == (counts["agree"], counts["entry"],
                                      counts["flag"], counts["both"]), iso.twist
        assert got.sample == sample, iso.twist
        disagreeing += got.disagreements > 0
    assert len(variants) > disagreeing > 0


def test_transport_refuses_a_non_multiplicative_table():
    native, r2 = _demo_rings("t2-5-t2-10")
    iso, = unit_isomorphism_variants(native.monoid, r2.monoid, count=1)
    table = tabulated(iso)
    u, w = native.elements[1:3]  # two units, neither of them 1
    table.table[u], table.table[w] = table.table[w], table.table[u]
    with pytest.raises(MonoidError, match="multiplicativity fails"):
        transport_structure(table, r2)


def test_transport_refuses_a_multiplicative_map_that_is_not_a_bijection():
    # (v, u) -> (v, 1) on Z_5[sqrt 5], n = 1, V = 2, is multiplicative, so
    # verify passes it; inverting it is what must refuse it
    E = EisensteinExtension(5, 6, (-5, 0, 1))
    d = standard_datum(E)
    monoid = padic_truncation_of(E, 1, 2)
    ring = build_addition_table(build_action(d, build_fgl(d, 2), monoid=monoid))
    one = monoid.identity_payload()[1]
    collapse = MonoidMorphism(monoid, monoid, table={
        c: c if c == BOTTOM else (c[0], one) for c in monoid.payloads()})
    collapse.verify()
    with pytest.raises(MonoidError, match="not injective"):
        transport_structure(collapse, ring)


def test_transport_refuses_a_ring_off_the_isomorphisms_target():
    # the isomorphism runs to r2's carrier; the native ring is on its source
    native, r2 = _demo_rings("t2-5-t2-10")
    iso, = unit_isomorphism_variants(native.monoid, r2.monoid, count=1)
    with pytest.raises(RecoveryError, match="target does not carry the given table"):
        transport_structure(iso, native)
    with pytest.raises(RecoveryError, match="target does not carry the given table"):
        transport_structure(tabulated(iso), native)


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


def test_variation_demo_leaves_no_cycles():
    # every ring, monoid, action and table of a demo is freed by reference
    # counting alone, so the cycle collector finds none of the package's
    # objects
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        variation_demo(5, (-5, 0, 1), (-10, 0, 1), n=1, V=2)
        gc.collect()
        left = Counter(type(o).__name__ for o in gc.garbage
                       if type(o).__module__.startswith("fgl."))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == Counter()


# ---------------------------------------------------------------------------
# tables from one row


def _ring_of(spec):
    kind, p, k, *poly = spec
    return PadicIntegers(p, k) if kind == "Z" else EisensteinExtension(p, k, tuple(poly))


# (ring, preset, N, n, V) of the tables the suite builds; p3 has N = 4 >= q
CARRIERS = {
    "criterion-4": (("Z", 5, 8), "multiplicative", 4, 2, 3),
    "criterion-5-t2-5": (("E", 5, 9, -5, 0, 1), "standard", 2, 3, 3),
    "criterion-5-t2-10": (("E", 5, 9, -10, 0, 1), "standard", 2, 3, 3),
    "t2-5-n2-V2": (("E", 5, 7, -5, 0, 1), "standard", 2, 2, 2),
    "cli-n1-V2": (("Z", 5, 6), "standard", 4, 1, 2),
    "p3-n2-V2": (("Z", 3, 6), "standard", 4, 2, 2),
}


@functools.lru_cache(maxsize=None)
def _carrier_action(name):
    spec, preset, N, n, V = CARRIERS[name]
    ctx = _ring_of(spec)
    d = (multiplicative_datum if preset == "multiplicative" else standard_datum)(ctx, N)
    return build_action(d, build_fgl(d, N), monoid=padic_truncation_of(ctx, n, V))


def test_adding_one_reads_the_row_on_criterion_5_and_transported_rings():
    # _compare_tables takes the kind of (1, c) off row[c]: it is add(1, c)
    native, r2 = (build_addition_table(_carrier_action(name))
                  for name in ("criterion-5-t2-5", "criterion-5-t2-10"))
    rings = [native, r2] + [transport_structure(iso, r2) for iso in
                            unit_isomorphism_variants(native.monoid, r2.monoid, count=3)]
    for name in DEMO_PAIRS:
        n1, n2 = _demo_rings(name)
        rings += [transport_structure(iso, n2) for iso in
                  unit_isomorphism_variants(n1.monoid, n2.monoid, count=100)]
    for ring in rings:
        one = ring.monoid.identity_payload()
        assert [ring.add(one, c) for c in ring.elements] == [ring.row[c] for c in ring.elements]


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_row_table_matches_the_per_pair_oracle(name):
    action = _carrier_action(name)
    ring = build_addition_table(action)
    els = ring.elements
    for i, a in enumerate(els):
        for b in els[i:]:
            assert ring.add(a, b) == ring.add(b, a) == recover_sum(action, a, b), (a, b)


def _confirmations(monkeypatch):
    """The law confirmations that fgl.recovery makes from here on: one
    first_difference per confirmed sum."""
    calls = []
    real = recovery.first_difference
    monkeypatch.setattr(recovery, "first_difference",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("name, compositions", [
    # a build confirms the row entries only, at every N; a confirmation per
    # pair would make 1,770, 43,600 and 66
    ("criterion-4", 60),           # 60 row entries
    ("criterion-5-t2-5", 299),     # 299 row entries (one capped)
    ("p3-n2-V2", 11),              # N >= q: 12 row entries (one capped)
])
def test_two_variable_compositions_per_table(monkeypatch, name, compositions):
    # each confirmation is F([1], [c]), F's first argument folded once per
    # row, so the law itself is composed into nothing
    action = _carrier_action(name)
    composed = []
    composed_terms = TruncatedSeries.composed_terms

    def counted(self, assignments):
        if len(self.variables) == 2:
            composed.append(1)
        return composed_terms(self, assignments)

    monkeypatch.setattr(TruncatedSeries, "composed_terms", counted)
    confirmations = _confirmations(monkeypatch)
    build_addition_table(action)
    assert len(confirmations) == compositions
    assert composed == []


def _power_reads(monkeypatch):
    """(series, top, memo length) for every power table a one-variable
    series is read from from here on."""
    reads = []
    powers = TruncatedSeries.powers

    def recorded(self, top):
        table = powers(self, top)
        if len(self.variables) == 1:
            reads.append((self, top, len(self._powers)))
        return table

    monkeypatch.setattr(TruncatedSeries, "powers", recorded)
    return reads


def _no_memo_served(action):
    """No series that the action serves carries a power table."""
    return all(endo.series._powers is None for endo in action.assignment.values())


def test_a_table_at_degree_2_multiplies_no_series(monkeypatch):
    # F = x + y at N = 2 reads [1] and each [c] to degree 1, and [None, s]
    # is no product
    action = _carrier_action.__wrapped__("criterion-5-t2-5")
    products = []
    mul = TruncatedSeries.__mul__
    monkeypatch.setattr(TruncatedSeries, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    reads = _power_reads(monkeypatch)
    build_addition_table(action)
    assert products == []
    assert len(action.assignment) == 300
    assert len(reads) == 1 + 299  # [1] folded once; one entry capped
    for series, top, memo in reads:
        assert (top, memo) == (1, 2)
        assert series._powers[1].terms is series.terms
    assert _no_memo_served(action)


def test_a_row_reads_each_class_to_the_law_top_exponent(monkeypatch):
    # at p = 3, N = 4 the law is x + y + u*x^2*y + u*x*y^2, so no [c]^3 or
    # [c]^4 is built, for [1] or for any [c]
    action = _carrier_action.__wrapped__("p3-n2-V2")
    N = action.law.trunc_degree
    top = max(action.law.F.top_exponents(N))
    assert (N, top) == (4, 2)
    reads = _power_reads(monkeypatch)
    build_addition_table(action)
    assert len(reads) == 1 + 11  # [1] folded once; one entry capped
    assert all((t, memo) == (top, top + 1) for _, t, memo in reads)
    assert _no_memo_served(action)


@pytest.mark.parametrize("name", ["criterion-4", "criterion-5-t2-5", "p3-n2-V2"])
def test_a_certified_build_confirms_only_the_row(monkeypatch, name):
    action = _carrier_action(name)
    one = action.monoid.identity_payload()
    folds, calls = [], []
    real = recovery.sum_with

    def counted(act, p1):
        add = real(act, p1)
        folds.append(p1)
        return lambda p2: calls.append((p1, p2)) or add(p2)

    monkeypatch.setattr(recovery, "sum_with", counted)
    ring = build_addition_table(action)
    assert sum(ring.flag_counts().values()) > 0
    assert folds == [one]
    assert calls == [(one, c) for c in action.monoid.payloads() if c != BOTTOM]


def test_a_row_wraps_no_endomorphism_and_lifts_each_operand_once(monkeypatch):
    # [1], [c] and [candidate] are all read off the scalar table at the
    # lifts the sums already formed, so the row wraps no endomorphism and
    # lifts 1 once
    wrapped, lifts = [], []
    certified, canonical_lift = FglEndomorphism._certified, PadicTruncationMonoid.canonical_lift
    monkeypatch.setattr(FglEndomorphism, "_certified", classmethod(
        lambda cls, law, series: wrapped.append(series) or certified(law, series)))
    monkeypatch.setattr(PadicTruncationMonoid, "canonical_lift",
                        lambda self, p: lifts.append(p) or canonical_lift(self, p))
    action = _carrier_action.__wrapped__("criterion-5-t2-5")
    one = action.monoid.identity_payload()
    ring = build_addition_table(action)
    assert wrapped == []
    candidates = [z for z in ring.row.values() if z not in (ADJOINED_ZERO, CAPPED)]
    assert len(candidates) == 299
    assert Counter(lifts) == Counter([one, *ring.row, *candidates])


def test_a_planted_wrong_candidate_fails_its_confirmation(monkeypatch):
    # the native sum 1 + 2 = 3 read as the class 4: F([1], [2]) = 3*T + ...
    # differs from [4] in its linear term
    action = _carrier_action("criterion-4")
    monoid = action.monoid
    three, four = (monoid.class_of(monoid.ctx.normalize(k)) for k in (3, 4))
    class_of = PadicTruncationMonoid.class_of
    monkeypatch.setattr(PadicTruncationMonoid, "class_of",
                        lambda self, a: four if class_of(self, a) == three else class_of(self, a))
    with pytest.raises(RecoveryError,
                       match=re.escape("F([0:1], [0:2]) differs from [0:4] at degree 1")):
        build_addition_table(action)


@pytest.mark.parametrize("name", ["criterion-5-t2-5", "p3-n2-V2", "nonadditive-n2-V3-N4"])
def test_a_row_confirms_the_same_through_a_plain_action(name):
    # a LubinTateAction builds [c] from its table at the lift; a plain
    # action over the same endomorphisms reads its assignment
    action = ROW_CASES[name]()
    monoid = action.monoid
    plain = MonoidAction(monoid, action.law, dict(action.assignment))
    add_one = recovery.sum_with(plain, monoid.identity_payload())
    row = {c: add_one(c) for c in monoid.payloads() if c != BOTTOM}
    assert build_addition_table(action).row == row


def test_each_ring_checks_its_symmetry_once_across_the_demo(monkeypatch):
    # the native ring is compared with three transported rings; its row is
    # read-only, so its symmetry is checked once, and each transported
    # ring's once
    runs, rings = Counter(), []

    class Units(list):
        def __iter__(self):
            runs[id(self)] += 1
            return super().__iter__()

    init = RecoveredRing.__init__

    def counted(self, *args):
        init(self, *args)
        self.units = Units(self.units)
        rings.append(self)

    monkeypatch.setattr(RecoveredRing, "__init__", counted)
    variation_demo(5, (-5, 0, 1), (-10, 0, 1), n=2, V=2)
    native, other, *transported = rings
    assert [runs[id(r.units)] for r in rings] == [1, 0, 1, 1, 1]
    with pytest.raises(TypeError):
        native.row[native.elements[0]] = CAPPED


def test_an_adjoined_zero_operand_is_unflagged():
    # 0 + b = b exactly, on either side
    ring = build_addition_table(_carrier_action("criterion-4"))
    for c in ring.elements:
        assert ring.add(ADJOINED_ZERO, c) == ring.add(c, ADJOINED_ZERO) == c
        assert ring.flag(ADJOINED_ZERO, c) is ring.flag(c, ADJOINED_ZERO) is None


def test_adding_bottom_is_capped():
    action = _carrier_action("criterion-4")
    ring = build_addition_table(action)
    for c in ring.elements:
        assert ring.add(BOTTOM, c) == recover_sum(action, BOTTOM, c) == CAPPED
        assert ring.add(c, BOTTOM) == recover_sum(action, c, BOTTOM) == CAPPED
        assert ring.flag(BOTTOM, c) == ring.flag(c, BOTTOM) == "cap"


def _nonadditive_datum(ctx):
    # f = pi*T + pi*T^2 + T^5: a law with terms of degree 2 and more below
    # q = 5, where the standard datum's law is x + y
    pi = ctx.uniformizer().payload
    return LubinTateDatum(ctx, TruncatedSeries(ctx, ("T",), 5,
                                               {(1,): pi, (2,): pi, (5,): 1}))


SQRT5 = EisensteinExtension(5, 9, (-5, 0, 1))


@pytest.mark.parametrize("n, V, N, flags", [
    (2, 3, 2, {"cap": 120, "precision": 180}),
    (2, 3, 4, {"cap": 120, "precision": 180}),
    (3, 3, 2, {"cap": 3100, "precision": 4400}),
])
def test_the_recovered_table_does_not_depend_on_the_series(n, V, N, flags):
    # two series with the same pi give isomorphic formal groups, with [a]
    # carried to [a] (Lubin & Tate), so the recovered class addition is one
    monoid = padic_truncation_of(SQRT5, n, V)
    rings = []
    for d in (standard_datum(SQRT5), _nonadditive_datum(SQRT5)):
        law = build_fgl(d, N)
        action = build_action(d, law, monoid=monoid)
        rings.append((len(law.F.terms), build_addition_table(action)))
    (standard_terms, standard), (other_terms, other) = rings
    assert (standard_terms, other_terms > 2) == (2, True)
    assert standard.row == other.row
    assert standard.flag_counts() == other.flag_counts() == flags


@functools.lru_cache(maxsize=None)
def _nonadditive_action():
    d = _nonadditive_datum(SQRT5)
    return build_action(d, build_fgl(d, 4), monoid=padic_truncation_of(SQRT5, 2, 3))


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("by", ["unit", "pi"])
@pytest.mark.parametrize("label", ["0:2 + 2*pi", "2:4 + 4*pi"])
def test_a_perturbed_nonadditive_endomorphism_fails_the_table(label, by, degree):
    # 5^5 = pi^10 would vanish at precision 9; a unit or pi does not
    action = _nonadditive_action()
    target, = (p for p in action.assignment if action.monoid.label(p) == label)
    assert max(k for (k,) in action.endo_for(target).series.terms) == 4
    bump = SQRT5.int_payload(1) if by == "unit" else SQRT5.uniformizer().payload
    mutant = _perturbed(action, target, degree, by=bump)
    with pytest.raises(RecoveryError, match="action verification failed"):
        exhaustive_table(mutant)
    with pytest.raises(RecoveryError, match=REFUSED):
        build_addition_table(mutant)


def _swapped(name, u, w):
    action = _carrier_action(name)
    assignment = dict(action.assignment)
    assignment[u], assignment[w] = assignment[w], assignment[u]
    return MonoidAction(action.monoid, action.law, assignment)


def _relabelled():
    # [1:u] := [1:2u] for every u: the assignment moved along pi -> 2pi
    action = _carrier_action("cli-n1-V2")
    moved = {(1, u): action.assignment[(1, 2 * u % 5)] for u in range(1, 5)}
    return MonoidAction(action.monoid, action.law, {**action.assignment, **moved})


@pytest.mark.parametrize("mutant", [
    lambda: _swapped("criterion-4", (0, 2), (0, 3)),
    _relabelled,
    lambda: _swapped("p3-n2-V2", (0, 2), (0, 4)),
], ids=["criterion-4-swapped", "pi-to-2pi", "p3-swapped"])
def test_table_refuses_an_action_that_fails_verification(mutant):
    action = mutant()
    with pytest.raises(RecoveryError, match="action verification failed"):
        exhaustive_table(action)
    with pytest.raises(RecoveryError, match=REFUSED):
        build_addition_table(action)


def _plant_row_entry(monkeypatch, action, c0, entry):
    """recover_sum and the row answer entry for 1 + c0, and the law for
    every other sum."""
    one = action.monoid.identity_payload()
    real = recovery.sum_with

    def planted(action, p1):
        add = real(action, p1)
        return lambda p2: entry if (p1, p2) == (one, c0) else add(p2)

    monkeypatch.setattr(recovery, "sum_with", planted)


def test_a_planted_row_entry_fails_the_per_pair_table(monkeypatch):
    # the oracle confirms every pair by the law and compares it with the
    # ring's entry; 1 + 4 = 5 planted as 2 makes 2 + 8 read 2*2 = 4, where
    # the law confirms 2 + 8 = 10 = 1 mod 9.  build_addition_table reads
    # every entry off the row at N >= q too, so it trusts the planted row;
    # the axioms do not
    action = _carrier_action("p3-n2-V2")
    _plant_row_entry(monkeypatch, action, (0, 4), (0, 2))
    with pytest.raises(RecoveryError,
                       match=r"0:2 \+ 0:8 = 0:1 breaks a \+ b = a\*Z\[b/a\]"):
        exhaustive_table(action)
    ring = build_addition_table(action)
    assert ring.row[(0, 4)] == (0, 2)
    with pytest.raises(RecoveryError, match="not symmetric"):
        ring.verify_ring_axioms()


def test_a_planted_row_entry_fails_the_ring_axioms(monkeypatch):
    # a certified build reads every entry off the row (the lemma of
    # build_addition_table), so it trusts the planted row; the axioms do not
    action = _carrier_action("criterion-4")
    _plant_row_entry(monkeypatch, action, (0, 2), (0, 4))
    ring = build_addition_table(action)
    assert ring.row[(0, 2)] == (0, 4)
    with pytest.raises(RecoveryError, match="not symmetric"):
        ring.verify_ring_axioms()


@pytest.mark.parametrize("shift, caught", [(1, True), (2, False)])
def test_row_entries_are_confirmed_at_their_class_precision(shift, caught):
    # 1 + 2 = 3 has valuation 0, so F(T, [2]) is compared with [3] mod 5^n,
    # n = 2: a bump of 5^shift T^2 in [2] shows exactly when shift < 2
    action = _perturbed(_carrier_action("criterion-4"), (0, 2), 2, by=5**shift)
    one = action.monoid.identity_payload()
    if caught:
        with pytest.raises(RecoveryError, match=r"differs from \[0:3\] at degree 2"):
            recover_sum(action, one, (0, 2))
    else:
        assert recover_sum(action, one, (0, 2)) == (0, 3)


def test_quotient_inverts_class_multiplication():
    monoid = _carrier_action("criterion-4").monoid
    classes = [p for p in monoid.payloads() if p != BOTTOM]
    for a in classes:
        for c in classes:
            b = monoid.mul(a, c)
            if b != BOTTOM:
                assert monoid.quotient(b, a) == c
    with pytest.raises(MonoidError):
        monoid.quotient((0, 1), (1, 1))


def test_endomorphism_defect_is_computed_once_per_class(monkeypatch):
    # build_action proves the endomorphism law of every [a] it reduces from
    # the datum's own law, so a table composes no per-class defect at all;
    # an endomorphism built any other way computes its own, once
    E = EisensteinExtension(5, 7, (-5, 0, 1))
    d = standard_datum(E)
    law = build_fgl(d, 2)
    d.field(2)  # its self-checks are law checks of their own
    calls = []
    composed_terms = TruncatedSeries.composed_terms

    def counted(self, assignments):
        # h(F), one per endomorphism-law check: a one-variable series
        # composed into the two-variable law
        if len(self.variables) == 1 and all(len(t.variables) == 2
                                            for t in assignments.values()):
            calls.append(1)
        return composed_terms(self, assignments)

    monkeypatch.setattr(TruncatedSeries, "composed_terms", counted)
    action = build_action(d, law, monoid=padic_truncation_of(E, 2, 2))
    build_addition_table(action)
    assert len(action.assignment) == 40
    assert calls == []
    # a perturbed copy is a new instance, with a defect of its own
    series = action.assignment[action.monoid.class_of(E.normalize(2))].series
    bump = TruncatedSeries(E, ("T",), 2, {(2,): 1})
    perturbed = FglEndomorphism(law, series + bump)
    for _ in range(2):
        with pytest.raises(LawError, match="endomorphism law fails"):
            perturbed.verify()
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["criterion-4", "cli-n1-V2", "p3-n2-V2"])
def test_no_table_runs_verify_action(monkeypatch, name):
    # the lemma of build_addition_table covers verify_action's checks at
    # every N, N >= q (p3) included; the same endomorphisms outside a
    # LubinTateAction are refused, not verified
    assert not hasattr(recovery, "verify_action")
    seen = []
    real = laws.verify_action
    monkeypatch.setattr(laws, "verify_action",
                        lambda action: seen.append(action) or real(action))
    action = _carrier_action(name)
    build_addition_table(action)
    plain = MonoidAction(action.monoid, action.law, action.assignment)
    with pytest.raises(RecoveryError, match=REFUSED):
        build_addition_table(plain)
    assert seen == []


# ---------------------------------------------------------------------------
# the per-datum certificate against the per-pair oracle


def _flagged_pair_oracle(action):
    """The table with every flagged confirmation computed: the exhaustive
    check, the row, then recover_sum on each unordered flagged pair {a, a*c}
    once (from the smaller of c and 1/c, and when c = 1/c from its element
    a <= a*c), bar the row's own (1, c).  A failed confirmation raises."""
    monoid = action.monoid
    assert verify_action(action).ok
    one = monoid.identity_payload()
    row = {c: recover_sum(action, one, c) for c in monoid.payloads() if c != BOTTOM}
    ring = RecoveredRing(monoid, "recovered", row,
                         functools.partial(recovery._native_sum, monoid))
    for c in ring.units:
        inverse = monoid.quotient(one, c)
        if c > inverse or pair_flag(one, c, row[c]) is None:
            continue
        for a in ring.elements:
            b = monoid.mul(c, a)
            x, y = (a, b) if a <= b else (b, a)
            if x != one and (c != inverse or x == a):
                recover_sum(action, x, y)
    return ring


def _datum_action(ctx, datum, n, V, N):
    return build_action(datum, build_fgl(datum, N), monoid=padic_truncation_of(ctx, n, V))


ORACLE_CASES = {
    "criterion-4": lambda: _carrier_action("criterion-4"),
    "criterion-5-t2-5": lambda: _carrier_action("criterion-5-t2-5"),
    "criterion-5-t2-10": lambda: _carrier_action("criterion-5-t2-10"),
    "nonadditive-n2-V3-N4": lambda: _datum_action(SQRT5, _nonadditive_datum(SQRT5), 2, 3, 4),
    "nonadditive-n3-V3-N2": lambda: _datum_action(SQRT5, _nonadditive_datum(SQRT5), 3, 3, 2),
    "multiplicative-Z5-n3-V3-N3": lambda: _datum_action(
        PadicIntegers(5, 9), multiplicative_datum(PadicIntegers(5, 9), 3), 3, 3, 3),
    "p3-n2-V2": lambda: _carrier_action("p3-n2-V2"),  # N >= q
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_certified_table_matches_the_flagged_pair_oracle(name):
    action = ORACLE_CASES[name]()
    assert isinstance(action, LubinTateAction)
    ring = build_addition_table(action)
    oracle = _flagged_pair_oracle(action)
    assert ring.row == oracle.row
    assert ring.flag_counts() == oracle.flag_counts()
    assert oracle.flag_counts()["precision"] > 0


# the rows the fold is checked on: every carrier above, and the non-additive
# datum over Z_5[sqrt 5] at N = 2, 3 and 4, whose laws have terms below q
ROW_CASES = {
    **{name: functools.partial(_carrier_action, name) for name in CARRIERS},
    **{f"nonadditive-n2-V3-N{N}": functools.partial(
        _datum_action, SQRT5, _nonadditive_datum(SQRT5), 2, 3, N) for N in (2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_the_folded_row_matches_the_composed_row(name):
    action = ROW_CASES[name]()
    assert build_addition_table(action).row == composed_row(action)


@pytest.mark.parametrize("name", ["criterion-4", "criterion-5-t2-5", "p3-n2-V2",
                                  "nonadditive-n2-V3-N2", "nonadditive-n2-V3-N4"])
def test_a_perturbed_class_fails_the_folded_row(monkeypatch, name):
    # [c] is read as F's second argument at row entry c and as the target
    # of the entry whose sum is c; c is the first class past 1 that the row
    # reads as an argument first, and its T^N coefficient gains a unit
    action = ROW_CASES[name]()
    monoid, N = action.monoid, action.law.trunc_degree
    one = monoid.identity_payload()
    targets = set()
    for c in monoid.payloads():
        if c != one and c not in targets:
            break
        targets.add(recovery._native_sum(monoid, one, c))
    lift = monoid.canonical_lift(c)
    real = lubin_tate._reduced_series

    def perturbed(model, fld, table, a):
        series = real(model, fld, table, a)
        if a != lift:
            return series
        return series + TruncatedSeries(model.ctx, ("T",), N, {(N,): 1})

    monkeypatch.setattr(lubin_tate, "_reduced_series", perturbed)
    named = re.escape(f"F([{monoid.label(one)}], [{monoid.label(c)}]) differs from")
    with pytest.raises(RecoveryError, match=named):
        build_addition_table(action)
    with pytest.raises(RecoveryError, match=named):
        composed_row(action)


@pytest.mark.parametrize("name", ["p3-n2-V2", "nonadditive-n2-V3-N2",
                                  "nonadditive-n2-V3-N3", "nonadditive-n2-V3-N4"])
def test_a_served_class_is_in_normal_form(name):
    # [c] is built without TruncatedSeries' checks, from payloads that
    # from_field returns in normal form; the checks would change nothing
    action = ROW_CASES[name]()
    ctx, N = action.law.ctx, action.law.trunc_degree
    for c, endo in action.assignment.items():
        terms = endo.series.terms
        assert TruncatedSeries(ctx, ("T",), N, terms).terms == terms, c


def _valid_datum(data):
    ctx = data.draw(st.sampled_from([PadicIntegers(5, 6), SQRT5]))
    q, pi = ctx.p, ctx.uniformizer().payload
    # a unit at T^q, every other coefficient past T divisible by pi
    top = data.draw(st.integers(q, q + 2))
    terms = {(1,): pi, (q,): data.draw(st.integers(1, 4 * q).filter(lambda c: c % q))}
    for k in range(2, top + 1):
        if k != q:
            terms[(k,)] = ctx.mul(pi, ctx.normalize(data.draw(st.integers(-30, 30))))
    return ctx, LubinTateDatum(ctx, TruncatedSeries(ctx, ("T",), top, terms))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_valid_datum_below_q_is_certified(data):
    ctx, d = _valid_datum(data)
    action = _datum_action(ctx, d, 1, 2, data.draw(st.integers(1, ctx.p - 1)))
    assert build_addition_table(action).row == _flagged_pair_oracle(action).row


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_valid_datum_from_q_on_is_certified(data):
    # the T^q row is integer-valued but not integral coefficient by
    # coefficient; build_action certifies it in the Newton basis
    ctx, d = _valid_datum(data)
    action = _datum_action(ctx, d, 1, 2, data.draw(st.integers(ctx.p, ctx.p + 1)))
    assert build_addition_table(action).row == exhaustive_table(action).row


def _scalar_table_entries():
    fld = _nonadditive_datum(SQRT5).field(4)
    table = laws.scalar_table(fld.log, fld.exp)
    return [(k, i) for k, row in sorted(table.items()) for i in range(len(row))]


@pytest.mark.parametrize("k, i", _scalar_table_entries())
def test_a_scalar_table_entry_plus_one_fails_the_certificate(monkeypatch, k, i):
    law = build_fgl(_nonadditive_datum(SQRT5), 4)
    field = SQRT5.fraction_field()
    real = lubin_tate.scalar_table

    def bumped(log, exp):
        table = {r: list(row) for r, row in real(log, exp).items()}
        j, m = table[k][i]
        table[k][i] = (j, field.add(m, field.int_payload(1)))
        return table

    monkeypatch.setattr(lubin_tate, "scalar_table", bumped)
    with pytest.raises(LubinTateError, match=r"scalar table not exp\(a\*log\)"):
        build_action(_nonadditive_datum(SQRT5), law, monoid=padic_truncation_of(SQRT5, 1, 2))


def _noncanonical(series):
    """The linear series [u] = lift(u)*T moved to (lift(u) + pi^2)*T: still
    in class u at n = 2, and still an endomorphism of x + y."""
    ctx = series.ctx
    pi = ctx.uniformizer()
    return TruncatedSeries(ctx, ("T",), series.trunc_degree,
                           {(1,): ctx.el(series.terms[(1,)]) + pi * pi})


def test_an_endomorphism_replaced_after_the_build_loses_the_certificate():
    E = EisensteinExtension(5, 7, (-5, 0, 1))
    d = standard_datum(E)
    action = _datum_action(E, d, 2, 2, 2)
    u = action.monoid.class_of(E.normalize(2))
    built = action.endo_for(u)
    replaced = FglEndomorphism(action.law, _noncanonical(built.series))
    with pytest.raises(TypeError):
        action.assignment[u] = replaced
    assert action.endo_for(u) == built
    # an action carrying the replacement is a new one, which no table takes
    mutant = MonoidAction(action.monoid, action.law, {**action.assignment, u: replaced})
    assert verify_action(mutant).ok
    with pytest.raises(RecoveryError, match="differs from"):
        exhaustive_table(mutant)
    with pytest.raises(RecoveryError, match=REFUSED):
        build_addition_table(mutant)


def test_build_action_refuses_a_law_other_than_the_datums(monkeypatch):
    Z5 = PadicIntegers(5, 8)
    d = standard_datum(Z5, 4)  # [a] = a*T below degree q = 5
    verified = []
    real = FglEndomorphism.verify
    monkeypatch.setattr(FglEndomorphism, "verify",
                        lambda self: verified.append(self) or real(self))
    monoid = padic_truncation_of(Z5, 1, 2)
    with pytest.raises(LubinTateError, match="not the datum's own"):
        build_action(d, FormalGroupLaw.multiplicative(Z5, 4), monoid=monoid)
    own = build_action(d, build_fgl(d, 4), monoid=monoid)
    assert isinstance(own, LubinTateAction) and verified == []


def test_noncanonical_lifts_pass_verification_and_fail_the_table():
    # every non-identity unit class u of t^2 - 5 at n = 2, V = 2, N = 2,
    # with [u] moved off its canonical lift by pi^2: the action passes the
    # exhaustive check, and the oracle's table is refused, not read off its
    # lifts; build_addition_table refuses the action outright
    E = EisensteinExtension(5, 7, (-5, 0, 1))
    d = standard_datum(E)
    base = _datum_action(E, d, 2, 2, 2)
    one = base.monoid.identity_payload()
    units = [u for u in base.assignment if u[0] == 0 and u != one]
    assert len(units) == 19
    for u in units:
        endo = FglEndomorphism(base.law, _noncanonical(base.assignment[u].series))
        action = MonoidAction(base.monoid, base.law, {**base.assignment, u: endo})
        assert verify_action(action).ok, u
        with pytest.raises(RecoveryError, match="differs from"):
            exhaustive_table(action)
        with pytest.raises(RecoveryError, match=REFUSED):
            build_addition_table(action)


# (p, poly1, poly2, N, n, V): the n = 3, V = 3 carrier of criterion 5, and
# the p = 3 demo at N = 4 >= q
SHARED_CARRIERS = {
    "criterion-5-n3-V3": (5, (-5, 0, 1), (-10, 0, 1), 2, 3, 3),
    "p3-n2-V2": (3, (-3, 0, 1), (-6, 0, 1), 4, 2, 2),
}


@pytest.mark.parametrize("name", sorted(SHARED_CARRIERS))
def test_every_class_held_is_the_monoids_own_object(name):
    # the monoid is the one store of its classes: rings, rows, isomorphisms
    # and assignments hold its objects, not equal copies
    p, poly1, poly2, N, n, V = SHARED_CARRIERS[name]
    actions = []
    for poly in (poly1, poly2):
        E = EisensteinExtension(p, n + V + 3, poly)
        d = standard_datum(E)
        actions.append(build_action(d, build_fgl(d, N), monoid=padic_truncation_of(E, n, V)))
    rings = [build_addition_table(action) for action in actions]
    m1, m2 = (action.monoid for action in actions)
    assert m1.payloads() is m1.payloads() and m2.payloads() is m2.payloads()
    own = [{id(c) for c in m.payloads()} for m in (m1, m2)]

    def held(m, classes):
        return all(id(c) in own[m is m2] for c in classes)

    isos = unit_isomorphism_variants(m1, m2, count=3)
    rings += [transport_structure(iso, rings[1]) for iso in isos]
    for ring in rings:
        entries = [z for z in ring.row.values() if z not in (ADJOINED_ZERO, CAPPED)]
        assert entries
        assert held(ring.monoid, ring.elements)
        assert held(ring.monoid, ring.row) and held(ring.monoid, entries)
    for iso in isos:
        images = [iso.apply(c) for c in m1.payloads()]
        assert held(m2, images) and held(m1, map(iso.inverse().apply, images))
    for action in actions:
        assert held(action.monoid, action.assignment)


def test_a_second_ring_holds_its_row_and_no_class_list():
    # rings over one monoid share its class tuple and its unit classes, so
    # a second ring on criterion 5's carrier grows by its row alone: what
    # is left is smaller than one tuple of the 100 units
    action = _carrier_action("criterion-5-t2-5")
    M = action.monoid
    build_addition_table(action)  # the monoid's class tuples and unit group, built first
    held = []
    growth = _package_growth(lambda: held.append(build_addition_table(action)))
    ring, = held
    assert ring.elements is M.classes and ring.units is M.unit_classes
    rest = sum(stat.size_diff for stat in growth) - sys.getsizeof(dict.fromkeys(M.classes))
    assert 0 <= rest < sys.getsizeof(M.unit_classes)


def test_the_compare_peaks_below_one_entry_per_class():
    # n = 4, V = 3, 1,500 classes: each class's kind is decided when asked,
    # so the compare's peak, its counts and samples, stays below one dict
    # with an entry per class
    rings = []
    for poly in ((-5, 0, 1), (-10, 0, 1)):
        d = standard_datum(EisensteinExtension(5, 10, poly))
        monoid = padic_truncation_of(d.ctx, 4, 3)
        rings.append(build_addition_table(build_action(d, build_fgl(d, 2), monoid=monoid)))
    native, r2 = rings
    iso, = unit_isomorphism_variants(native.monoid, r2.monoid, count=1)
    transported = transport_structure(iso, r2)
    peaks, outcomes = [], []

    def run():
        # each ring's symmetry check, which runs once per ring, comes first:
        # the tuples it frees stay in the interpreter's free lists, which
        # tracemalloc counts as live
        native.check_symmetry()
        transported.check_symmetry()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        outcomes.append(recovery._compare_tables(native, transported))
        peaks.append(tracemalloc.get_traced_memory()[1] - base)

    _package_growth(run)
    outcome, = outcomes
    assert outcome.disagreements and len(outcome.sample) == 10
    assert peaks[0] < sys.getsizeof(dict.fromkeys(native.elements))


def test_the_error_paths_keep_their_types():
    Z5 = PadicIntegers(5, 8)
    d = standard_datum(Z5, 4)
    law = build_fgl(d, 4)
    carrier = build_action(d, law, monoid=padic_truncation_of(Z5, 2, 2))
    window = build_action(d, law, monoid=RingSubsetMonoid(Z5, [1, 2, 3]))
    one, minus_one = carrier.monoid.identity_payload(), Z5.normalize(-1)
    assert recover_sum(window, 1, 2) == 3
    assert BOTTOM not in carrier.assignment and (0, 5) not in carrier.assignment
    assert len(carrier.assignment) == 40 and list(window.assignment) == [1, 2, 3]
    with pytest.raises(LawError, match="no endomorphism assigned"):
        carrier.endo_for(BOTTOM)
    with pytest.raises(NoMatch):
        recover_sum(window, 2, 3)
    # an unlisted operand whose sum is listed, or a class whose unit is not a
    # unit, is refused when its endomorphism is read
    for action, p1, p2 in [(window, minus_one, 2), (window, 2, minus_one),
                           (carrier, one, (0, 5)), (carrier, (0, 5), one)]:
        with pytest.raises(LawError, match="no endomorphism assigned"):
            recover_sum(action, p1, p2)
