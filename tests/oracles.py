"""Oracles: slower, independent builds of what the package computes.

exhaustive_table is the every-pair addition table, an oracle for
fgl.recovery.build_addition_table.  build_addition_table takes only an
action that fgl.lubin_tate.build_action built, and reads every entry off
one row.  exhaustive_table takes any action on a truncation carrier and
trusts nothing: verify_action first, then the row, then every pair without
1 through recover_sum, compared with the ring's entry.  recover_sum is
looked up on fgl.recovery at call time, so a test that plants one there
reaches it.

composed_row is the row of a truncation action with each entry confirmed
by composing [1] and [c] into F, one F.composed_terms per class, an oracle
for the row that fgl.recovery.sum_with confirms with F's first argument
folded once.

census_unit_group is the order census and one trial span per candidate
generator, an oracle for fgl.monoids.UnitGroup.

tabulated is a generator-matched isomorphism written out class by class
through its apply, a table MonoidMorphism whose verify walks every pair, an
oracle for TwistIsomorphism.verify.
"""
from collections import Counter
from functools import partial

from fgl import recovery
from fgl.laws import MonoidAction, verify_action
from fgl.monoids import BOTTOM, MonoidError, MonoidMorphism, PadicTruncationMonoid
from fgl.recovery import (ADJOINED_ZERO, CAPPED, RecoveredRing, RecoveryError,
                          entry_label)
from fgl.rings import _vp
from fgl.series import first_difference

# what build_addition_table says to an action that build_action did not build
REFUSED = "full tables need an action built by build_action"


def exhaustive_table(action) -> RecoveredRing:
    """The table of action, every pair confirmed by the law; raises
    RecoveryError where verify_action fails, a confirmation fails, or a
    pair's sum breaks a + b = a*Z[b/a]."""
    monoid = action.monoid
    if not isinstance(monoid, PadicTruncationMonoid):
        raise RecoveryError("full tables need a finite truncation carrier")
    # the same endomorphisms, each built once: a pair reads the power
    # tables that earlier pairs memoized on them
    action = MonoidAction(monoid, action.law, action.assignment)
    rep = verify_action(action)
    if not rep.ok:
        raise RecoveryError(f"action verification failed: {rep.violations[0].to_json()}")
    one = monoid.identity_payload()
    row = {c: recovery.recover_sum(action, one, c)
           for c in monoid.payloads() if c != BOTTOM}
    ring = RecoveredRing(monoid, "recovered", row, partial(recovery._native_sum, monoid))
    for i, a in enumerate(ring.elements):
        for b in ring.elements[i:]:
            if one in (a, b):
                continue  # the row's own pairs
            entry = recovery.recover_sum(action, a, b)
            if entry != ring.add(a, b):
                raise RecoveryError(f"{monoid.label(a)} + {monoid.label(b)} = "
                                    f"{entry_label(monoid, entry)} breaks a + b = a*Z[b/a]")
    return ring


def composed_row(action) -> dict:
    """{c: 1 + c} for every class c of a truncation action, each candidate
    the native sum of the canonical lifts and confirmed by F.composed_terms
    of [1] and [c] against [candidate] at its class precision; raises
    RecoveryError on a failed confirmation, as recover_sum does."""
    monoid, F = action.monoid, action.law.F
    one, label = monoid.identity_payload(), monoid.label
    first = action.endo_for(one).series
    row = {}
    for c in monoid.payloads():
        if c == BOTTOM:
            continue
        candidate = row[c] = recovery._native_sum(monoid, one, c)
        if candidate == CAPPED:
            continue
        target, precisions = {}, None
        if candidate != ADJOINED_ZERO:
            target = action.endo_for(candidate).series.terms
            precisions = monoid.class_precisions(candidate[0], F.trunc_degree)
        composed = F.composed_terms(dict(zip(F.variables,
                                             (first, action.endo_for(c).series))))
        bad = first_difference(first.ctx, composed, target, precisions)
        if bad:
            raise RecoveryError(f"F([{label(one)}], [{label(c)}]) differs from "
                                f"[{entry_label(monoid, candidate)}] at degree "
                                f"{sum(bad[0])}")
    return row


def census_unit_group(monoid: PadicTruncationMonoid):
    """(factors, generators, dlog) of the unit group of monoid, the way
    UnitGroup reads them, from element orders found by repeated
    multiplication.

    Factors come from the census of those orders.  For a prime ell,
    #{u : v_ell(ord u) <= j} / #{u : v_ell(ord u) <= j - 1} is ell to the
    number of cyclic ell-factors of order at least ell^j; the primes fuse
    slot-wise, largest ell-factor into the largest invariant factor.  Then,
    per slot, largest factor first, the generator is the smallest unit of
    exact order d whose span with the earlier picks stays a direct product,
    tried by enumerating that span."""
    ctx = monoid.unit_ctx
    one = ctx.int_payload(1)
    units = monoid.unit_payloads()
    orders = {}
    for x in units:
        y, k = x, 1
        while y != one:
            y, k = ctx.mul(y, x), k + 1
        orders[x] = k
    size = len(units)
    slots: list = []  # invariant factors, largest first
    for ell in range(2, size + 1):
        if size % ell or any(ell % q == 0 for q in range(2, ell)):
            continue  # ell is not a prime factor of |U|
        census = Counter(_vp(o, ell) for o in orders.values())
        below = census[0]
        for j in range(1, _vp(size, ell) + 1):
            upto = below + census[j]
            for slot in range(_vp(upto // below, ell)):
                if slot == len(slots):
                    slots.append(1)
                slots[slot] *= ell
            below = upto

    def span(basis):
        out = {one: ()}
        for g, d in basis:
            grown, power = {}, one
            for e in range(d):
                for u, exps in out.items():
                    key = ctx.mul(u, power)
                    if key in grown:
                        raise MonoidError("span enumeration collided")
                    grown[key] = exps + (e,)
                power = ctx.mul(power, g)
            out = grown
        return out

    chosen: list = []
    for d in slots:
        for x in sorted((u for u in units if orders[u] == d), key=ctx.sort_key):
            try:
                span(chosen + [(x, d)])
            except MonoidError:
                continue
            chosen.append((x, d))
            break
        else:
            raise MonoidError(f"no generator of order {d} completes the basis")
    chosen.reverse()
    dlog = span(chosen)
    if len(dlog) != size:
        raise MonoidError("generators do not span the unit group")
    return [d for _, d in chosen], [g for g, _ in chosen], dlog


def tabulated(iso) -> MonoidMorphism:
    """iso as a table morphism: every source class sent through iso.apply."""
    return MonoidMorphism(iso.source, iso.target,
                          table={c: iso.apply(c) for c in iso.source.payloads()})
