"""The every-pair addition table, an oracle for
fgl.recovery.build_addition_table.

build_addition_table takes only an action that
fgl.lubin_tate.build_action built, and reads every entry off one row.
exhaustive_table takes any action on a truncation carrier and trusts
nothing: verify_action first, then the row, then every pair without 1
through recover_sum, compared with the ring's entry.  recover_sum is looked
up on fgl.recovery at call time, so a test that plants one there reaches
it.
"""
from functools import partial

from fgl import recovery
from fgl.laws import verify_action
from fgl.monoids import BOTTOM, PadicTruncationMonoid
from fgl.recovery import RecoveredRing, RecoveryError, entry_label

# what build_addition_table says to an action that build_action did not build
REFUSED = "full tables need an action built by build_action"


def exhaustive_table(action) -> RecoveredRing:
    """The table of action, every pair confirmed by the law; raises
    RecoveryError where verify_action fails, a confirmation fails, or a
    pair's sum breaks a + b = a*Z[b/a]."""
    monoid = action.monoid
    if not isinstance(monoid, PadicTruncationMonoid):
        raise RecoveryError("full tables need a finite truncation carrier")
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
