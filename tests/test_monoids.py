import gc
import itertools
import math
import os
import random
import tracemalloc
import weakref
from collections import Counter

import pytest

import fgl.monoids
from fgl.monoids import (
    BOTTOM,
    FinitelyPresentedMonoid,
    FreeCommutativeMonoid,
    MonoidError,
    MonoidMorphism,
    PadicTruncationMonoid,
    RingSubsetMonoid,
    StructureMismatch,
    UnitGroup,
    build_monoid_isomorphism,
    monoid_from_descriptor,
    padic_factorial_valuation,
    padic_truncation_of,
    unit_isomorphism_variants,
)
from fgl.rings import EisensteinExtension, PadicIntegers, RationalField
from oracles import census_unit_group, unbounded_unit_group


def test_free_monoid_words():
    M = FreeCommutativeMonoid(("m", "n"))
    m = M.generator("m")
    n = M.generator("n")
    assert M.mul(M.mul(m, n), m) == (2, 1)
    assert M.mul(m, n) == M.mul(n, m)
    assert M.identity_payload() == (0, 0)
    assert M.label((2, 1)) == "m^2*n"
    with pytest.raises(MonoidError):
        M.check_payload((1,))


def test_presented_monoid_from_relations():
    # g^2 = 1, so the monoid is the order-2 group
    C2 = FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))])
    assert sorted(C2.payloads()) == [(0,), (1,)]
    g = C2.check_payload((1,))
    assert C2.mul(g, g) == C2.identity_payload()
    assert C2.mul(C2.mul(g, g), g) == g


def test_presented_monoid_with_absorber():
    # z^2 = z and gz = z: z absorbs the C2 part
    M = FinitelyPresentedMonoid.from_relations(
        ("g", "z"),
        [((2, 0), (0, 0)), ((0, 2), (0, 1)), ((1, 1), (0, 1))],
    )
    assert len(M.payloads()) == 3
    z = M.check_payload((0, 1))
    g = M.check_payload((1, 0))
    assert M.mul(z, z) == z
    assert M.mul(g, z) == z


def test_presented_monoid_rejects_bad_table():
    with pytest.raises(MonoidError):
        FinitelyPresentedMonoid(
            ("g",),
            [(0,), (1,)],
            {
                ((0,), (0,)): (0,),
                ((0,), (1,)): (1,),
                ((1,), (0,)): (0,),  # breaks commutativity with the entry above
                ((1,), (1,)): (0,),
            },
        )


def test_truncation_monoid_count_and_classes():
    Z5 = PadicIntegers(5, 6)
    M = padic_truncation_of(Z5, 2, 3)
    # (q-1) q^(n-1) V + 1 elements
    assert len(M.payloads()) == 4 * 5 * 3 + 1
    cls = M.class_of(Z5.normalize(50))
    assert cls == (2, 2)  # 50 = 5^2 * 2
    assert M.class_of(Z5.normalize(125)) == ("bot",)
    assert M.check_payload((0, 1)) == M.identity_payload()


def test_truncation_monoid_multiplication_matches_ring():
    Z5 = PadicIntegers(5, 6)
    M = padic_truncation_of(Z5, 2, 3)
    for a in (3, 7, 10, 85):
        for b in (2, 15, 110):
            pa = M.class_of(Z5.normalize(a))
            pb = M.class_of(Z5.normalize(b))
            prod = M.class_of(Z5.normalize(a * b))
            assert M.mul(pa, pb) == prod


def test_canonical_lift_round_trips():
    E = EisensteinExtension(5, 7, (-5, 0, 1))
    M = padic_truncation_of(E, 2, 3)
    for payload in M.payloads():
        if payload == ("bot",):
            continue
        lift = M.canonical_lift(payload)
        assert M.class_of(lift) == payload


def test_class_precisions_profile():
    Z5 = PadicIntegers(5, 6)
    monoid = padic_truncation_of(Z5, 2, 3)
    per_degree = monoid.class_precisions(1, 25)
    # v + n = 3, eaten by v_5(k!): v_5(5!) = 1, v_5(24!) = 4, v_5(25!) = 6
    assert [per_degree[k] for k in (1, 4, 5, 24, 25)] == [3, 3, 2, 0, 0]
    assert padic_factorial_valuation(25, 5) == 6
    assert monoid.class_precisions(1, 25) is per_degree


def test_truncation_monoid_needs_digits_for_its_deepest_class():
    # a class v:u with v = V - 1 lifts to u * pi^v, so its unit mod m^n
    # needs n + V - 1 digits; at k = 3 the class 3:1 would lift to 5^3 = 0
    Z5 = PadicIntegers(5, 3)
    with pytest.raises(MonoidError, match="need at least 4"):
        PadicTruncationMonoid(Z5, 1, 4)
    M = padic_truncation_of(Z5, 1, 3)
    assert not Z5.is_zero(M.canonical_lift((2, 4)))
    E = EisensteinExtension(5, 4, (-5, 0, 1))
    with pytest.raises(MonoidError, match="need at least 5"):
        PadicTruncationMonoid(E, 2, 4)
    M = padic_truncation_of(E, 2, 3)
    deepest = (2, E.residue_ring(2).normalize((1, 1)))
    assert M.class_of(M.canonical_lift(deepest)) == deepest


def test_ring_subset_monoid_window():
    Z5 = PadicIntegers(5, 4)
    W = RingSubsetMonoid(Z5, [Z5.normalize(2), Z5.normalize(4)])
    assert Z5.normalize(1) in W.payloads()
    a = W.check_payload(Z5.normalize(2))
    assert W.mul(a, a) == Z5.normalize(4)
    # products may leave the window; they are ring elements, not members
    out = W.mul(W.check_payload(Z5.normalize(4)), a)
    assert out == Z5.normalize(8)
    assert out not in W.payloads()


def test_payloads_are_one_read_only_view_of_the_monoids_objects():
    Z5 = PadicIntegers(5, 4)
    W = RingSubsetMonoid(Z5, [2, 4, 2, 1])
    M = padic_truncation_of(Z5, 2, 2)
    for monoid in (W, M):
        view = monoid.payloads()
        assert view is monoid.payloads()
        with pytest.raises(TypeError):
            view[0]
    # first occurrences in order, 1 where it was listed
    assert list(W.payloads()) == [2, 4, 1] and W.canonical_lift(4) == 4
    assert M.unit_payloads() is M.unit_payloads()
    assert list(M.payloads()) == [(v, u) for v in range(2) for u in M.unit_payloads()] + [BOTTOM]
    # classes found anew, as sums are, are the registry's objects
    own = {id(c) for c in M.payloads()}
    assert all(id(M.class_of(M.canonical_lift(c))) in own for c in M.payloads() if c != BOTTOM)


def test_a_monoid_is_freed_without_the_cycle_collector():
    # nothing a monoid builds refers back to it, so its registry and unit
    # group go with its last reference, not at a later collection
    gc.disable()
    try:
        M = padic_truncation_of(EisensteinExtension(5, 9, (-5, 0, 1)), 3, 3)
        gens = M.generators()
        assert M.mul(gens[1], gens[0]) in M.payloads()
        freed = weakref.ref(M)
        del M
        assert freed() is None
    finally:
        gc.enable()


def test_unit_group_invariant_factors():
    Z5 = PadicIntegers(5, 6)
    # (Z/25)^* is cyclic of order 20
    M = padic_truncation_of(Z5, 2, 1)
    G = M.unit_group
    assert G.factors == [20]
    assert M.unit_group is G  # computed once per monoid
    E = EisensteinExtension(5, 6, (-5, 0, 1))
    # ramified quadratic: (O/pi^2)^* has order 20 as well, cyclic
    G2 = padic_truncation_of(E, 2, 1).unit_group
    assert G2.size == 20
    assert G2.factors == [20]


def _order(x, mul, one) -> int:
    """The order of x, by repeated multiplication."""
    y, k = x, 1
    while y != one:
        y, k = mul(y, x), k + 1
    return k


def _order_census(elements, mul, one) -> Counter:
    """Element orders counted by repeated multiplication."""
    return Counter(_order(x, mul, one) for x in elements)


@pytest.mark.parametrize("ctx, n, V, factors", [
    (PadicIntegers(2, 4), 3, 2, [2, 2]),
    (PadicIntegers(2, 5), 4, 2, [2, 4]),
    (EisensteinExtension(3, 5, (3, 0, 0, 1)), 4, 2, [3, 18]),
    (EisensteinExtension(5, 9, (-5, 0, 1)), 3, 3, [5, 20]),
    (EisensteinExtension(5, 9, (-10, 0, 1)), 3, 3, [5, 20]),
])
def test_unit_group_non_cyclic_factors_match_order_census(ctx, n, V, factors):
    M = padic_truncation_of(ctx, n, V)
    G = M.unit_group
    assert G.factors == factors
    # the multiset of element orders of the group is that of + Z/d_i
    group = _order_census(M.unit_payloads(), G.ctx.mul, G.ctx.int_payload(1))
    model = Counter(
        math.lcm(*(d // math.gcd(e, d) for e, d in zip(exps, factors)))
        for exps in itertools.product(*(range(d) for d in factors))
    )
    assert group == model
    assert [_order(g, G.ctx.mul, G.ctx.int_payload(1)) for g in G.generators] == factors


# (p, Eisenstein polynomial constant first or None for Z_p, n): the wild
# rings, where p divides the ramification index, among them
CENSUS_CARRIERS = [
    *((2, None, n) for n in range(1, 6)),
    *((3, None, n) for n in range(1, 5)),
    *((5, None, n) for n in range(1, 4)),
    (7, None, 2),
    *((2, (2, 0, 1), n) for n in range(2, 7)),     # t^2 + 2
    *((2, (2, 2, 1), n) for n in range(3, 7)),     # t^2 + 2t + 2
    *((3, (3, 0, 0, 1), n) for n in range(2, 6)),  # t^3 + 3
    (5, (-5, 0, 1), 3),
    (5, (-10, 0, 1), 3),
]


@pytest.mark.parametrize("p, poly, n", CENSUS_CARRIERS)
def test_unit_group_matches_the_census_oracle(p, poly, n):
    ctx = PadicIntegers(p, 8) if poly is None else EisensteinExtension(p, 8, poly)
    monoid = padic_truncation_of(ctx, n, 1)
    G = monoid.unit_group
    assert (G.factors, G.generators, G.dlog) == census_unit_group(monoid)
    for u, exps in G.dlog.items():
        assert G.unit(exps) == G.unit([e + 2 * d for e, d in zip(exps, G.factors)]) == u


# (p, Eisenstein polynomial constant first or None for Z_p, n)
SCAN_CARRIERS = [
    *((p, None, n) for p in (2, 3, 5, 7) for n in range(1, 5)),
    *((p, poly, n) for p, poly in ((2, (2, 0, 1)), (2, (2, 2, 1)), (3, (3, 0, 0, 1)),
                                   (5, (-5, 0, 1)), (5, (-10, 0, 1)))
      for n in range(1, 5)),
]


@pytest.mark.parametrize("p, poly, n", SCAN_CARRIERS)
def test_unit_group_scan_bound_skips_no_pick(p, poly, n):
    # the scan tests no unit of order above |G|/|S|, which the span test
    # would refuse; the unbounded scan picks the same generators
    ctx = PadicIntegers(p, 8) if poly is None else EisensteinExtension(p, 8, poly)
    monoid = padic_truncation_of(ctx, n, 1)
    G = monoid.unit_group
    factors, generators, dlog = unbounded_unit_group(monoid)
    assert (G.factors, G.generators, list(G.dlog.items())) == (factors, generators,
                                                               list(dlog.items()))


def test_unit_group_build_makes_a_bounded_number_of_products(monkeypatch):
    # one walk per cyclic subgroup met, not a power chain per unit
    monoid = padic_truncation_of(EisensteinExtension(5, 8, (-5, 0, 1)), 5, 1)
    ctx = monoid.unit_ctx
    calls, inner = [0], ctx.mul

    def counted(a, b):
        calls[0] += 1
        return inner(a, b)

    monkeypatch.setattr(ctx, "mul", counted)
    G = UnitGroup(monoid)
    assert G.size == 2500
    assert calls[0] <= 12 * G.size


@pytest.mark.parametrize("ctx, n, V", [
    (PadicIntegers(5, 6), 2, 3),
    (EisensteinExtension(5, 7, (-5, 0, 1)), 2, 4),
    (EisensteinExtension(3, 8, (3, 0, 0, 1)), 3, 4),
], ids=["Z5", "e2", "e3"])
def test_canonical_lift_is_the_unit_times_a_power_of_pi(ctx, n, V):
    monoid = padic_truncation_of(ctx, n, V)
    for c in monoid.payloads():
        if c != BOTTOM:
            v, u = c
            assert monoid.canonical_lift(c) == (ctx.el(u) * ctx.uniformizer() ** v).payload
    with pytest.raises(MonoidError, match="BOTTOM has no canonical lift"):
        monoid.canonical_lift(BOTTOM)


class _Mod:
    """Z/m with a chosen list of "units", which need not be a group."""

    def __init__(self, m, listed):
        self.m, self.listed = m, listed

    def int_payload(self, k):
        return k % self.m

    def mul(self, a, b):
        return a * b % self.m

    @property
    def unit_ctx(self):
        return self

    def unit_payloads(self):
        return list(self.listed)


@pytest.mark.parametrize("m, listed", [
    (8, [1, 3, 5]),  # |U| = 3 reads 3 as of order 3, and 3^2 = 1 collides
    (3, [1, 0, 2]),  # 0 is listed as a unit
])
def test_unit_group_refuses_a_list_that_is_not_a_group(m, listed):
    with pytest.raises(MonoidError, match="collided"):
        UnitGroup(_Mod(m, listed))


def test_morphism_gen_images_and_verify():
    M = FreeCommutativeMonoid(("m",))
    C2 = FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))])
    phi = MonoidMorphism(M, C2, gen_images={"m": C2.check_payload((1,))})
    phi.verify()
    assert phi.apply((2,)) == C2.identity_payload()
    assert phi.apply((3,)) == C2.check_payload((1,))


def test_morphism_rejects_payloads_outside_source_and_target():
    C2 = FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))])
    keep = MonoidMorphism(C2, C2, table={(0,): (0,), (1,): (1,)})
    with pytest.raises(MonoidError):
        keep.apply((2,))
    Z5 = PadicIntegers(5, 4)
    W = RingSubsetMonoid(Z5, [Z5.normalize(2)])
    keep_window = MonoidMorphism(W, W, table={p: p for p in W.payloads()})
    with pytest.raises(MonoidError, match="not in the source"):
        keep_window.apply(Z5.normalize(3))
    M = FreeCommutativeMonoid(("m",))
    phi = MonoidMorphism(M, C2, gen_images={"m": (1,)})
    with pytest.raises(MonoidError):
        phi.apply((1, 1))
    with pytest.raises(MonoidError, match="need a free source"):
        MonoidMorphism(C2, C2, gen_images={"g": (1,)})
    # a generator image outside the target fails verify, not a later apply
    with pytest.raises(MonoidError, match="not a canonical element"):
        MonoidMorphism(M, C2, gen_images={"m": (5,)}).verify()


def test_morphism_table_verify_catches_non_multiplicative():
    C2 = FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))])
    moves_one = MonoidMorphism(C2, C2, table={(0,): (1,), (1,): (1,)})
    with pytest.raises(MonoidError, match="identity is not preserved"):
        moves_one.verify()
    # fixes 1 but sends g^2 to g, so f(g) f(g) = g^2 != f(g^2)
    C4 = FinitelyPresentedMonoid.from_relations(("g",), [((4,), (0,))])
    bad = MonoidMorphism(
        C4, C4, table={(0,): (0,), (1,): (1,), (2,): (1,), (3,): (3,)}
    )
    with pytest.raises(MonoidError, match=r"multiplicativity fails at \(g, g\)"):
        bad.verify()


def test_unit_isomorphism_variants_are_isomorphisms():
    E1 = EisensteinExtension(5, 7, (-5, 0, 1))
    E2 = EisensteinExtension(5, 7, (-10, 0, 1))
    M1 = padic_truncation_of(E1, 2, 2)
    M2 = padic_truncation_of(E2, 2, 2)
    seen = []
    for iso in unit_isomorphism_variants(M1, M2, count=3):
        iso.verify()
        seen.append(iso.twist)
        back = iso.inverse()
        for payload in M1.payloads():
            assert back.apply(iso.apply(payload)) == payload
    assert len(seen) == len(set(seen)) == 3


def _t2_5(n, V):
    return padic_truncation_of(EisensteinExtension(5, 7, (-5, 0, 1)), n, V)


@pytest.mark.parametrize("m2, powers, message", [
    ((2, 3), None, r"valuation caps differ: 2 vs 3"),
    ((3, 2), None, r"unit groups differ: \[20\] vs \[5, 20\]"),
    ((2, 2), (1, 1), "one twist exponent per invariant factor"),
    ((2, 2), (4,), "twist 4 is not invertible mod 20"),
], ids=["caps", "unit-groups", "twist-length", "twist-not-coprime"])
def test_isomorphism_refuses_structures_it_cannot_match(m2, powers, message):
    with pytest.raises(StructureMismatch, match=message):
        build_monoid_isomorphism(_t2_5(2, 2), _t2_5(*m2), generator_powers=powers)


def test_isomorphism_applies_to_source_classes_only():
    M = _t2_5(2, 2)
    iso = build_monoid_isomorphism(M, M, generator_powers=(3,))
    unit = M.unit_payloads()[1]
    # an unnormalized unit is normalized; its image is the registry's object
    raw = tuple(c + 25 for c in unit)
    assert iso.apply((1, raw)) is iso.apply((1, unit))
    assert M.payloads().mapping[iso.apply((1, unit))] is iso.apply((1, unit))
    with pytest.raises(MonoidError, match="maps to no class of the target"):
        iso.apply((2, unit))
    with pytest.raises(MonoidError, match="not a unit"):
        iso.apply((0, M.unit_ctx.uniformizer().payload))


def test_isomorphisms_keep_nothing_per_class():
    # three variants held on criterion 5's 301 classes, verified and
    # inverted: each is an object and its twist, two small blocks whatever
    # the carrier, where a table would hold an entry per class
    M1, M2 = (padic_truncation_of(EisensteinExtension(5, 9, poly), 3, 3)
              for poly in ((-5, 0, 1), (-10, 0, 1)))
    for M in (M1, M2):
        M.payloads(), M.unit_group  # built first, as build_monoid_isomorphism builds them
    held = []

    def run():
        held.extend(unit_isomorphism_variants(M1, M2, count=3))
        for iso in held:
            iso.verify()
            iso.inverse().verify()

    growth = _package_growth(run)
    assert len(held) == 3
    assert sum(stat.count_diff for stat in growth) <= 2 * len(held)
    assert sum(stat.size_diff for stat in growth) <= 2 * 64 * len(held)


@pytest.mark.parametrize("count", [0, -1])
def test_unit_isomorphism_variants_need_a_positive_count(count):
    E1 = EisensteinExtension(5, 7, (-5, 0, 1))
    E2 = EisensteinExtension(5, 7, (-10, 0, 1))
    with pytest.raises(MonoidError, match="at least one variant"):
        unit_isomorphism_variants(padic_truncation_of(E1, 1, 1),
                                  padic_truncation_of(E2, 1, 1), count=count)


def test_monoid_descriptor_round_trips():
    Z5 = PadicIntegers(5, 6)
    monoids = [
        FreeCommutativeMonoid(("m", "n")),
        FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))]),
        padic_truncation_of(Z5, 2, 2),
        RingSubsetMonoid(Z5, [Z5.normalize(2)]),
    ]
    for M in monoids:
        again = monoid_from_descriptor(M.descriptor())
        assert again.key() == M.key()


def test_truncation_monoid_rejects_rationals():
    with pytest.raises(MonoidError):
        padic_truncation_of(RationalField(), 2, 2)


# Every unit ring (O/m^n)^* behind a carrier that the tests build, by its
# ring and n; the product table depends on nothing else.
_UNIT_RINGS = [
    (PadicIntegers(5, 3), 1),
    (PadicIntegers(5, 3), 2),
    (PadicIntegers(2, 4), 3),  # factors [2, 2]: not cyclic
    (PadicIntegers(2, 5), 4),
    (EisensteinExtension(3, 5, (3, 0, 0, 1)), 4),
] + [
    (EisensteinExtension(5, n + 1, poly), n)
    for poly in ((-5, 0, 1), (-10, 0, 1)) for n in (1, 2, 3)
]


@pytest.mark.parametrize("ctx, n", _UNIT_RINGS)
def test_unit_product_table_matches_ring_product(ctx, n):
    M = padic_truncation_of(ctx, n, 2)
    units = M.unit_payloads()
    for u in units:
        for w in units:
            assert M.mul((0, u), (1, w)) == (1, M.unit_ctx.mul(u, w))
    assert M.mul((1, units[0]), (1, units[0])) == BOTTOM
    assert M.mul(BOTTOM, (0, units[0])) == BOTTOM


@pytest.mark.parametrize("ctx, n", _UNIT_RINGS)
def test_unit_logs_hold_the_monoids_own_units(ctx, n):
    # dlog is keyed on unit_payloads()'s objects, in their order, and
    # unit_of and quotient hand those objects back, not equal products
    M = padic_truncation_of(ctx, n, 2)
    G, units = M.unit_group, M.unit_payloads()
    assert len(G.dlog) == len(units)
    assert all(key is u for key, u in zip(G.dlog, units))
    assert all(G.unit_of[G.dlog[u]] is u for u in units)
    one = M.identity_payload()
    assert all(M.quotient((1, u), one)[1] is u for u in units)


@pytest.mark.parametrize("ctx", [PadicIntegers(5, 3), EisensteinExtension(5, 3, (-5, 0, 1))],
                         ids=["Z5", "t2-5"])
def test_mul_is_the_residue_ring_product(ctx):
    # every pair of classes, BOTTOM included: the class of the product of
    # the canonical lifts, BOTTOM where either is BOTTOM or it lies deeper
    M = padic_truncation_of(ctx, 2, 2)
    for a, b in itertools.product(M.payloads(), repeat=2):
        if BOTTOM in (a, b):
            want = BOTTOM
        else:
            want = M.class_of(ctx.mul(M.canonical_lift(a), M.canonical_lift(b)))
        assert M.mul(a, b) == want, (a, b)


def _package_growth(run) -> list:
    """The lines of the package's files whose allocations grow across
    run(), after a collection; the interpreter's own are not counted."""
    package = [tracemalloc.Filter(True, os.path.join(os.path.dirname(fgl.monoids.__file__), "*"))]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(package)
        run()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(package)
    finally:
        tracemalloc.stop()
    return [stat for stat in after.compare_to(before, "lineno") if stat.size_diff > 0]


def test_mul_keeps_nothing_per_call():
    # a product is the unit ring's, so 2,000 calls leave behind nothing
    # that the package's files allocated
    E = EisensteinExtension(5, 9, (-5, 0, 1))  # criterion 5
    M = padic_truncation_of(E, 3, 3)
    M.unit_group  # built first, as every carrier with a generator builds it
    classes = list(M.payloads())
    rng = random.Random(7)
    calls = [(rng.choice(classes), rng.choice(classes)) for _ in range(2000)]
    assert _package_growth(lambda: [M.mul(a, b) for a, b in calls]) == []


def _nonzero_residues(ctx, depth) -> list:
    """Every nonzero residue mod m^depth, as a payload of ctx."""
    R = ctx.residue_ring(depth)
    if isinstance(R, PadicIntegers):
        return list(range(1, R.modulus))
    return [t for t in itertools.product(*map(range, R.coef_mod)) if any(t)]


def _random_payload(ctx, rng):
    if isinstance(ctx, PadicIntegers):
        return rng.randrange(ctx.modulus)
    return tuple(rng.randrange(m) for m in ctx.coef_mod)


@pytest.mark.parametrize("ctx, n, V", [
    (EisensteinExtension(5, 9, (-5, 0, 1)), 3, 3),  # criterion 5
    (EisensteinExtension(5, 9, (-10, 0, 1)), 3, 3),
    (PadicIntegers(5, 8), 2, 3),
])
def test_class_of_reads_the_residue_and_returns_the_registrys_object(ctx, n, V):
    # a class is fixed by its element mod m^(v + n), and v < V
    rng = random.Random(7)
    M = padic_truncation_of(ctx, n, V)
    registry = M.payloads().mapping
    depth = n + V - 1
    shift = (ctx.uniformizer() ** depth).payload
    for r in _nonzero_residues(ctx, depth):
        lift = ctx.add(r, ctx.mul(shift, _random_payload(ctx, rng)))
        cls = M.class_of(ctx.normalize(r))
        assert M.class_of(ctx.normalize(lift)) is cls
        assert registry[cls] is cls
    for c in M.payloads():
        if c != BOTTOM:
            assert M.class_of(M.canonical_lift(c)) is c


def test_class_of_keeps_nothing_per_call():
    # each class is computed, so 2,000 calls leave behind nothing that the
    # package's files allocated
    E = EisensteinExtension(5, 9, (-5, 0, 1))  # criterion 5
    M = padic_truncation_of(E, 3, 3)
    M.payloads()  # built first, as every action builds it
    rng = random.Random(11)
    calls = []
    while len(calls) < 2000:
        a = E.normalize(_random_payload(E, rng))
        if not E.is_zero(a):
            calls.append(a)
    assert _package_growth(lambda: [M.class_of(a) for a in calls]) == []


def test_class_of_refuses_zero_and_sends_deep_elements_to_bottom():
    E = EisensteinExtension(5, 9, (-5, 0, 1))
    M = padic_truncation_of(E, 3, 3)
    # pi^5 is nonzero with residue 0 mod m^5: BOTTOM, but not the zero
    assert M.class_of((E.uniformizer() ** 5).payload) == BOTTOM
    with pytest.raises(MonoidError, match="zero has no truncation class"):
        M.class_of(E.zero().payload)


def test_generator_images_are_canonicalized_before_multiplying():
    # 27 is the unit 2 mod 25; the product table holds canonical units only
    M = padic_truncation_of(PadicIntegers(5, 6), 2, 3)
    phi = MonoidMorphism(FreeCommutativeMonoid(("m",)), M, gen_images={"m": (0, 27)})
    phi.verify()
    assert phi.apply((2,)) == (0, 4)
    assert phi.apply((3,)) == M.mul((0, 4), (0, 2))
