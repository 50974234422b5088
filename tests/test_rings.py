import gc
import math
import random
import weakref

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.rings import (
    ContextMismatch,
    EisensteinExtension,
    IntegerRing,
    NonIntegralElement,
    NotAUnit,
    PadicIntegers,
    PolynomialQuotient,
    RationalField,
    RingError,
    context_from_descriptor,
    eisenstein_check,
)


def test_integer_ring_basics():
    Z = IntegerRing()
    a = Z.el(6)
    b = Z.el(-4)
    assert (a + b).payload == 2
    assert (a * b).payload == -24
    assert (-a).payload == -6
    assert (a - a).is_zero()
    assert Z.el(-1).inverse().payload == -1
    with pytest.raises(NotAUnit):
        Z.el(2).inverse()


def test_rational_field():
    Q = RationalField()
    a = Q.el(Fraction(2, 3))
    assert (a.inverse() * a).payload == 1
    assert (Q.from_int(5) + a).payload == Fraction(17, 3)
    with pytest.raises(NotAUnit):
        Q.zero().inverse()


def test_element_context_mixing_rejected():
    with pytest.raises(ContextMismatch):
        IntegerRing().el(1) + RationalField().el(1)


def test_padic_matches_integer_arithmetic():
    # residues mod 5^8 behave exactly like ints reduced mod 5^8
    Z5 = PadicIntegers(5, 8)
    mod = 5**8
    rng = random.Random(20210)
    for _ in range(300):
        x = rng.randrange(-mod, mod)
        y = rng.randrange(-mod, mod)
        assert Z5.normalize(x + y) == Z5.add(Z5.normalize(x), Z5.normalize(y))
        assert Z5.normalize(x * y) == Z5.mul(Z5.normalize(x), Z5.normalize(y))
    for _ in range(100):
        u = rng.randrange(1, mod)
        if u % 5 == 0:
            continue
        inv = Z5.invert(Z5.normalize(u))
        assert (u * inv) % mod == 1


def test_padic_valuation_and_fractions():
    Z5 = PadicIntegers(5, 8)
    assert Z5.valuation(Z5.normalize(50)) == 2
    assert Z5.valuation(Z5.normalize(3)) == 0
    assert Z5.el(Fraction(1, 2)) * 2 == Z5.el(1)
    with pytest.raises(NotAUnit):
        Z5.normalize(Fraction(1, 5))
    with pytest.raises(NotAUnit):
        Z5.invert(Z5.normalize(10))


def test_padic_rejects_bad_p():
    with pytest.raises(RingError):
        PadicIntegers(6, 4)


def test_eisenstein_check_names_condition():
    eisenstein_check(5, (-5, 0, 1))
    with pytest.raises(RingError, match="monic"):
        eisenstein_check(5, (-5, 0, 2))
    with pytest.raises(RingError, match="divisible"):
        eisenstein_check(5, (-5, 3, 1))
    with pytest.raises(RingError, match="valuation > 1"):
        eisenstein_check(5, (-25, 0, 1))


def test_eisenstein_uniformizer_squares_to_p():
    E = EisensteinExtension(5, 8, (-5, 0, 1))
    pi = E.uniformizer()
    assert pi * pi == E.el(5)
    assert pi.valuation() == 1
    assert E.el(5).valuation() == 2
    assert E.el(3).valuation() == 0


def test_eisenstein_unit_inversion():
    E = EisensteinExtension(5, 9, (-10, 0, 1))
    rng = random.Random(7)
    for _ in range(40):
        a = E.normalize((rng.randrange(1, 5**4), rng.randrange(0, 5**4)))
        if E.valuation(a) != 0:
            continue
        assert E.mul(a, E.invert(a)) == E.int_payload(1)
    with pytest.raises(NotAUnit):
        E.invert(E.uniformizer().payload)


def test_eisenstein_shift_down_inverts_pi_multiplication():
    E = EisensteinExtension(5, 8, (-5, 0, 1))
    pi = E.uniformizer().payload
    a = E.normalize((7, 3))
    assert E.valuation(E.mul(a, pi)) == E.valuation(a) + 1
    # shifting down loses one pi of precision, so compare mod pi^7
    down = E.shift_down(E.mul(a, pi))
    O7 = E.residue_ring(7)
    assert O7.normalize(down) == O7.normalize(a)


def test_polynomial_quotient_plain_arithmetic():
    R = PolynomialQuotient(IntegerRing(), ("x", "y"))
    x = R.var("x")
    y = R.var("y")
    left = (x + y) * (x - y)
    assert left == x * x - y * y
    assert (x * y) ** 2 == x * x * y * y


def test_polynomial_quotient_ideal_reduction():
    R = PolynomialQuotient(IntegerRing(), ("g",))
    g = R.normalize({(1,): 1})
    # impose g^2 = 1
    R2 = R.with_ideal([R.add(R.mul(g, g), R.neg(R.int_payload(1)))])
    gg = R2.mul(R2.normalize({(1,): 1}), R2.normalize({(1,): 1}))
    assert gg == R2.int_payload(1)


def test_polynomial_quotient_nonunit_lead_rejected():
    R = PolynomialQuotient(IntegerRing(), ("x",))
    two_x = R.normalize({(1,): 2})
    with pytest.raises(RingError):
        R.with_ideal([two_x])


def test_descriptor_round_trips():
    for ctx in (
        IntegerRing(),
        RationalField(),
        PadicIntegers(7, 5),
        EisensteinExtension(3, 6, (-3, 0, 0, 1)),
    ):
        again = context_from_descriptor(ctx.descriptor())
        assert again.key() == ctx.key()
        value = ctx.normalize(11)
        assert again.value_from_json(ctx.value_to_json(value)) == value


# ---------------------------------------------------------------------------
# p-adic rings: residue rings, units and the fraction field


def _padic_rings(k):
    return [PadicIntegers(5, k), EisensteinExtension(5, k, (-5, 0, 1))]


@st.composite
def padic_elements(draw):
    """A ring of either kind and a payload x + y*pi times pi^j in it."""
    ctx = draw(st.sampled_from(_padic_rings(draw(st.integers(1, 8)))))
    x, y = draw(st.integers(0, 5**8)), draw(st.integers(0, 5**8))
    j = draw(st.integers(0, ctx.k))
    a = (ctx.from_int(x) + ctx.from_int(y) * ctx.uniformizer()) * ctx.uniformizer() ** j
    return ctx, a.payload


ORACLE = settings(max_examples=60, deadline=None)


@ORACLE
@given(padic_elements())
def test_lift_then_reduce_is_identity(case):
    ctx, a = case
    assert ctx.from_field(ctx.lift(a)) == a


@ORACLE
@given(padic_elements())
def test_field_valuation_of_a_lift_is_its_valuation(case):
    ctx, a = case
    if ctx.is_zero(a):
        assert ctx.field_valuation(ctx.lift(a)) == math.inf
    else:
        assert ctx.field_valuation(ctx.lift(a)) == ctx.valuation(a)


def _over_p(ctx, q):
    field = ctx.fraction_field()
    return field.mul(q, field.invert(field.int_payload(5)))


@ORACLE
@given(padic_elements())
def test_dividing_by_p_leaves_the_ring_below_valuation_e(case):
    ctx, a = case
    if ctx.is_zero(a):
        return
    q = _over_p(ctx, ctx.lift(a))
    assert ctx.field_valuation(q) == ctx.valuation(a) - ctx.e
    if ctx.valuation(a) >= ctx.e:
        ctx.from_field(q)
    else:
        with pytest.raises(NonIntegralElement):
            ctx.from_field(q)


@pytest.mark.parametrize("k", [1, 4])
def test_one_over_p_is_not_integral(k):
    for ctx in _padic_rings(k):
        with pytest.raises(NonIntegralElement):
            ctx.from_field(_over_p(ctx, ctx.lift(ctx.int_payload(1))))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_residue_ring_units(n):
    for ctx in _padic_rings(6):
        R = ctx.residue_ring(n)
        units = R.units()
        assert len(units) == len(set(units)) == 4 * 5 ** (n - 1)
        assert units == sorted(units)
        for u in units:
            assert R.valuation(u) == 0
            assert R.mul(u, R.invert(u)) == R.int_payload(1)


# ---------------------------------------------------------------------------
# e = 2 closed forms against the generic code


QUADRATIC_OPS = ("mul", "add", "neg", "is_zero", "valuation", "normalize")


def _generic(ctx, op):
    """The generic method, which every e other than 2 runs."""
    return getattr(EisensteinExtension, op).__get__(ctx)


# coefficients of every valuation, zero included, past the moduli and negative
_coefficient = st.builds(lambda u, j: u * 5**j, st.integers(-5**4, 5**4),
                         st.integers(0, 9))


@st.composite
def quadratic_cases(draw):
    poly = draw(st.sampled_from([(-5, 0, 1), (-10, 0, 1)]))
    ctx = EisensteinExtension(5, draw(st.integers(1, 9)), poly)
    raw = st.tuples(_coefficient, _coefficient)
    return ctx, draw(raw), draw(raw)


@ORACLE
@given(quadratic_cases())
def test_quadratic_closed_forms_match_the_generic_code(case):
    ctx, a_raw, b_raw = case
    assert set(QUADRATIC_OPS) <= vars(ctx).keys()  # bound at construction
    for raw in (a_raw, list(a_raw), a_raw[0], a_raw + (7,)):
        assert ctx.normalize(raw) == _generic(ctx, "normalize")(raw)
    a, b = ctx.normalize(a_raw), ctx.normalize(b_raw)
    for op in ("mul", "add"):
        assert getattr(ctx, op)(a, b) == _generic(ctx, op)(a, b)
    for x in (a, b, ctx.mul(a, b)):
        for op in ("neg", "is_zero", "valuation"):
            assert getattr(ctx, op)(x) == _generic(ctx, op)(x)


@pytest.mark.parametrize("make", [
    lambda: EisensteinExtension(5, 6, (-5, 0, 1)),  # closed forms
    lambda: EisensteinExtension(5, 6, (-5, 0, 0, 1)),
    lambda: PadicIntegers(5, 6),
], ids=["e2", "e3", "Zp"])
def test_a_ring_is_freed_without_the_cycle_collector(make):
    # no ring refers back to itself, its e = 2 closed forms included, so it
    # goes with its last reference
    gc.disable()
    try:
        ctx = make()
        ctx.normalize(7)
        ctx.fraction_field()
        freed = weakref.ref(ctx)
        del ctx
        assert freed() is None
    finally:
        gc.enable()


@st.composite
def eisenstein_cases(draw):
    poly = draw(st.sampled_from([(-5, 0, 1), (-10, 0, 1), (-5, 0, 0, 1)]))
    ctx = EisensteinExtension(5, draw(st.integers(1, 9)), poly)
    raw = st.tuples(*[_coefficient] * ctx.e)
    return ctx, ctx.normalize(draw(raw)), ctx.normalize(draw(raw))


@ORACLE
@given(eisenstein_cases())
def test_eisenstein_product_matches_the_fraction_field(case):
    ctx, a, b = case
    if ctx.e != 2:
        assert not set(QUADRATIC_OPS) & vars(ctx).keys()  # generic path
    field = ctx.fraction_field()
    assert ctx.mul(a, b) == ctx.from_field(field.mul(ctx.lift(a), ctx.lift(b)))


@ORACLE
@given(eisenstein_cases())
def test_eisenstein_invert_is_a_two_sided_involutive_inverse(case):
    ctx, a, b = case
    one = ctx.int_payload(1)
    if ctx.valuation(a) != 0:
        with pytest.raises(NotAUnit):
            ctx.invert(a)
        return
    inv = ctx.invert(a)
    assert ctx.mul(a, inv) == ctx.mul(inv, a) == one
    assert ctx.invert(inv) == a
    if ctx.valuation(b) == 0:
        assert ctx.invert(ctx.mul(a, b)) == ctx.mul(inv, ctx.invert(b))


def _over_pi(ctx, q):
    """q / pi in the fraction field: pi * (c_1 + c_2 pi + ... + pi^(e-1)) =
    -c_0 by the Eisenstein relation."""
    field = ctx.fraction_field()
    cofactor = field.normalize({(i - 1,): c for i, c in enumerate(ctx.poly) if i and c})
    product = field.mul(q, cofactor)
    return field.neg(field.mul(product, field.invert(field.int_payload(ctx.poly[0]))))


@ORACLE
@given(eisenstein_cases())
def test_eisenstein_shift_down_matches_the_fraction_field(case):
    ctx, a, _ = case
    v = ctx.valuation(a)
    if v == 0:
        with pytest.raises(RingError):
            ctx.shift_down(a)
        return
    down = ctx.normalize(ctx.shift_down(a))
    # the quotient is known mod pi^(k - 1): its top digit is not
    assert ctx.mul(ctx.uniformizer().payload, down) == a
    if ctx.k > 1:
        low = ctx.residue_ring(ctx.k - 1)
        quotient = ctx.from_field(_over_pi(ctx, ctx.lift(a)))
        assert low.normalize(down) == low.normalize(quotient)
    if not ctx.is_zero(a):
        assert ctx.valuation(down) == v - 1


@ORACLE
@given(eisenstein_cases())
def test_eisenstein_unit_part_matches_the_fraction_field(case):
    ctx, a, _ = case
    if ctx.is_zero(a):
        return
    v = ctx.valuation(a)
    u = ctx.normalize(ctx.unit_part(a, v))
    assert ctx.valuation(u) == 0
    assert ctx.mul(u, (ctx.uniformizer() ** v).payload) == a
    q = ctx.lift(a)
    for _ in range(v):
        q = _over_pi(ctx, q)
    low = ctx.residue_ring(ctx.k - v)
    assert low.normalize(u) == low.normalize(ctx.from_field(q))
