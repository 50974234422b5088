"""The series kernel against a naive expansion.

The oracle below shares no code with fgl.series: it keeps a series as a dict
from exponent tuples to RingElements and multiplies monomial by monomial with
RingElement's own `*`, truncating at total degree N.  Substitution, powers,
both inverses and the recovered addition table are checked against it over Q
and over a ramified quadratic extension of Z_5.  The two composition
defects of fgl.laws, which read memoized power tables moved onto other
variables, are checked against their plain forms by substitution.  A law
check compares two term dicts without building either side as a series:
differences is checked against the terms of the difference series,
first_difference on composed_terms against a sorted walk over the built
composition, and intertwining_violation against the first term of the
intertwining defect by substitution.
Reversion over Q is also checked against sympy's, when sympy is installed.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgl.laws import (_associativity_sides, _intertwining_sides, associativity_defect,
                      from_logarithm, intertwining_defect, intertwining_violation)
from fgl.lubin_tate import build_action, build_fgl, multiplicative_datum, standard_datum
from fgl.monoids import BOTTOM, padic_truncation_of
from fgl.recovery import ADJOINED_ZERO, CAPPED, build_addition_table
from fgl.rings import (EisensteinExtension, PadicIntegers, PolynomialQuotient, RationalField,
                       RingError)
from fgl.series import (SeriesError, TruncatedSeries, _pair_products, differences,
                        first_difference)
from oracles import bucketed_pair_products

Q = RationalField()
E = EisensteinExtension(5, 9, (-5, 0, 1))
RINGS = {"Q": Q, "E": E}
# a^2 - b and ab - c are no Groebner basis: their S-polynomial ac - b^2
# reduces by neither, so this ring's normal forms are not canonical
P = PolynomialQuotient(Q, ("a", "b", "c")).with_ideal(
    [{(2, 0, 0): 1, (0, 1, 0): -1}, {(1, 1, 0): 1, (0, 0, 1): -1}])
LAW_RINGS = {**RINGS, "P": P}
NAMES = ("x", "y", "z")
SETTINGS = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# the oracle


def _oracle(series: TruncatedSeries) -> dict:
    return {e: series.ctx.el(c) for e, c in series.terms.items()}


def _oracle_mul(a: dict, b: dict, N: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= N:
                out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


def _oracle_substitute(f: TruncatedSeries, args: list) -> dict:
    """sum over terms c*x^i*y^j... of c times each argument multiplied in,
    one factor at a time."""
    model = args[0]
    N, width = model.trunc_degree, len(model.variables)
    acc = {}
    for exp, c in f.terms.items():
        piece = {(0,) * width: f.ctx.el(c)}
        for arg, e in zip(args, exp):
            for _ in range(e):
                piece = _oracle_mul(piece, _oracle(arg), N)
        for e, v in piece.items():
            acc[e] = acc[e] + v if e in acc else v
    return {e: c for e, c in acc.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# strategies


def _coefficient(ctx):
    if ctx is Q:
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    if ctx is P:  # a polynomial in a, b, c of degree <= 2, reduced when built
        return st.lists(st.tuples(st.sampled_from(_exponents(3, 2)), _coefficient(Q)),
                        max_size=3)
    return st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def _unit(ctx):
    if ctx is Q:
        return st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1),
                         st.integers(1, 4))
    prime_to_5 = st.integers(-30, 30).filter(lambda a: a % 5)
    return st.tuples(prime_to_5, st.integers(-30, 30))


@st.composite
def _series(draw, ctx, width, N, constant=True):
    exps = [e for e in _exponents(width, N) if constant or sum(e)]
    chosen = []
    if exps:
        chosen = draw(st.lists(st.sampled_from(exps), max_size=6, unique=True))
    terms = {e: draw(_coefficient(ctx)) for e in chosen}
    return TruncatedSeries(ctx, NAMES[:width], N, terms)


def _exponents(width, N):
    if width == 0:
        return [()]
    return [(i,) + rest for i in range(N + 1)
            for rest in _exponents(width - 1, N - i)]


@st.composite
def _substitution(draw, ctx):
    width_f = draw(st.integers(1, 3))
    width_args = draw(st.integers(1, 3))
    N = draw(st.integers(1, 4 if width_args < 3 else 3))
    f = draw(_series(ctx, width_f, N))
    args = [draw(_series(ctx, width_args, N, constant=False)) for _ in range(width_f)]
    return f, args


# ---------------------------------------------------------------------------
# kernel against oracle


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_substitute_matches_naive_expansion(ring, data):
    f, args = data.draw(_substitution(RINGS[ring]))
    out = f.substitute(dict(zip(f.variables, args)))
    assert _oracle(out) == _oracle_substitute(f, args)


@pytest.mark.parametrize("ring", sorted(LAW_RINGS))
@SETTINGS
@given(data=st.data())
def test_pair_products_match_the_bucketed_kernel(ring, data):
    # the same pairs summed in the same order: equal dicts in equal key
    # order, also where P's normal forms depend on the order of summation;
    # terms past N and empty operands included
    ctx = LAW_RINGS[ring]
    width = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(0, 4))
    exps = _exponents(width, N + 1)
    a, b = ({e: ctx.normalize(data.draw(_coefficient(ctx))) for e in
             data.draw(st.lists(st.sampled_from(exps), max_size=8, unique=True))}
            for _ in range(2))
    got = _pair_products(N, a, b, ctx.mul, ctx.add)
    assert list(got.items()) == list(bucketed_pair_products(N, a, b, ctx.mul, ctx.add).items())


@pytest.mark.parametrize("ring", sorted(LAW_RINGS))
def test_pair_products_keep_the_order_of_b_within_a_degree(ring):
    # x before y in b, and a term past N between them: x's products come
    # first for each term of a, as they did in the bucketed kernel
    ctx = LAW_RINGS[ring]
    one = ctx.int_payload(1)
    a, b = {(0, 0): one, (1, 0): one}, {(1, 0): one, (0, 3): one, (0, 1): one}
    got = _pair_products(2, a, b, ctx.mul, ctx.add)
    assert list(got) == [(1, 0), (0, 1), (2, 0), (1, 1)]
    assert list(got.items()) == list(bucketed_pair_products(2, a, b, ctx.mul, ctx.add).items())


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_powers_and_pow_match_naive_expansion(ring, data):
    ctx = RINGS[ring]
    width = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(0, 4))
    s = data.draw(_series(ctx, width, N))
    top = data.draw(st.integers(0, 5))
    table = s.powers(top)
    expect = {(0,) * width: ctx.one()}
    # no composition reads s^0, so the table holds none; s**0 is still 1
    assert len(table) == top + 1 and table[0] is None
    assert _oracle(s**0) == expect
    for k in range(1, top + 1):
        expect = _oracle_mul(expect, _oracle(s), N)
        assert _oracle(table[k]) == expect
        assert _oracle(s**k) == expect


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_multiplicative_inverse_round_trips(ring, data):
    ctx = RINGS[ring]
    width = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(0, 5 if width == 1 else 3))
    tail = data.draw(_series(ctx, width, N, constant=False))
    unit = data.draw(_unit(ctx))
    one = TruncatedSeries.constant(ctx, tail.variables, N, 1)
    f = tail + TruncatedSeries.constant(ctx, tail.variables, N, unit)
    inv = f.multiplicative_inverse()
    assert _oracle_mul(_oracle(f), _oracle(inv), N) == _oracle(one)
    assert inv.multiplicative_inverse() == f


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_compositional_inverse_round_trips(ring, data):
    ctx = RINGS[ring]
    N = data.draw(st.integers(1, 6))
    tail = data.draw(_series(ctx, 1, N, constant=False))
    tail = TruncatedSeries(ctx, ("x",), N,
                           {e: c for e, c in tail.terms.items() if e != (1,)})
    slope = data.draw(_unit(ctx))
    f = tail + TruncatedSeries(ctx, ("x",), N, {(1,): slope})
    g = f.compositional_inverse()
    x = _oracle(TruncatedSeries.variable(ctx, ("x",), N, "x"))
    assert _oracle_substitute(g, [f]) == x
    assert _oracle_substitute(f, [g]) == x
    assert g.compositional_inverse() == f


# ---------------------------------------------------------------------------
# the composition defects against their plain forms by substitution


def _associativity_by_substitution(F):
    """F(X, F(Y, Z)) - F(F(X, Y), Z), each inner law composed afresh."""
    x, y = F.variables
    X, Y, Z = (TruncatedSeries.variable(F.ctx, NAMES, F.trunc_degree, v) for v in NAMES)
    left = F.substitute({x: X, y: F.substitute({x: Y, y: Z})})
    right = F.substitute({x: F.substitute({x: X, y: Y}), y: Z})
    return left - right


def _intertwining_by_substitution(h, F, G):
    """h(F) - G(h(x), h(y)), with h(x) and h(y) composed afresh."""
    hF = h.substitute_single(F)
    hx, hy = (h.substitute_single(TruncatedSeries.variable(F.ctx, F.variables,
                                                           F.trunc_degree, v))
              for v in F.variables)
    return hF - G.substitute(dict(zip(G.variables, (hx, hy))))


def _first_bad_term(delta, precisions=None):
    """The first term of the series delta in graded-lex order, as (exponent,
    text), that precisions do not excuse; None if there is none."""
    for exp, c in delta.sorted_terms():
        if precisions is None or delta.ctx.valuation(c) < precisions[sum(exp)]:
            return exp, delta.ctx.fmt(c)
    return None


def _same_outcome(checked, reference):
    """Equal results, or the same RingError with one message from both: a
    SeriesError on a constant term, or Q's refusal of a valuation."""
    try:
        expect = reference()
    except RingError as exc:
        with pytest.raises(type(exc)) as raised:
            checked()
        assert str(raised.value) == str(exc)
        return
    assert checked() == expect


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_associativity_defect_matches_three_variable_composition(ring, data):
    ctx = RINGS[ring]
    N = data.draw(st.integers(0, 4))
    # a constant term is refused by both forms, with one message
    F = data.draw(_series(ctx, 2, N, constant=data.draw(st.booleans())))
    _same_outcome(lambda: associativity_defect(F),
                  lambda: _associativity_by_substitution(F))


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=120, deadline=None)  # h below F's degree is a third of draws
@given(data=st.data())
def test_intertwining_defect_matches_substitution(ring, data):
    ctx = RINGS[ring]
    N = data.draw(st.integers(1, 4))
    F = data.draw(_series(ctx, 2, N, constant=data.draw(st.booleans())))
    G = data.draw(_series(ctx, 2, N, constant=False))
    # h may be carried to another degree than F, where its table is not used
    h_degree = data.draw(st.integers(N - 1, N + 1).filter(bool))
    h = data.draw(_series(ctx, 1, h_degree, constant=data.draw(st.booleans())))
    h = h.rename(("T",))
    _same_outcome(lambda: intertwining_defect(h, F, G),
                  lambda: _intertwining_by_substitution(h, F, G))


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_compositions_into_one_series_build_its_table_once(ring, monkeypatch):
    ctx = RINGS[ring]
    N = 5
    F = TruncatedSeries(ctx, ("x", "y"), N, {(1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 3})
    hs = [TruncatedSeries(ctx, ("T",), N, {(1,): k, (2,): 1, (N,): k + 1})
          for k in range(1, 4)]
    products = []
    mul = TruncatedSeries.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for _ in range(2):
        assert not associativity_defect(F).is_zero()
        for h in hs:
            h.substitute_single(F)
            intertwining_defect(h, F, F)
    top = max(F.top_exponents(N))
    # F's table to its own degree (h reaches T^N), each h's as far as F reads it
    assert sum(b is F for b in products) == N - 1
    assert all(sum(b is h for b in products) == top - 1 for h in hs)


# ---------------------------------------------------------------------------
# each law-check side that data already fixes, against its composition


def _right_side_by_composition(F):
    """F(F(x, y), z), with F(x, y) composed afresh."""
    x, y = F.variables
    X, Y, Z = (TruncatedSeries.variable(F.ctx, NAMES, F.trunc_degree, v) for v in NAMES)
    return F.composed_terms({x: F.substitute({x: X, y: Y}), y: Z})


def _paired_by_moved_tables(G, h, F):
    """G(h(x), h(y)) by composed_terms over h moved onto F's variables at
    F's degree, each copy carrying h's table as far as G reads it."""
    hx, hy = (h.moved(F, (k,), top)
              for k, top in enumerate(G.top_exponents(F.trunc_degree)))
    return G.composed_terms(dict(zip(G.variables, (hx, hy))))


def _golden_law(ctx):
    """x + y + x^2 y + x y^2 + 2 x^2 y^2 at degree 4: commutative, not
    associative."""
    return TruncatedSeries(ctx, ("x", "y"), 4,
                           {(1, 0): 1, (0, 1): 1, (2, 1): 1, (1, 2): 1, (2, 2): 2})


@pytest.mark.parametrize("ring", sorted(LAW_RINGS))
@SETTINGS
@given(data=st.data())
def test_a_commutative_laws_right_side_is_its_left_side_relabelled(ring, data):
    ctx = LAW_RINGS[ring]
    N = data.draw(st.integers(1, 4))
    F = data.draw(_series(ctx, 2, N, constant=False))
    F = F + F.moved(F, (1, 0))  # c_ij = c_ji term for term
    assert F.terms == F.moved(F, (1, 0)).terms
    left, right = _associativity_sides(F, True)
    assert right == _right_side_by_composition(F)
    assert left == F.composed_terms(
        {"x": TruncatedSeries.variable(ctx, NAMES, N, "x"),
         "y": F.substitute({"x": TruncatedSeries.variable(ctx, NAMES, N, "y"),
                            "y": TruncatedSeries.variable(ctx, NAMES, N, "z")})})


@pytest.mark.parametrize("ring", sorted(LAW_RINGS))
def test_a_relabelling_other_than_the_cyclic_one_is_caught(ring):
    # F(z, F(x, y)) is the left side at (b, c, a); the other cycle (c, a, b)
    # is F(y, F(z, x)), which differs from F(F(x, y), z) for this F
    F = _golden_law(LAW_RINGS[ring])
    left, right = _associativity_sides(F, True)
    assert right == _right_side_by_composition(F) != left
    assert {(c, a, b): v for (a, b, c), v in left.items()} != right


@pytest.mark.parametrize("ring", sorted(LAW_RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_paired_terms_match_the_composition_over_moved_tables(ring, data):
    ctx = LAW_RINGS[ring]
    N = data.draw(st.integers(1, 4))
    F = TruncatedSeries(ctx, ("x", "y"), N)  # where moved puts h
    G = data.draw(_series(ctx, 2, N))
    # h may live at another degree than F; both compose at F's
    h_degree = data.draw(st.integers(N - 1, N + 1).filter(bool))
    h = data.draw(_series(ctx, 1, h_degree, constant=data.draw(st.booleans())))
    h = h.rename(("T",))
    _same_outcome(lambda: G.paired_terms(h, N),
                  lambda: _paired_by_moved_tables(G, h, F))


@pytest.mark.parametrize("ring", sorted(LAW_RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_intertwining_sides_refuse_as_the_moved_tables_did(ring, data):
    # a constant term in F or h, h or G over a foreign ring, and h or G at
    # another degree than F: the same sides, or the same refusal first
    ctx = LAW_RINGS[ring]
    foreign = LAW_RINGS[data.draw(st.sampled_from(sorted(LAW_RINGS)))]
    N = data.draw(st.integers(1, 4))
    degree = st.integers(N - 1, N + 1).filter(bool)
    F = data.draw(_series(ctx, 2, N, constant=data.draw(st.booleans())))
    G = data.draw(_series(data.draw(st.sampled_from([ctx, foreign])), 2, data.draw(degree),
                          constant=data.draw(st.booleans())))
    h = data.draw(_series(data.draw(st.sampled_from([ctx, foreign])), 1, data.draw(degree),
                          constant=data.draw(st.booleans())))
    h = h.rename(("T",))
    _same_outcome(lambda: _intertwining_sides(h, F, G),
                  lambda: (h.composed_terms({"T": F}), _paired_by_moved_tables(G, h, F)))


@SETTINGS
@given(data=st.data())
def test_q_paired_terms_with_large_denominators(data):
    N = data.draw(st.integers(1, 4))
    F = TruncatedSeries(Q, ("x", "y"), N)
    G = data.draw(_big_series(2, N))
    h = data.draw(_big_series(1, N, constant=False)).rename(("T",))
    terms = G.paired_terms(h, N)
    assert terms == _paired_by_moved_tables(G, h, F)
    assert all(type(c) is Fraction and c for c in terms.values())


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_first_difference_of_composed_terms_matches_the_sorted_walk(ring, data):
    ctx = RINGS[ring]
    f, args = data.draw(_substitution(ctx))
    if data.draw(st.booleans()):  # a constant term is refused by both forms
        args[0] = args[0] + TruncatedSeries.constant(ctx, args[0].variables,
                                                     args[0].trunc_degree, 1)
    assignments = dict(zip(f.variables, args))
    model = args[0]
    N = model.trunc_degree
    # the composition itself, or a series near it, or one far from it
    target = data.draw(_series(ctx, len(model.variables), N))
    try:
        composition = f.substitute(assignments)
    except SeriesError:
        composition = None
    if composition is not None and data.draw(st.booleans()):
        scale = ctx.uniformizer().payload if ctx is E else 1
        target = composition + target.scale(data.draw(st.sampled_from([0, scale, 1])))
    precisions = None
    if data.draw(st.booleans()):
        precisions = tuple(data.draw(st.lists(st.integers(0, 9), min_size=N + 1,
                                              max_size=N + 1)))

    def checked():
        composed = f.composed_terms(assignments)
        return first_difference(ctx, composed, target.terms, precisions)

    _same_outcome(checked, lambda: _first_bad_term(f.substitute(assignments) - target,
                                                   precisions))


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_intertwining_violation_is_the_first_term_of_the_defect(ring, data):
    ctx = RINGS[ring]
    N = data.draw(st.integers(1, 4))
    additive = TruncatedSeries(ctx, ("x", "y"), N, {(1, 0): 1, (0, 1): 1})
    # x + y with a linear h intertwines; a random draw seldom does
    if data.draw(st.booleans()):
        F = G = additive
        h = TruncatedSeries(ctx, ("T",), N, {(1,): data.draw(_coefficient(ctx))})
    else:
        F = data.draw(_series(ctx, 2, N, constant=data.draw(st.booleans())))
        G = data.draw(st.sampled_from([F, additive]))
        h_degree = data.draw(st.integers(N - 1, N + 1).filter(bool))
        h = data.draw(_series(ctx, 1, h_degree, constant=data.draw(st.booleans())))
        h = h.rename(("T",))

    _same_outcome(lambda: intertwining_violation(h, F, G),
                  lambda: _first_bad_term(_intertwining_by_substitution(h, F, G)))


@pytest.mark.parametrize("ring", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_differences_are_the_terms_of_the_difference_series(ring, data):
    ctx = RINGS[ring]
    width, N = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
    A = data.draw(_series(ctx, width, N))
    B = A + data.draw(_series(ctx, width, N))  # equal where the perturbation has no term
    exps = st.lists(st.sampled_from(_exponents(width, N)), max_size=3)
    # zero payloads where a dict has no term: either side may hold them
    a, b = ({**dict.fromkeys(data.draw(exps), ctx.normalize(0)), **s.terms}
            for s in (A, B))
    for left, right, expect in ((a, b, A - B), (b, a, B - A), (a, a, A - A)):
        delta = differences(ctx, left, right)
        assert dict(delta) == expect.terms
        assert len(delta) == len(expect.terms)


# ---------------------------------------------------------------------------
# recovered addition through the kernel


def _multiplicative_action():
    Z5 = PadicIntegers(5, 6)
    d = multiplicative_datum(Z5, degree=4)
    return build_action(d, build_fgl(d, 4), monoid=padic_truncation_of(Z5, 1, 2))


def _eisenstein_action():
    # degree q = 5, so F carries terms beyond x + y
    d = standard_datum(E, degree=5)
    return build_action(d, build_fgl(d, 5), monoid=padic_truncation_of(E, 1, 2))


def _oracle_class(action, sum_series: dict):
    if not sum_series:
        return ADJOINED_ZERO
    alpha = sum_series.get((1,))
    if alpha is None or alpha.is_zero() or alpha.valuation() >= action.monoid.V:
        return CAPPED
    return action.monoid.class_of(alpha.payload)


@pytest.mark.parametrize("make_action", [_multiplicative_action, _eisenstein_action])
def test_addition_table_matches_oracle_sums(make_action):
    action = make_action()
    monoid = action.monoid
    F = action.law.F
    ring = build_addition_table(action)
    els = [p for p in monoid.payloads() if p != BOTTOM]
    assert len(els) == 8
    assert any(sum(e) > 1 for e in F.terms)  # the cross terms get exercised
    for a in els:
        for b in els:
            ea = action.endo_for(a).series
            eb = action.endo_for(b).series
            expect = _oracle_substitute(F, [ea, eb])
            assert _oracle(action.law.plus(ea, eb)) == expect
            assert ring.add(a, b) == _oracle_class(action, expect)


# ---------------------------------------------------------------------------
# Q on integer numerators: large coprime denominators, exact cancellation

BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


@st.composite
def _big_series(draw, width, N, constant=True):
    exps = [e for e in _exponents(width, N) if constant or sum(e)]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=6, unique=True))
    coefficient = st.builds(Fraction, st.integers(-10**40, 10**40).filter(bool),
                            st.sampled_from((1,) + BIG_PRIMES))
    return TruncatedSeries(Q, NAMES[:width], N, {e: draw(coefficient) for e in chosen})


def _assert_exact(series, expect):
    """Equal to the oracle, no zero or non-Fraction coefficient stored, and
    unchanged by a JSON round trip."""
    assert _oracle(series) == expect
    assert all(type(c) is Fraction and c for c in series.terms.values())
    again = TruncatedSeries.from_json(series.to_json())
    assert again == series and again.to_json() == series.to_json()


def _divides(e, m):
    return all(x <= y for x, y in zip(e, m))


@SETTINGS
@given(data=st.data())
def test_q_products_with_large_denominators_and_cancellation(data):
    width = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 4))
    a, b = data.draw(_big_series(width, N)), data.draw(_big_series(width, N))
    full = _oracle_mul(_oracle(a), _oracle(b), N)
    _assert_exact(a * b, full)
    # b - (full[m] / a[ea]) * x^(m - ea) cancels the product's m coefficient
    pairs = [(ea, m) for m in full for ea in a.terms if _divides(ea, m)]
    if pairs:
        ea, m = data.draw(st.sampled_from(pairs))
        eb = tuple(y - x for x, y in zip(ea, m))
        b = b - TruncatedSeries(Q, a.variables, N, {eb: full[m].payload / a.terms[ea]})
        product = a * b
        assert m not in product.terms
        _assert_exact(product, _oracle_mul(_oracle(a), _oracle(b), N))


@SETTINGS
@given(data=st.data())
def test_q_compositions_with_large_denominators_and_cancellation(data):
    width_f = data.draw(st.integers(1, 3))
    width_args = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 4 if width_args < 3 else 3))
    f = data.draw(_big_series(width_f, N))
    args = [data.draw(_big_series(width_args, N, constant=False)) for _ in range(width_f)]
    assign = dict(zip(f.variables, args))
    full = _oracle_substitute(f, args)
    _assert_exact(f.substitute(assign), full)
    # f - (full[m] / piece[m]) * x^t, piece the substituted monomial x^t,
    # cancels the composite's m coefficient
    pieces = {t: _oracle_substitute(TruncatedSeries(Q, f.variables, N, {t: 1}), args)
              for t in f.terms}
    choices = [(t, m) for m in full for t, piece in pieces.items() if m in piece]
    if choices:
        t, m = data.draw(st.sampled_from(choices))
        shift = full[m].payload / pieces[t][m].payload
        f = f - TruncatedSeries(Q, f.variables, N, {t: shift})
        out = f.substitute(assign)
        assert m not in out.terms
        _assert_exact(out, _oracle_substitute(f, args))


@SETTINGS
@given(data=st.data())
def test_q_composition_that_cancels_entirely_stores_nothing(data):
    width = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(1, 4 if width < 3 else 3))
    g = data.draw(_big_series(1, N, constant=False))
    h = data.draw(_big_series(width, N, constant=False))
    # g(x) - g(y) at x = y = h
    f = g.rename(("x",)).embed(("x", "y")) - g.rename(("y",)).embed(("x", "y"))
    out = f.substitute({"x": h, "y": h})
    assert out.terms == {}
    assert out.to_json()["terms"] == []
    _assert_exact(out, {})


# ---------------------------------------------------------------------------
# reversion over Q against sympy


@pytest.mark.parametrize("seed", range(8))
def test_reversion_over_q_matches_sympy(seed):
    ring_series = pytest.importorskip("sympy.polys.ring_series")
    from sympy import QQ
    from sympy.polys.rings import ring

    _, x, y = ring("x, y", QQ)

    def sympy_reversion(f):
        p = sum(QQ(c.numerator, c.denominator) * x**k for (k,), c in f.terms.items())
        rev = ring_series.rs_series_reversion(p, x, f.trunc_degree + 1, y)
        return {(k,): Fraction(c.numerator, c.denominator) for (_, k), c in rev.items()}

    # seeded degree-8 logarithms as in criterion 1, and the same tails
    # behind a linear coefficient other than 1
    rng = random.Random(seed)
    tail = {(k,): Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for k in range(2, 9)}
    log = TruncatedSeries(Q, ("T",), 8, {(1,): 1, **tail})
    slope = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    f = TruncatedSeries(Q, ("T",), 8, {(1,): slope, **tail})

    assert f.compositional_inverse().terms == sympy_reversion(f)
    assert log.compositional_inverse().terms == sympy_reversion(log)
    assert from_logarithm(log)[1].terms == sympy_reversion(log)
