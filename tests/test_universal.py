import json

from fractions import Fraction
from itertools import product

import pytest

from fgl.laws import FglEndomorphism, FormalGroupLaw, MonoidAction
from fgl.lubin_tate import build_endomorphism, build_fgl, multiplicative_datum
from fgl.monoids import (FinitelyPresentedMonoid, FreeCommutativeMonoid, MonoidMorphism,
                         RingSubsetMonoid)
from fgl.rings import IntegerRing, PadicIntegers, RationalField
from fgl.series import TruncatedSeries
from fgl.universal import (
    BudgetExceeded,
    IdealNotKilled,
    UniversalError,
    _extract_ideal,
    budget_caps,
    classify_fgl,
    functoriality_map,
    generate_presentation,
    ideal_membership,
    nontriviality_witness,
    presentation_size,
    specialize,
    z_two_variable_check,
)

# ---------------------------------------------------------------------------
# oracle: raw symbolic expansion with plain dicts, nothing from the package.
# polynomials are {exponent tuple: int}, series are {monomial: polynomial}.


def _padd(a, b):
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _pmul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            s = out.get(k, 0) + va * vb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _sadd(f, g):
    out = dict(f)
    for k, p in g.items():
        q = _padd(out.get(k, {}), p)
        if q:
            out[k] = q
        else:
            out.pop(k, None)
    return out


def _ssub(f, g):
    return _sadd(f, {k: {e: -c for e, c in p.items()} for k, p in g.items()})


def _smul(f, g, N):
    out = {}
    for kf, pf in f.items():
        for kg, pg in g.items():
            if sum(kf) + sum(kg) > N:
                continue
            k = tuple(x + y for x, y in zip(kf, kg))
            q = _padd(out.get(k, {}), _pmul(pf, pg))
            if q:
                out[k] = q
            else:
                out.pop(k, None)
    return out


def _scompose(f, images, N, width, pv):
    out = {}
    for exp, coeff in f.items():
        term = {(0,) * width: {(0,) * pv: 1}}
        for img, e in zip(images, exp):
            for _ in range(e):
                term = _smul(term, img, N)
        for k, p in term.items():
            q = _padd(out.get(k, {}), _pmul(coeff, p))
            if q:
                out[k] = q
            else:
                out.pop(k, None)
    return out


def _exps(width, lo, hi):
    return [
        e
        for d in range(lo, hi + 1)
        for e in sorted(x for x in product(range(d + 1), repeat=width) if sum(x) == d)
    ]


def _associativity_defect(F, N, pv):
    one = {(0,) * pv: 1}
    x3, y3, z3 = ({(1, 0, 0): one}, {(0, 1, 0): one}, {(0, 0, 1): one})
    f_yz = _scompose(F, [y3, z3], N, 3, pv)
    f_xy = _scompose(F, [x3, y3], N, 3, pv)
    return _ssub(
        _scompose(F, [x3, f_yz], N, 3, pv), _scompose(F, [f_xy, z3], N, 3, pv)
    )


def _oracle_rank_one():
    """All 14 relation classes for one free generator at degree 2,
    variables ordered (m, c_1_1, d_m_2)."""
    pv, N = 3, 2
    one = {(0, 0, 0): 1}
    C = {(0, 1, 0): 1}
    F = {(1, 0): one, (0, 1): one, (1, 1): C}
    g = {(1,): {(1, 0, 0): 1}, (2,): {(0, 0, 1): 1}}
    rels = {"sym_1_1": {}}
    defect = _associativity_defect(F, N, pv)
    for e in _exps(3, 2, N):
        rels[f"P_{e[0]}_{e[1]}_{e[2]}"] = defect.get(e, {})
    gx = _scompose(g, [{(1, 0): one}], N, 2, pv)
    gy = _scompose(g, [{(0, 1): one}], N, 2, pv)
    q_defect = _ssub(
        _scompose(g, [F], N, 2, pv), _scompose(F, [gx, gy], N, 2, pv)
    )
    for e in _exps(2, 1, N):
        rels[f"Q_m_{e[0]}_{e[1]}"] = q_defect.get(e, {})
    gg = _scompose(g, [_scompose(g, [{(1,): one}], N, 1, pv)], N, 1, pv)
    z_defect = _ssub(gg, gg)
    for i in range(1, N + 1):
        rels[f"Z_m_m_{i}"] = z_defect.get((i,), {})
    return rels


def _self_check(pres):
    """Re-derive every relation class from the tautological series and
    compare against the stored list; bookkeeping guard."""
    fresh = _extract_ideal(pres)
    assert len(fresh) == len(pres.ideal), "relation count drifted"
    for (l1, g1), (l2, g2) in zip(pres.ideal, fresh):
        assert (l1, g1.payload) == (l2, g2.payload), f"relation {l1} does not match"


def test_rank_one_relations_match_oracle():
    oracle = _oracle_rank_one()
    # anchor the oracle itself before trusting it
    assert oracle["Q_m_1_1"] == {(1, 1, 0): 1, (2, 1, 0): -1, (0, 0, 1): 2}
    assert sum(1 for v in oracle.values() if v) == 1

    pres = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    assert pres.ctx.variables == ("m", "c_1_1", "d_m_2")
    assert [l for l, _ in pres.ideal] == [
        "sym_1_1",
        "P_0_0_2", "P_0_1_1", "P_0_2_0", "P_1_0_1", "P_1_1_0", "P_2_0_0",
        "Q_m_0_1", "Q_m_1_0", "Q_m_0_2", "Q_m_1_1", "Q_m_2_0",
        "Z_m_m_1", "Z_m_m_2",
    ]
    assert {l: dict(g.payload) for l, g in pres.ideal} == oracle
    _self_check(pres)


def test_rank_one_export_text():
    pres = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    assert pres.polynomials_text() == "-m^2*c_1_1 + m*c_1_1 + 2*d_m_2"


def test_no_generators_degree_three_matches_oracle():
    pv, N = 3, 3
    one = {(0, 0, 0): 1}
    F = {
        (1, 0): one,
        (0, 1): one,
        (1, 1): {(1, 0, 0): 1},
        (1, 2): {(0, 1, 0): 1},
        (2, 1): {(0, 0, 1): 1},
    }
    oracle = {
        "sym_1_1": {},
        "sym_1_2": _padd({(0, 1, 0): 1}, {(0, 0, 1): -1}),
    }
    defect = _associativity_defect(F, N, pv)
    for e in _exps(3, 2, N):
        oracle[f"P_{e[0]}_{e[1]}_{e[2]}"] = defect.get(e, {})
    assert oracle["P_1_1_1"] == {(0, 1, 0): 2, (0, 0, 1): -2}

    pres = generate_presentation(FreeCommutativeMonoid(()), 3)
    assert pres.ctx.variables == ("c_1_1", "c_1_2", "c_2_1")
    assert len(pres.ideal) == 18
    assert {l: dict(g.payload) for l, g in pres.ideal} == oracle
    # the degree-3 associativity obstruction is a consequence of symmetry
    assert ideal_membership(pres, pres.generator("P_1_1_1")) == "zero"


def test_size_estimate_matches_generated():
    for monoid, N in [
        (FreeCommutativeMonoid(("m",)), 2),
        (FreeCommutativeMonoid(("m", "mp")), 3),
        (FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))]), 2),
    ]:
        size = presentation_size(monoid, N)
        pres = generate_presentation(monoid, N)
        assert len(pres.ctx.variables) == size["variables"]
        assert len(pres.ideal) == size["relations"]


def test_specialize_accepts_multiplicative_point():
    pres = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    action, report = specialize(
        pres, IntegerRing(), {"m": 3}, {(1, 1): 1}, {("m", 2): 3}
    )
    assert report == {"relations_checked": 14, "all_zero": True}
    assert action.verify().ok
    assert action.law.coefficient(1, 1).payload == 1
    endo = action.endo_for(action.monoid.check_payload((1,)))
    assert dict(endo.series.terms) == {(1,): 3, (2,): 3}


def test_specialize_rejects_broken_point():
    pres = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    with pytest.raises(IdealNotKilled, match="relation Q_m_1_1 maps to -6, not 0"):
        specialize(pres, IntegerRing(), {"m": 3}, {(1, 1): 1}, {("m", 2): 0})


def test_classify_reads_images_off_an_action():
    Z5 = PadicIntegers(5, 8)
    free_m = FreeCommutativeMonoid(("m",))
    pres = generate_presentation(free_m, 4)
    d = multiplicative_datum(Z5, 4)
    law = build_fgl(d, 4)
    endo = build_endomorphism(d, law, Z5.el(2))
    action = MonoidAction(free_m, law, {(1,): endo})

    hom = classify_fgl(pres, action)
    assert hom.images == {
        "m": 2, "c_1_1": 1, "c_1_2": 0, "c_2_1": 0,
        "c_1_3": 0, "c_2_2": 0, "c_3_1": 0,
        "d_m_2": 1, "d_m_3": 0, "d_m_4": 0,
    }
    assert hom.verification == {"relations_checked": 53, "all_zero": True}

    induced = hom.induced_action()
    assert json.dumps(induced.law.F.to_json(), sort_keys=True) == \
        json.dumps(law.F.to_json(), sort_keys=True)
    assert json.dumps(
        induced.endo_for(free_m.check_payload((1,))).series.to_json(), sort_keys=True
    ) == json.dumps(endo.series.to_json(), sort_keys=True)
    again = classify_fgl(pres, induced)
    assert json.dumps(again.to_json(), sort_keys=True) == \
        json.dumps(hom.to_json(), sort_keys=True)


def test_classify_guards():
    free_m = FreeCommutativeMonoid(("m",))
    pres = generate_presentation(FreeCommutativeMonoid(("n",)), 2)
    Q = RationalField()
    F = TruncatedSeries(
        Q, ("x", "y"), 2, {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    )
    law = FormalGroupLaw(F)
    t2 = TruncatedSeries(Q, ("T",), 2, {(1,): Fraction(2)})
    action = MonoidAction(free_m, law, {(1,): FglEndomorphism(law, t2)})
    with pytest.raises(UniversalError, match="does not match"):
        classify_fgl(pres, action)
    pres4 = generate_presentation(free_m, 4)
    with pytest.raises(UniversalError, match="below presentation"):
        classify_fgl(pres4, action)


def test_finite_carrier_round_trip():
    C2 = FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))])
    pres = generate_presentation(C2, 2)
    # the involution folds g^2 = 1 into the quotient; what survives is the
    # endomorphism law and the composition constraint at degree 2
    assert {l for l, _ in pres.nonzero_ideal()} == {"Q_g_1_1", "Z_g_g_2"}
    assert dict(pres.generator("Z_g_g_2").payload) == {(1, 0, 1): 1, (0, 0, 1): 1}

    Q = RationalField()
    action, report = specialize(
        pres, Q, {"g": Fraction(-1)}, {(1, 1): Fraction(1)}, {("g", 2): Fraction(1)}
    )
    assert report == {"relations_checked": 14, "all_zero": True}
    assert action.verify().ok
    hom = classify_fgl(pres, action)
    assert hom.images == {"g": Fraction(-1), "c_1_1": Fraction(1), "d_g_2": Fraction(1)}
    again = classify_fgl(pres, hom.induced_action())
    assert json.dumps(again.to_json(), sort_keys=True) == \
        json.dumps(hom.to_json(), sort_keys=True)


def test_a_window_that_is_not_closed_is_refused():
    # every product of listed elements needs a ring variable; 2*2 = 4 has none
    Z5 = PadicIntegers(5, 4)
    with pytest.raises(UniversalError, match=r"not closed: 2\*2 = 4 is not listed"):
        generate_presentation(RingSubsetMonoid(Z5, [2, 3]), 2)
    closed = generate_presentation(RingSubsetMonoid(Z5, [-1]), 2)
    assert list(closed.monoid_vars.values()) == ["m624"]


def test_specialize_rejects_non_multiplicative_monoid_images():
    C2 = FinitelyPresentedMonoid.from_relations(("g",), [((2,), (0,))])
    pres = generate_presentation(C2, 2)
    with pytest.raises(UniversalError, match="not multiplicative"):
        specialize(
            pres, RationalField(),
            {"g": Fraction(2)}, {(1, 1): Fraction(0)}, {("g", 2): Fraction(0)},
        )


def test_commutation_is_a_z_relation():
    pres = generate_presentation(FreeCommutativeMonoid(("m", "mp")), 2)
    # canonical word series puts later generators outermost, so the m-then-mp
    # pair is definitionally zero and the swapped pair carries the constraint
    assert not pres.generator("Z_m_mp_2").payload
    idx = {v: i for i, v in enumerate(pres.ctx.variables)}

    def mono(**exps):
        e = [0] * len(pres.ctx.variables)
        for v, k in exps.items():
            e[idx[v]] = k
        return tuple(e)

    assert dict(pres.generator("Z_mp_m_2").payload) == {
        mono(m=1, d_mp_2=1): 1,
        mono(mp=2, d_m_2=1): 1,
        mono(m=2, d_mp_2=1): -1,
        mono(mp=1, d_m_2=1): -1,
    }


def test_two_variable_composition_certificate():
    pres = generate_presentation(FreeCommutativeMonoid(("m", "mp")), 4)
    out = z_two_variable_check(pres, (1, 0), (0, 1))
    assert out == {"ok": True, "degree": 4, "relations_used": 4}
    out_back = z_two_variable_check(pres, (0, 1), (1, 0))
    assert out_back["ok"]


def test_free_words_compose_in_generator_order():
    # [u] = T + T^2 and [v] = 2T do not commute, so the order in which a
    # word applies its generators shows; every lawful action hides it
    M = FreeCommutativeMonoid(("u", "v"))
    assert M.word((2, 1)) == [(1, 0), (1, 0), (0, 1)]
    Q = RationalField()
    law = FormalGroupLaw.additive(Q, 4)
    u = TruncatedSeries(Q, ("T",), 4, {(1,): 1, (2,): 1})
    v = TruncatedSeries(Q, ("T",), 4, {(1,): 2})
    action = MonoidAction(M, law, {
        (1, 0): FglEndomorphism(law, u), (0, 1): FglEndomorphism(law, v),
    })
    assert action.endo_for((1, 1)).series == v.substitute_single(u)
    assert action.endo_for((1, 1)).series != u.substitute_single(v)
    pres = generate_presentation(M, 3)
    g_u, g_v = pres.g[(1, 0)], pres.g[(0, 1)]
    assert pres.g_for((1, 1)) == g_v.substitute_single(g_u)
    assert pres.g_for((1, 1)) != g_u.substitute_single(g_v)
    var_u, var_v = pres.ctx.var("u"), pres.ctx.var("v")
    assert pres.element_value((2, 1)) == var_u * var_u * var_v


def test_functoriality_rename():
    src = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    tgt = generate_presentation(FreeCommutativeMonoid(("n",)), 2)
    phi = MonoidMorphism(
        src.monoid, tgt.monoid, gen_images={"m": tgt.monoid.generator("n")}
    )
    hom = functoriality_map(phi, src, tgt)
    assert hom.reduction_report == {
        "zero": [l for l, _ in src.ideal], "member": [], "inconclusive": [],
    }
    # the one nonzero relation maps to its renamed counterpart
    img = hom.value(src.generator("Q_m_1_1"))
    assert img.payload == tgt.generator("Q_n_1_1").payload


def test_functoriality_collapse_to_trivial():
    src = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    triv = FreeCommutativeMonoid(())
    tgt = generate_presentation(triv, 2)
    phi = MonoidMorphism(src.monoid, triv, gen_images={"m": triv.identity_payload()})
    hom = functoriality_map(phi, src, tgt)
    assert hom.reduction_report["inconclusive"] == []
    assert hom.reduction_report["member"] == []
    assert not hom.value(src.generator("Q_m_1_1")).payload


def test_ideal_membership_outcomes():
    pres = generate_presentation(FreeCommutativeMonoid(("m",)), 2)
    q = pres.generator("Q_m_1_1")
    m = pres.ctx.var("m")
    one = pres.ctx.el(pres.ctx.int_payload(1))
    zero = pres.ctx.el(pres.ctx.int_payload(0))
    assert ideal_membership(pres, zero) == "zero"
    assert ideal_membership(pres, q) == "zero"
    assert ideal_membership(pres, m * q) == "zero"
    assert ideal_membership(pres, m) == "inconclusive"
    assert ideal_membership(pres, q + one) == "inconclusive"


def test_nontriviality_witness_over_z5():
    Z5 = PadicIntegers(5, 8)
    free_m = FreeCommutativeMonoid(("m",))
    pres = generate_presentation(free_m, 2)

    def make(N):
        d = multiplicative_datum(Z5, N)
        law = build_fgl(d, N)
        return MonoidAction(
            free_m, law, {(1,): build_endomorphism(d, law, Z5.el(2))}
        )

    out = nontriviality_witness(pres, make)
    assert out["outcome"] == "witness"
    assert out["degree"] == 5
    assert out["blocking"] == {"degree": 5, "valuation": -1, "integral": False}
    assert out["hom"]["verification"] == {"relations_checked": 14, "all_zero": True}


def test_nontriviality_additive_case():
    Q = RationalField()
    free_m = FreeCommutativeMonoid(("m",))
    pres = generate_presentation(free_m, 2)

    def make(N):
        F = TruncatedSeries(
            Q, ("x", "y"), N, {(1, 0): Fraction(1), (0, 1): Fraction(1)}
        )
        law = FormalGroupLaw(F)
        t = TruncatedSeries(Q, ("T",), N, {(1,): Fraction(2)})
        return MonoidAction(free_m, law, {(1,): FglEndomorphism(law, t)})

    out = nontriviality_witness(pres, make)
    assert out["outcome"] == "additive"
    assert out["hom"]["images"] == {"c_1_1": "0", "d_m_2": "0", "m": "2"}


def test_budget_guardrails():
    nine = FreeCommutativeMonoid(tuple(f"g{i}" for i in range(9)))
    with pytest.raises(BudgetExceeded) as caught:
        generate_presentation(nine, 2)
    assert caught.value.estimate["monoid_generators"] == 9
    with pytest.raises(BudgetExceeded):
        generate_presentation(FreeCommutativeMonoid(("m",)), 7)
    with pytest.raises(UniversalError, match="at least 2"):
        generate_presentation(FreeCommutativeMonoid(("m",)), 1)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FGL_BUDGET", "2")
    assert budget_caps() == {
        "free_generators": 16, "finite_elements": 24, "degree": 12,
        "carrier_elements": 4000,
    }
    nine = FreeCommutativeMonoid(tuple(f"g{i}" for i in range(9)))
    pres = generate_presentation(nine, 2)
    assert len(pres.ideal) == presentation_size(nine, 2)["relations"]
    monkeypatch.setenv("FGL_BUDGET", "")
    assert budget_caps()["degree"] == 6
    for raw in ("junk", "1e3", "0", "-5"):
        monkeypatch.setenv("FGL_BUDGET", raw)
        with pytest.raises(UniversalError, match=f"FGL_BUDGET='{raw}' is not a positive"):
            budget_caps()
