"""A series never changes once built: its terms are a read-only mapping
from construction on, whatever built it, so the power table and the scalar
table memoized on a series cannot go stale.  A law or an endomorphism
takes its series as it is, and a read-only mapping is shared, not copied."""
import json
from fractions import Fraction

import pytest

from fgl.laws import (
    FglEndomorphism,
    FormalGroupLaw,
    endomorphism_from_logarithm,
    from_logarithm,
    logarithm,
    scalar_table,
)
from fgl.parsing import parse_series
from fgl.rings import EisensteinExtension, RationalField
from fgl.series import TruncatedSeries

Q = RationalField()
E = EisensteinExtension(5, 7, (-5, 0, 1))


def _log(N=6):
    """log(1 + T) = T - T^2/2 + T^3/3 - ..."""
    return TruncatedSeries(Q, ("T",), N,
                           {(k,): Fraction((-1) ** (k + 1), k) for k in range(1, N + 1)})


def _built():
    """A series from each construction path, by name."""
    f = _log()
    law, g = from_logarithm(f)
    xy = TruncatedSeries(Q, ("x", "y"), 6, {(1, 0): 1, (0, 1): 1, (1, 1): 2})
    one_plus = TruncatedSeries(Q, ("T",), 6, {(0,): 1, (1,): 1})
    built = {
        "constructor": f,
        "zero": TruncatedSeries.zero(Q, ("T",), 6),
        "constant": TruncatedSeries.constant(Q, ("T",), 6, 3),
        "variable": TruncatedSeries.variable(Q, ("T",), 6, "T"),
        "product": f * f,
        "sum": f + f,
        "negation": -f,
        "scale": f.scale(3),
        "substitute": f.substitute_single(f),
        "moved": f.moved(xy, (1,), 3),
        "map_coefficients": f.map_coefficients(lambda c: 2 * c),
        "derivative": xy.derivative("x"),
        "compositional_inverse": f.compositional_inverse(),
        "multiplicative_inverse": one_plus.multiplicative_inverse(),
        "logarithm": logarithm(law),
        "law": law.F,
        "exp": g,
        "from_json": TruncatedSeries.from_json(json.loads(json.dumps(xy.to_json()))),
        "parse_series": parse_series("pi*T + pi*T^2 + T^5", E, ("T",), 5,
                                     E.uniformizer().payload),
    }
    built.update({f"powers[{k}]": p for k, p in enumerate(f.powers(4)) if k})
    built.update({f"moved powers[{k}]": p
                  for k, p in enumerate(f.moved(xy, (0,), 3).powers(3)) if k})
    return built


@pytest.mark.parametrize("path", sorted(_built()))
def test_a_series_is_read_only_from_construction_on(path):
    s = _built()[path]
    before = dict(s.terms)
    exp = next(iter(s.terms), (1,) * len(s.variables))
    with pytest.raises(TypeError):
        s.terms[exp] = s.ctx.normalize(7)
    if s.terms:
        with pytest.raises(TypeError):
            del s.terms[exp]
    assert dict(s.terms) == before


def test_power_table_shares_the_series_terms():
    f = _log()
    table = f.powers(3)
    assert table[1].terms is f.terms
    assert f.powers(3) is table and f ** 2 is table[2]


def test_a_law_and_an_endomorphism_leave_their_series_as_given():
    F = TruncatedSeries(Q, ("x", "y"), 4, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    terms = F.terms
    law = FormalGroupLaw(F)
    assert law.F is F and F.terms is terms
    s = TruncatedSeries(Q, ("T",), 4, {(1,): 2, (2,): 1})
    terms = s.terms
    endo = FglEndomorphism(law, s)
    assert endo.series is s and s.terms is terms


def test_the_scalar_table_is_built_once_per_log_and_exp(monkeypatch):
    f = _log()
    law, g = from_logarithm(f)
    builds = []
    powers = TruncatedSeries.powers

    def counted(self, top):
        if self is f:
            builds.append(top)
        return powers(self, top)

    monkeypatch.setattr(TruncatedSeries, "powers", counted)
    for m in (2, 3, -1, Fraction(1, 2)):
        endomorphism_from_logarithm(law, f, g, m)
    assert builds == [6]
    table = scalar_table(f, g)
    assert scalar_table(f, g) is table and builds == [6]
    other = TruncatedSeries(Q, ("T",), 6, {(1,): 1})  # exp = T: M[k] = ((1, l_k),)
    assert scalar_table(f, other) != table and builds == [6, 6]
    assert scalar_table(f, g) == table and builds == [6, 6, 6]
