"""Formal group laws with commutative-monoid actions, in exact arithmetic.

The package exports nothing of its own: import each module by name. The
pieces: coefficient rings (`fgl.rings`), truncated multivariate series
(`fgl.series`), the monoid zoo (`fgl.monoids`), laws and actions
(`fgl.laws`), Lubin-Tate constructions (`fgl.lubin_tate`), addition
recovered from an action (`fgl.recovery`), truncated universal
presentations (`fgl.universal`), and the command line (`fgl.cli`).
"""
