"""Formal group laws with commutative-monoid actions, in exact arithmetic.

The pieces: coefficient rings (`rings`), truncated multivariate series
(`series`), the monoid zoo (`monoids`), laws and actions (`laws`),
Lubin-Tate constructions (`lubin_tate`), addition recovered from an action
(`recovery`), truncated universal presentations (`universal`), and the
command line (`cli`).
"""

from .laws import (
    FglEndomorphism,
    FormalGroupLaw,
    MonoidAction,
    action_from_bundle,
    check_axioms_series,
    formal_inverse,
    from_logarithm,
    logarithm,
    verify_action,
)
from .lubin_tate import (
    LubinTateAction,
    LubinTateDatum,
    build_action,
    build_endomorphism,
    build_fgl,
    compare_lubin_tate,
    integrality_scan,
    multiplicative_datum,
    standard_datum,
)
from .monoids import (
    FinitelyPresentedMonoid,
    FreeCommutativeMonoid,
    MonoidMorphism,
    PadicTruncationMonoid,
    RingSubsetMonoid,
    monoid_from_descriptor,
    padic_truncation_of,
)
from .recovery import (
    RecoveredRing,
    build_addition_table,
    recover_sum,
    transport_structure,
    variation_demo,
)
from .rings import (
    EisensteinExtension,
    IntegerRing,
    PadicIntegers,
    PolynomialQuotient,
    RationalField,
    RingElement,
)
from .series import TruncatedSeries
from .universal import (
    UniversalPresentation,
    classify_fgl,
    functoriality_map,
    generate_presentation,
    ideal_membership,
    nontriviality_witness,
    specialize,
    z_two_variable_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
