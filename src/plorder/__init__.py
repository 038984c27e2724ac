"""Exact piecewise-linear homeomorphism groups, left-invariant preorders,
and finite-scale dynamical realizations."""

from .exactnum import (
    LatticePreorder,
    NotInGroup,
    SlopeGroup,
    format_rational,
    module_index,
    parse_rational,
)
from .plgroup import (
    PLMap,
    ball,
    bs_g,
    bs_g_minus,
    bs_g_plus,
    commutator,
    f_big_generator,
    jump_cocycle,
    standard_generators,
    tau1,
    thompson_f_pair,
    translation,
    two_chain_witness,
    verify_relators,
)
from .preorders import (
    DiscreteInvariantSet,
    EscapingContext,
    EscapingEngine,
    JumpEngine,
    PrimeJumpEngine,
    RestrictionEngine,
    Sign,
    axioms_report,
    restriction_sign,
    xg,
)

__version__ = "0.1.0"
