"""Bundled game instances: the verified catalog, problem reductions, and
seeded random generation.  Everything ships as a :class:`NamedInstance` whose
claims can be re-checked with :func:`verify_instance`.
"""

from .catalog import (
    Claim,
    ClaimFailed,
    NamedInstance,
    UnknownId,
    build,
    catalog_ids,
    check_claim,
    clique_blocks,
    triangle_ring_weights,
    verify_instance,
    walk_moves,
)
from .randgen import GENERATOR_KINDS, InconsistentRestrictions, random
from .reductions import (
    ConstantInequalityViolation,
    FormulaClassViolation,
    REDUCTION_KINDS,
    ReductionError,
    ReductionTooLarge,
    SatFormula,
    UnknownReductionKind,
    X3CInstance,
    brute_force_sat,
    brute_force_x3c,
    reduce,
    toy_formula_catalog,
    variable_gadget_cycle,
)

__all__ = [
    "Claim",
    "ClaimFailed",
    "ConstantInequalityViolation",
    "FormulaClassViolation",
    "GENERATOR_KINDS",
    "InconsistentRestrictions",
    "NamedInstance",
    "REDUCTION_KINDS",
    "ReductionError",
    "ReductionTooLarge",
    "SatFormula",
    "UnknownId",
    "UnknownReductionKind",
    "X3CInstance",
    "brute_force_sat",
    "brute_force_x3c",
    "build",
    "catalog_ids",
    "check_claim",
    "clique_blocks",
    "random",
    "reduce",
    "toy_formula_catalog",
    "triangle_ring_weights",
    "variable_gadget_cycle",
    "verify_instance",
    "walk_moves",
]
