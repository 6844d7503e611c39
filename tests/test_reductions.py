"""Problem reductions: input validation, constant checks, bundled scripts."""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from hedonic_dynamics import cli, search
from hedonic_dynamics.cli import parse_dimacs
from hedonic_dynamics.core import (
    StabilityKind,
    apply,
    enumerate_deviations,
    is_stable,
)
from hedonic_dynamics.dynamics import MoveFinder
from hedonic_dynamics.games import Color, classify_fhg
from hedonic_dynamics.instances import (
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
    verify_instance,
)

# a formula with exactly two positive and two negative occurrences of each
# variable and three distinct variables per clause
BALANCED = SatFormula(((1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)))

COVER_EASY = X3CInstance((1, 2, 3), ((1, 2, 3),))
COVER_TWO = X3CInstance(tuple(range(1, 7)), ((1, 2, 3), (4, 5, 6)))
COVER_SPARE = X3CInstance(tuple(range(1, 7)), ((1, 2, 3), (4, 5, 6), (1, 2, 4)))
NO_COVER = X3CInstance(tuple(range(1, 7)), ((1, 2, 3), (3, 4, 5), (5, 6, 1)))


# ---------------------------------------------------------------------------
# inputs and oracles
# ---------------------------------------------------------------------------


def test_formula_accessors():
    f = SatFormula(((1, -2), (2, 1)), num_vars=3)
    assert f.m == 2 and f.num_vars == 3
    pos, neg = f.occurrence_table()
    assert pos[1] == [1, 2] and neg[2] == [1] and pos[2] == [2]
    assert pos[3] == [] and neg[3] == []
    assert f.clause_slots() == (((1, True, 1), (2, False, 1)),
                                ((2, True, 1), (1, True, 2)))


def test_formula_validation():
    with pytest.raises(ReductionError):
        SatFormula(())
    with pytest.raises(ReductionError):
        SatFormula(((1, 0),))
    with pytest.raises(ReductionError):
        SatFormula(((),))
    with pytest.raises(ReductionError):
        SatFormula(((3,),), num_vars=2)


def test_dimacs_round_trip():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n"
    f = parse_dimacs(text)
    assert f.clauses == ((1, -2, 3), (-1, 2))
    assert f.num_vars == 3
    again = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 0\n")
    assert again == f
    # the declared variable count survives, even for a variable never used
    unused = parse_dimacs("p cnf 4 4\n1 2 3 0\n1 -2 -3 0\n-1 2 -3 0\n-1 -2 3 0\n")
    assert unused.num_vars == 4 and unused.clauses == BALANCED.clauses


def test_cover_input_validation():
    with pytest.raises(ReductionError):
        X3CInstance((1, 2), ())  # not a multiple of 3
    with pytest.raises(ReductionError):
        X3CInstance((1, 1, 2), ())
    with pytest.raises(ReductionError):
        X3CInstance((1, 2, 3), ((1, 2, 2),))
    with pytest.raises(ReductionError):
        X3CInstance((1, 2, 3), ((1, 2, 9),))


def test_brute_force_sat():
    sat = brute_force_sat(BALANCED)
    assert sat is not None and BALANCED.satisfied_by(sat)
    assert brute_force_sat(SatFormula(((1,), (-1,)))) is None


def test_brute_force_x3c():
    assert brute_force_x3c(COVER_EASY) == (0,)
    assert brute_force_x3c(COVER_SPARE) == (0, 1)
    assert brute_force_x3c(NO_COVER) is None
    assert brute_force_x3c(X3CInstance((), ())) == ()


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_unknown_kind():
    with pytest.raises(UnknownReductionKind):
        reduce("sat-to-mars", SatFormula(((1,),)))


def test_wrong_input_type():
    with pytest.raises(TypeError):
        reduce("sat-to-dhg-exists", COVER_EASY)
    with pytest.raises(TypeError):
        reduce("x3c-to-symfhg-exists", BALANCED)


def test_all_kinds_registered():
    assert len(REDUCTION_KINDS) == 11
    assert all("-to-" in kind for kind in REDUCTION_KINDS)


def test_builds_are_deterministic():
    a = reduce("x3c-to-symfhg-converge", COVER_SPARE)
    b = reduce("x3c-to-symfhg-converge", COVER_SPARE)
    assert a.labels == b.labels
    assert a.game.weights == b.game.weights
    assert a.scripts["ring-loop"].moves == b.scripts["ring-loop"].moves


# ---------------------------------------------------------------------------
# input-class gates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["sat-to-ahg-exists", "sat-to-ahg-converge",
                                  "sat-to-hdg-exists", "sat-to-hdg-converge"])
def test_balanced_class_rejections(kind):
    with pytest.raises(FormulaClassViolation):
        reduce(kind, SatFormula(((1, 2),)))  # short clause
    with pytest.raises(FormulaClassViolation):
        reduce(kind, SatFormula(((1, 1, 2),)))  # repeated variable
    with pytest.raises(FormulaClassViolation):
        # occurrence counts off: every variable needs two of each polarity
        reduce(kind, SatFormula(((1, 2, 3), (-1, -2, -3))))


def test_occurrence_cap_for_approval_encoding():
    too_many = SatFormula(((1, 1, 2), (1, 2, 2), (2, 1, 1)))  # five positive 1s
    with pytest.raises(FormulaClassViolation):
        reduce("sat-to-dhg-exists", too_many)
    with pytest.raises(FormulaClassViolation):
        reduce("sat-to-dhg-exists", SatFormula(((1, 2),)))  # two slots only


def test_cyclic_clause_chain_needs_two_clauses():
    with pytest.raises(FormulaClassViolation):
        reduce("sat-to-dhg-converge", SatFormula(((1, 2, 3),)))


def test_coverage_required():
    gappy = X3CInstance((1, 2, 3, 4, 5, 6), ((1, 2, 3),))
    for kind in ("x3c-to-symfhg-exists", "x3c-to-asymfhg-exists",
                 "x3c-to-asymfhg-converge"):
        with pytest.raises(FormulaClassViolation):
            reduce(kind, gappy)


def test_surplus_requirements():
    with pytest.raises(FormulaClassViolation):
        reduce("x3c-to-symfhg-converge", COVER_TWO)  # no spare set
    starved = X3CInstance((1, 2, 3, 4, 5, 6), ((1, 2, 3),))
    with pytest.raises(FormulaClassViolation):
        reduce("x3c-to-simplefhg-exists", starved)  # cannot even cover


# ---------------------------------------------------------------------------
# parameters and constant inequalities
# ---------------------------------------------------------------------------


def test_unknown_parameter_rejected():
    with pytest.raises(ReductionError):
        reduce("sat-to-ahg-exists", BALANCED, {"bogus": 3})
    with pytest.raises(ReductionError):
        reduce("x3c-to-symfhg-exists", COVER_EASY, {"link-weight": 4})


def test_scale_must_be_meaningful_integer():
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-ahg-exists", BALANCED, {"gadget-scale": 1})
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-ahg-exists", BALANCED, {"gadget-scale": "9"})


def test_size_families_must_stay_disjoint():
    # gadget sizes would collide across variables (7+7 == 2*7)
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-ahg-exists", BALANCED, {"gadget-scale": 7})
    # clause sizes would collide with the positive-occurrence family
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-ahg-exists", BALANCED, {"clause-scale": 256})


def test_ratio_chain_violations():
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-hdg-exists", BALANCED, {"clause-scale": 7})  # <= 2m-1
    with pytest.raises(ConstantInequalityViolation):
        # needs to clear 3p*clause-scale + 3p - 2 = 151
        reduce("sat-to-hdg-exists", BALANCED, {"variable-scale": 100})
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-hdg-converge", BALANCED, {"clause-scale": 26})


def test_link_weight_bracket():
    inst = reduce("x3c-to-symfhg-converge", COVER_SPARE)
    # one spare set: default halfway point of (2, 3)-slope pulls is 266
    alpha = Fraction(266)
    assert Fraction(1, 2) * alpha < 152 < Fraction(2, 3) * alpha
    a1 = inst.labels.index("ring.a1")
    tail = inst.labels.index("set1.tail")
    assert inst.game.weights[a1][tail] == alpha
    with pytest.raises(ConstantInequalityViolation):
        reduce("x3c-to-symfhg-converge", COVER_SPARE, {"link-weight": 200})
    with pytest.raises(ConstantInequalityViolation):
        reduce("x3c-to-symfhg-converge", COVER_SPARE, {"link-weight": 456})
    reduce("x3c-to-symfhg-converge", COVER_SPARE, {"link-weight": 300})


def test_link_weight_types():
    for value in (300, Fraction(300), "300", "900/3"):
        inst = reduce("x3c-to-symfhg-converge", COVER_SPARE, {"link-weight": value})
        a1 = inst.labels.index("ring.a1")
        weight = inst.game.weights[a1][inst.labels.index("set1.tail")]
        assert weight == 300 and type(weight) is Fraction
    for value in (True, None, [1], "abc", "1/0", 300.0):
        with pytest.raises(ConstantInequalityViolation, match="'link-weight'"):
            reduce("x3c-to-symfhg-converge", COVER_SPARE, {"link-weight": value})


def test_population_caps():
    with pytest.raises(ReductionTooLarge):
        reduce("sat-to-hdg-converge", BALANCED)  # default scales: 1.6M agents
    big = X3CInstance(
        tuple(range(1, 3 * 40 + 1)),
        tuple((3 * k + 1, 3 * k + 2, 3 * k + 3) for k in range(40)) * 3,
    )
    with pytest.raises(ReductionTooLarge):
        reduce("x3c-to-symfhg-exists", big)
    with pytest.raises(ReductionTooLarge):
        reduce("sat-to-dhg-converge",
               SatFormula(tuple((1, 2, 3) for _ in range(4))))


# ---------------------------------------------------------------------------
# size-based encodings
# ---------------------------------------------------------------------------


def test_size_exists_build_matches_hand_counts():
    inst = reduce("sat-to-ahg-exists", BALANCED)
    assert inst.game.n == 12484
    start = inst.starts["initial"]
    # each clause block holds j*1024 helpers at rest
    clause_sizes = sorted(
        len(block) for block in start.blocks
        if inst.labels[block[0]].startswith("clause")
    )
    assert clause_sizes == [1024 * j for j in range(1, 5)]
    verify_instance(inst)


def test_size_exists_cycle_is_scripted_not_forced():
    t0 = time.monotonic()
    inst = reduce("sat-to-ahg-exists", BALANCED)
    loop = inst.scripts["gadget-cycle"]
    first = enumerate_deviations(inst.game, loop.start, StabilityKind.IS)
    assert loop.moves[0] in first
    # scripted, not forced: the start offers other moves than the script's
    assert len(first) > 1
    assert first == list(MoveFinder(inst.game).iter_moves(loop.start))
    assert time.monotonic() - t0 < 60.0


def test_size_converge_build():
    inst = reduce("sat-to-ahg-converge", BALANCED)
    assert inst.game.n == 17413
    assert not inst.scripts
    verify_instance(inst)


def test_ratio_exists_build():
    inst = reduce("sat-to-hdg-exists", BALANCED)
    assert inst.game.n == 296524
    assert inst.game.reds == sum(1 for c in inst.game.colors if c is Color.RED)
    verify_instance(inst)


def test_ratio_converge_build_with_small_scales():
    inst = reduce(
        "sat-to-hdg-converge", BALANCED,
        {"clause-scale": 28, "pos-scale": 250, "neg-scale": 1600,
         "relay-scale": 14500},
    )
    assert inst.game.n == 92703
    verify_instance(inst)


def test_standalone_gadget_cycle():
    inst = variable_gadget_cycle()
    assert inst.game.n == 22
    verify_instance(inst)
    # the cycle is forced: each state admits exactly the scripted move
    state = inst.starts["initial"]
    for move in inst.scripts["loop"].moves:
        options = enumerate_deviations(inst.game, state, StabilityKind.IS)
        assert options == [move]
        state = apply(state, move)
    assert state == inst.starts["initial"]


# ---------------------------------------------------------------------------
# coverage encodings
# ---------------------------------------------------------------------------


def test_symmetric_cover_settles():
    for problem in (COVER_EASY, COVER_TWO, COVER_SPARE):
        inst = reduce("x3c-to-symfhg-exists", problem)
        verify_instance(inst)
        assert is_stable(inst.game, inst.starts["settled"], StabilityKind.IS)


def test_symmetric_cover_without_cover_has_no_script():
    inst = reduce("x3c-to-symfhg-exists", NO_COVER)
    assert not inst.scripts
    verify_instance(inst)


def test_symmetric_converge_ring_cycle():
    inst = reduce("x3c-to-symfhg-converge", COVER_SPARE)
    assert inst.game.n == 36
    verify_instance(inst)
    traits = classify_fhg(inst.game)
    assert traits.symmetric and traits.nonnegative and not traits.simple


def test_arc_cover_instances():
    yes = reduce("x3c-to-asymfhg-exists", COVER_EASY)
    assert yes.game.n == 4
    verify_instance(yes)
    no = reduce("x3c-to-asymfhg-exists", NO_COVER)
    assert no.game.n == 18
    assert classify_fhg(no.game).acyclic is False  # one spare triangle
    verify_instance(no)
    dag = reduce("x3c-to-asymfhg-exists", COVER_TWO)
    assert classify_fhg(dag.game).acyclic is True


def test_arc_converge_instances():
    yes = reduce("x3c-to-asymfhg-converge", COVER_EASY)
    assert yes.game.n == 9
    verify_instance(yes)
    no = reduce("x3c-to-asymfhg-converge", NO_COVER)
    assert no.game.n == 23
    verify_instance(no)


def test_mixed_arc_cover():
    tight = reduce("x3c-to-simplefhg-exists", COVER_EASY)
    assert tight.game.n == 15
    verify_instance(tight)
    assert is_stable(tight.game, tight.starts["settled"], StabilityKind.IS)
    spare = reduce("x3c-to-simplefhg-exists", COVER_SPARE)
    assert spare.game.n == 39
    verify_instance(spare)
    traits = classify_fhg(spare.game)
    assert traits.simple and not traits.simple_asymmetric


# ---------------------------------------------------------------------------
# approval encodings
# ---------------------------------------------------------------------------


def test_approval_exists_toys_verify():
    for name, formula in toy_formula_catalog():
        inst = reduce("sat-to-dhg-exists", formula)
        satisfiable = brute_force_sat(formula) is not None
        assert ("settle" in inst.scripts) == satisfiable, name
        verify_instance(inst)


def test_approval_exists_one_clause_shape():
    inst = reduce("sat-to-dhg-exists", SatFormula(((1, 2, 3),)))
    assert inst.game.n == 15  # 3 clause agents + 3 per variable + 3 occurrences
    verify_instance(inst)


def test_approval_converge_scripts():
    sat = reduce("sat-to-dhg-converge", SatFormula(((1,), (1,))))
    assert sat.game.n == 6
    assert len(sat.scripts["loop"].moves) == 6
    verify_instance(sat)
    unsat = reduce("sat-to-dhg-converge", SatFormula(((1,), (-1,))))
    assert not unsat.scripts
    verify_instance(unsat)


# ---------------------------------------------------------------------------
# end-to-end search verdicts
#
# Exhaustive reachability is affordable only on the smallest outputs: the
# approval-game build for a two-clause formula (18 agents) resolves in a few
# seconds, while a three-clause build (27 agents) already exhausts a
# 3M-state budget.  The tests below pin the verdicts on everything that
# measures fast and leave larger builds to the script-level checks above.
# ---------------------------------------------------------------------------

_ROUNDTRIP_CAP = 18


def _roundtrip_budget():
    return search.SearchBudget(max_states=2_000_000, max_seconds=90)


def test_approval_exists_verdict_matches_sat_oracle():
    exercised = []
    for name, formula in toy_formula_catalog():
        inst = reduce("sat-to-dhg-exists", formula)
        if inst.game.n > _ROUNDTRIP_CAP:
            continue
        answer = search.exists_path_to_is(
            inst.game, inst.starts["initial"], budget=_roundtrip_budget()
        )
        assert not isinstance(answer, search.BudgetExhausted), name
        found = isinstance(answer, search.PathFound)
        assert found == (brute_force_sat(formula) is not None), name
        exercised.append(name)
    assert len(exercised) == 4


def test_approval_converge_verdict_matches_sat_oracle():
    for clauses in (((1,), (1,)), ((1,), (-1,)), ((1, 2), (-1, -2))):
        formula = SatFormula(clauses)
        inst = reduce("sat-to-dhg-converge", formula)
        answer = search.all_paths_converge(
            inst.game, inst.starts["initial"], budget=_roundtrip_budget()
        )
        satisfiable = brute_force_sat(formula) is not None
        if satisfiable:
            assert isinstance(answer, search.CycleReachable), clauses
        else:
            assert isinstance(answer, search.ConvergesAlways), clauses


def test_mutual_weight_exists_verdict_matches_cover_oracle():
    yes = reduce("x3c-to-symfhg-exists", COVER_EASY)
    answer = search.exists_path_to_is(
        yes.game, yes.starts["initial"], budget=_roundtrip_budget()
    )
    assert isinstance(answer, search.PathFound)


def test_one_way_weight_exists_verdict_matches_cover_oracle():
    yes = reduce("x3c-to-asymfhg-exists", COVER_EASY)
    found = search.exists_path_to_is(
        yes.game, yes.starts["initial"], budget=_roundtrip_budget()
    )
    assert isinstance(found, search.PathFound)
    no = reduce("x3c-to-asymfhg-exists", NO_COVER)
    missing = search.exists_path_to_is(
        no.game, no.starts["initial"], budget=_roundtrip_budget()
    )
    assert isinstance(missing, search.NoPath)


def test_one_way_weight_converge_verdict_matches_cover_oracle():
    yes = reduce("x3c-to-asymfhg-converge", COVER_EASY)
    spinning = search.all_paths_converge(
        yes.game, yes.starts["initial"], budget=_roundtrip_budget()
    )
    assert isinstance(spinning, search.CycleReachable)
    no = reduce("x3c-to-asymfhg-converge", NO_COVER)
    settled = search.all_paths_converge(
        no.game, no.starts["initial"], budget=_roundtrip_budget()
    )
    assert isinstance(settled, search.ConvergesAlways)


def test_membership_weight_exists_verdict_on_yes_instance():
    yes = reduce("x3c-to-simplefhg-exists", COVER_EASY)
    answer = search.exists_path_to_is(
        yes.game, yes.starts["initial"], budget=_roundtrip_budget()
    )
    assert isinstance(answer, search.PathFound)


# ---------------------------------------------------------------------------
# golden builds: every kind's output and one rejection per kind, pinned
# ---------------------------------------------------------------------------

COVER_NINE = X3CInstance(
    tuple(range(1, 10)), ((1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8))
)
GAPPY = X3CInstance(tuple(range(1, 7)), ((1, 2, 3),))

#: kind -> (input, params, agent count, sha256 of ``cli.dumps_instance``);
#: the size and ratio kinds use small scales to keep the builds quick
GOLDEN_BUILDS = {
    "sat-to-ahg-exists": (
        BALANCED,
        {"clause-scale": 45, "pos-scale": 56, "neg-scale": 39, "gadget-scale": 8},
        1200, "f9ab4868aaeae1b4a7553813ef0d14fbd4a51df5191076794cb8880d552b1e0a",
    ),
    "sat-to-ahg-converge": (
        BALANCED,
        {"clause-scale": 15, "pos-scale": 48, "neg-scale": 34, "pos-relay": 4,
         "neg-relay": 39},
        988, "83133d45241063cce76db28490751400aa092d4de8f068bb491f444200421a3f",
    ),
    "sat-to-hdg-exists": (
        BALANCED,
        {"clause-scale": 8, "variable-scale": 80, "gadget-scale": 1476},
        27092, "a1cbb000dea9f83a156e02fa1c0cb7c0735349e9742b2be850f24b6d995c3fcb",
    ),
    "sat-to-hdg-converge": (
        BALANCED,
        {"clause-scale": 27, "pos-scale": 202, "neg-scale": 1224,
         "relay-scale": 11033},
        70624, "3776820418eb7c9da8cef2d7585e005a160181bdceb9cad6048e7f61de34ae95",
    ),
    "x3c-to-symfhg-exists": (
        COVER_SPARE, None,
        57, "dde59b4e114b10a88bf5a6d96ff7bfa207ea88849f5d7027a8698f96c794c14a",
    ),
    "x3c-to-symfhg-converge": (
        COVER_NINE, None,
        49, "fe9859fcd1e48aa40b434c95622f833ed929829860fde046d75851c5743fba92",
    ),
    "x3c-to-asymfhg-exists": (
        COVER_NINE, None,
        32, "bf00618d6d08315206f9d05b13e3338465f347edd2dd736b56799191fd812df7",
    ),
    "x3c-to-asymfhg-converge": (
        COVER_NINE, None,
        37, "cd1781b5b20e9589c5558be2ff2f6360086df9ee0b9022407ce2607313262506",
    ),
    "x3c-to-simplefhg-exists": (
        COVER_SPARE, None,
        39, "9565e7851e2c4d7984a9e6a66ce151f8b4cb59629a0cb3fd085d8d787bd13803",
    ),
    "sat-to-dhg-exists": (
        SatFormula(((1, 1, 2), (-1, -1, 2))), None,
        18, "69fdb010993729b13d66ebcb399c2b3deba49de855f15d9c5a7b93dd03766bef",
    ),
    "sat-to-dhg-converge": (
        SatFormula(((1, 2), (-1, 2))), None,
        8, "40e0f9d48d28705cfa8d4e8b6f9b96f7da69fdb021a28d8faceefd6041915c5a",
    ),
}

#: kind -> (input, params, exception type, message)
GOLDEN_ERRORS = {
    "sat-to-ahg-exists": (
        BALANCED, {"gadget-scale": 7}, ConstantInequalityViolation,
        "sat-to-ahg-exists: size 14 belongs to both the gadget and gadget families",
    ),
    "sat-to-ahg-converge": (
        BALANCED, {"pos-relay": True}, ConstantInequalityViolation,
        "sat-to-ahg-converge parameter 'pos-relay' must be an integer >= 2; got True",
    ),
    "sat-to-hdg-exists": (
        BALANCED, {"clause-scale": 7}, ConstantInequalityViolation,
        "clause-scale 7 must exceed 2m-1 = 7",
    ),
    "sat-to-hdg-converge": (
        BALANCED, {"clause-scale": 26}, ConstantInequalityViolation,
        "clause-scale 26 must exceed 6m+2 = 26",
    ),
    "x3c-to-symfhg-exists": (
        COVER_SPARE, {"link-weight": 4}, ReductionError,
        "x3c-to-symfhg-exists takes no parameters; got ['link-weight']",
    ),
    "x3c-to-symfhg-converge": (
        COVER_SPARE, {"link-weight": 200}, ConstantInequalityViolation,
        "link-weight 200 too small: a 2-tail hold must stay above the triangle pull 152",
    ),
    "x3c-to-asymfhg-exists": (
        GAPPY, None, FormulaClassViolation,
        "x3c-to-asymfhg-exists: element(s) [4, 5, 6] appear in no candidate set",
    ),
    "x3c-to-asymfhg-converge": (
        COVER_NINE, {"bogus": 3}, ReductionError,
        "x3c-to-asymfhg-converge takes no parameters; got ['bogus']",
    ),
    "x3c-to-simplefhg-exists": (
        GAPPY, None, FormulaClassViolation,
        "x3c-to-simplefhg-exists: 1 sets cannot cover 6 elements",
    ),
    "sat-to-dhg-exists": (
        SatFormula(((1, 2),)), None, FormulaClassViolation,
        "clause 1 has 2 literals; this encoding needs exactly 3",
    ),
    "sat-to-dhg-converge": (
        SatFormula(tuple((1, 2, 3) for _ in range(4))), None, ReductionTooLarge,
        "sat-to-dhg-converge stores approval families extensionally; 20 agents "
        "exceed the cap of 16",
    ),
}


def _digest(instance):
    return hashlib.sha256(cli.dumps_instance(instance).encode()).hexdigest()


@pytest.mark.parametrize("kind", REDUCTION_KINDS)
def test_golden_build(kind):
    problem, params, n, digest = GOLDEN_BUILDS[kind]
    inst = reduce(kind, problem, params)
    assert inst.game.n == n
    assert _digest(inst) == digest


@pytest.mark.parametrize("kind", REDUCTION_KINDS)
def test_golden_rejection(kind):
    problem, params, error, message = GOLDEN_ERRORS[kind]
    with pytest.raises(error) as caught:
        reduce(kind, problem, params)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_golden_gadget_cycle():
    digest = "defdb95c36c382346cfeb1276ee25fe73b4c7d0403b86c14b00ad2a595736c6e"
    assert _digest(variable_gadget_cycle()) == digest


def test_empty_cover_input(tmp_path, capsys):
    empty = X3CInstance((), ())
    for kind in ("x3c-to-symfhg-exists", "x3c-to-asymfhg-exists",
                 "x3c-to-simplefhg-exists"):
        with pytest.raises(ReductionError, match=kind):
            reduce(kind, empty)
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ground": [], "sets": []}))
    codes = {}
    for kind in REDUCTION_KINDS:
        if kind.startswith("x3c"):
            codes[kind] = cli.main(["gen", "--reduce", kind, "--input", str(path)])
            assert "Traceback" not in capsys.readouterr().err
    assert codes == {
        "x3c-to-symfhg-exists": 2,
        "x3c-to-symfhg-converge": 2,
        "x3c-to-asymfhg-exists": 2,
        "x3c-to-asymfhg-converge": 0,  # the three hubs still spin
        "x3c-to-simplefhg-exists": 2,
    }
