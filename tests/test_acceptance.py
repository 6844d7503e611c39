"""Top-level acceptance checks, one test per advertised behavior.

Each test times itself and asserts its wall-clock budget at the end, so a
slow regression fails the same way a wrong answer does.  Randomized checks
draw from fixed seeds; reruns see the same instances.
"""

import random
import time

import pytest

from conftest import (
    rand_ahg,
    rand_dag_fhg,
    rand_dhg,
    rand_fhg,
    rand_hdg,
    rand_partition,
)

from hedonic_dynamics import search
from hedonic_dynamics.core import (
    Partition,
    StabilityKind,
    apply,
    enumerate_deviations,
    is_stable,
)
from hedonic_dynamics.dynamics import (
    Converged,
    DeviationFilter,
    Filtered,
    Lexicographic,
    RunConfig,
    SeededRandom,
    passes_filter,
    replay,
    run,
)
from hedonic_dynamics.games import Color
from hedonic_dynamics.instances import (
    ConstantInequalityViolation,
    SatFormula,
    X3CInstance,
    brute_force_sat,
    build,
    reduce,
    toy_formula_catalog,
    variable_gadget_cycle,
    verify_instance,
)
from hedonic_dynamics.potentials import (
    AscentCreditMonitor,
    LexPotentialMonitor,
    PairCountMonitor,
)


def test_01_size_game_15_has_no_is_partition():
    t0 = time.monotonic()
    inst = build("ahg15")
    answer = search.exists_is_partition(inst.game, search.TypeReduced())
    assert isinstance(answer, search.NoStablePartition)
    cycle = inst.scripts["cycle"]
    trace = replay(inst.game, cycle.start, cycle.moves)
    assert len(trace) == 6 and trace.final == cycle.start
    assert time.monotonic() - t0 < 60.0


def test_02_size_game_7_cycle_and_reachability():
    t0 = time.monotonic()
    inst = build("ahg7")
    cycle = inst.scripts["cycle"]
    trace = replay(inst.game, cycle.start, cycle.moves)
    assert len(trace) == 6 and trace.final == cycle.start
    for name, origin in (
        ("reach-from-singletons", inst.starts["singletons"]),
        ("reach-from-grand", inst.starts["grand"]),
    ):
        script = inst.scripts[name]
        assert script.start == origin
        assert replay(inst.game, script.start, script.moves).final == cycle.start
    idx = {label: agent for agent, label in enumerate(inst.labels)}
    witness = Partition(
        [[idx["1"]], [idx["3"], idx["5"], idx["6"]], [idx["2"], idx["4"], idx["7"]]]
    )
    assert witness == inst.starts["is-witness"]
    assert is_stable(inst.game, witness, StabilityKind.IS)
    assert time.monotonic() - t0 < 1.0


def test_03_strict_peaked_size_games_converge_with_credit_bounds():
    t0 = time.monotonic()
    rng = random.Random(0xA3)
    for trial in range(200):
        n = rng.randint(5, 40)
        game = rand_ahg(rng, n, strict=True, sp=True)
        start = Partition.singletons(n) if trial % 2 else rand_partition(rng, n)
        cap = n**3 + n**2
        for policy in (Lexicographic(), SeededRandom(rng.randrange(2**32))):
            outcome = run(
                game,
                start,
                policy,
                RunConfig(
                    max_steps=cap + 1,
                    detect_cycles=False,
                    monitors=(AscentCreditMonitor, PairCountMonitor),
                ),
            )
            assert isinstance(outcome, Converged)
            assert outcome.steps <= cap
            states = outcome.trace.states()
            credit = outcome.trace.start_readings["lambda"]["value"]
            pairs = outcome.trace.start_readings["gamma"]
            for i, step in enumerate(outcome.trace.steps):
                was = len(states[i].coalition_of(step.move.agent))
                now = len(states[i + 1].coalition_of(step.move.agent))
                credit_now = step.readings["lambda"]["value"]
                pairs_now = step.readings["gamma"]
                assert credit_now >= credit
                if now > was:  # move into a larger coalition
                    assert credit_now > credit
                    assert 1 <= pairs_now - pairs <= n - 1
                else:
                    assert pairs_now - pairs <= -1
                credit, pairs = credit_now, pairs_now
            assert credit <= n * n
    assert time.monotonic() - t0 < 300.0


def test_04_weak_peaked_size_games_terminate():
    rng = random.Random(0xA4)
    for trial in range(200):
        n = rng.randint(3, 20)
        game = rand_ahg(rng, n, strict=False, sp=True)
        start = rand_partition(rng, n) if trial % 3 == 0 else Partition.singletons(n)
        policy = Lexicographic() if trial % 2 else SeededRandom(rng.randrange(2**32))
        outcome = run(game, start, policy, RunConfig(max_steps=10**6))
        assert isinstance(outcome, Converged)


def test_05_two_color_cycle_constructions_replay():
    t0 = time.monotonic()
    advertised = {
        "hdg12-no-sp": {"strict": True, "natural-sp": False},
        "hdg10-weak": {"strict": False, "natural-sp": True},
        "hdg26-sp-strict-solitary": {"strict": True, "natural-sp": True},
        "hdg-assembled": {"strict": True, "natural-sp": True},
    }
    for iid, properties in advertised.items():
        inst = build(iid)
        verify_instance(inst)
        holds = {(c.kind, c.subject): c.holds for c in inst.expected}
        for kind, expected in properties.items():
            assert holds[(kind, "")] is expected, (iid, kind)
        assert holds[("cycle", "cycle")] and holds[("filtered", "cycle")]
        cycle = inst.scripts["cycle"]
        assert replay(inst.game, cycle.start, cycle.moves).final == cycle.start
    solitary = build("hdg26-sp-strict-solitary")
    for move in solitary.scripts["cycle"].moves:
        assert passes_filter(solitary.game, move, DeviationFilter.SOLITARY_HOMOGENEITY)
    # the assembled run needs unfiltered moves to set up, but cycles filtered
    assembled = build("hdg-assembled")
    holds = {(c.kind, c.subject): c.holds for c in assembled.expected}
    assert holds[("filtered", "build")] is False
    assert time.monotonic() - t0 < 5.0


def test_06_two_color_forced_cycles():
    t0 = time.monotonic()
    for iid in ("hdg10-forced-strict", "hdg10-forced-weak-sp"):
        inst = build(iid)
        cycle = inst.scripts["cycle"]
        assert len(cycle.moves) == 6
        state = cycle.start
        for move in cycle.moves:
            assert enumerate_deviations(inst.game, state, StabilityKind.IS) == [move]
            state = apply(state, move)
        assert state == cycle.start
        answer = search.all_paths_converge(inst.game, inst.starts["cycle-start"])
        assert isinstance(answer, search.CycleReachable)
    assert time.monotonic() - t0 < 10.0


def test_07_filtered_two_color_runs_converge_in_shape():
    t0 = time.monotonic()
    rng = random.Random(0xA7)
    for trial in range(200):
        n = rng.randint(2, 24)
        reds = rng.randint(1, n - 1)
        game = rand_hdg(rng, reds, n - reds, strict=True, sp=True)
        base = Lexicographic() if trial % 2 else SeededRandom(rng.randrange(2**32))
        outcome = run(
            game,
            Partition.singletons(n),
            Filtered(base),
            RunConfig(max_steps=n**5 + 1, detect_cycles=False),
        )
        assert isinstance(outcome, Converged)
        assert outcome.steps <= n**5
        for state in outcome.trace.states():
            for block in state.blocks:
                red_count = sum(1 for a in block if game.colors[a] is Color.RED)
                # singletons, or mixed blocks where the minority color has
                # exactly one agent; same-color blocks never exceed size one
                assert len(block) == 1 or min(red_count, len(block) - red_count) == 1
    assert time.monotonic() - t0 < 600.0


def test_08_average_game_15_has_no_is_partition():
    t0 = time.monotonic()
    inst = build("fhg15")
    answer = search.exists_is_partition(inst.game, search.PrunedFHG())
    assert isinstance(answer, search.NoStablePartition)
    rotation = inst.scripts["rotation"]
    trace = replay(inst.game, rotation.start, rotation.moves)
    assert trace.final == rotation.start
    # the loop opens with the first triangle migrating into the second block
    movers = [inst.labels[m.agent] for m in rotation.moves[:3]]
    assert movers == ["a1", "b1", "c1"]
    assert time.monotonic() - t0 < 60.0


def test_09_mutual_simple_average_games_converge_quickly():
    t0 = time.monotonic()
    rng = random.Random(0xA9)
    for trial in range(150):
        n = rng.randint(2, 30)
        game = rand_fhg(rng, n, symmetric=True, simple=True)
        cap = n * (n - 1) // 2
        policy = Lexicographic() if trial % 2 else SeededRandom(rng.randrange(2**32))
        outcome = run(
            game,
            Partition.singletons(n),
            policy,
            RunConfig(max_steps=cap + 1, detect_cycles=False,
                      monitors=(PairCountMonitor,)),
        )
        assert isinstance(outcome, Converged)
        assert outcome.steps <= cap
        pairs = outcome.trace.start_readings["gamma"]
        for step in outcome.trace.steps:
            assert step.readings["gamma"] > pairs
            pairs = step.readings["gamma"]
    for k in (3, 4, 5):
        inst = build(f"fhg-clique({k})")
        setup = inst.scripts["build"]
        assert len(replay(inst.game, setup.start, setup.moves)) == inst.game.n - k
        tour = inst.scripts["tour"]
        trace = replay(inst.game, tour.start, tour.moves)
        assert len(trace) == (k - 1) * k * (k + 1) // 6
        assert trace.final == inst.starts["grand"]
        assert is_stable(inst.game, trace.final, StabilityKind.IS)
    assert time.monotonic() - t0 < 60.0


def test_10_one_way_acyclic_average_games_converge():
    t0 = time.monotonic()
    triangle = build("fhg-triangle")
    answer = search.all_paths_converge(triangle.game, triangle.starts["singletons"])
    assert isinstance(answer, search.CycleReachable)
    rng = random.Random(0xAA)
    for trial in range(500):
        n = rng.randint(2, 20)
        game = rand_dag_fhg(rng, n)
        policy = Lexicographic() if trial % 2 else SeededRandom(rng.randrange(2**32))
        # the attached monitor raises unless its pair drops on every step
        outcome = run(
            game,
            Partition.singletons(n),
            policy,
            RunConfig(max_steps=n**4 + 1, detect_cycles=False,
                      monitors=(LexPotentialMonitor,)),
        )
        assert isinstance(outcome, Converged)
        assert outcome.steps <= n**4
    assert time.monotonic() - t0 < 300.0


def test_11_three_agent_approval_game_reachability():
    t0 = time.monotonic()
    inst = build("dhg3")
    singles = inst.starts["singletons"]
    assert isinstance(search.exists_path_to_is(inst.game, singles), search.NoPath)
    assert isinstance(
        search.all_paths_converge(inst.game, singles), search.CycleReachable
    )
    partitions = list(search.enumerate_partitions(3))
    assert len(partitions) == 5
    stable = [p for p in partitions if is_stable(inst.game, p, StabilityKind.IS)]
    assert stable == [Partition.grand(3)]
    assert time.monotonic() - t0 < 1.0


def test_12_symmetric_approval_games_converge():
    t0 = time.monotonic()
    rng = random.Random(0xAC)
    for trial in range(300):
        n = rng.randint(2, 12)
        game = rand_dhg(
            rng, n, density=rng.choice((0.15, 0.3, 0.5)), symmetric=True
        )
        start = rand_partition(rng, n)
        policy = Lexicographic() if trial % 2 else SeededRandom(rng.randrange(2**32))
        outcome = run(game, start, policy)
        assert isinstance(outcome, Converged)
    assert time.monotonic() - t0 < 120.0


def test_13_formula_reductions_match_sat_oracle():
    t0 = time.monotonic()
    budget = search.SearchBudget(max_states=2_000_000, max_seconds=60)
    exercised = 0
    for name, formula in toy_formula_catalog():
        inst = reduce("sat-to-dhg-exists", formula)
        if inst.game.n > 18:
            continue  # larger builds exceed a desk-scale reachability budget
        answer = search.exists_path_to_is(
            inst.game, inst.starts["initial"], budget=budget
        )
        assert not isinstance(answer, search.BudgetExhausted), name
        found = isinstance(answer, search.PathFound)
        assert found == (brute_force_sat(formula) is not None), name
        exercised += 1
    assert exercised == 4

    gadget = variable_gadget_cycle()
    verify_instance(gadget)
    loop = gadget.scripts["loop"]
    assert replay(gadget.game, loop.start, loop.moves).final == loop.start

    # constant checks fire during the build: defaults pass, undersized overrides raise
    balanced = SatFormula(((1, 2, 3), (1, -2, -3), (-1, 2, -3), (-1, -2, 3)))
    spare = X3CInstance(tuple(range(1, 7)), ((1, 2, 3), (4, 5, 6), (1, 2, 4)))
    assert reduce("sat-to-hdg-exists", balanced).game.n > 0
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-hdg-exists", balanced, {"clause-scale": 7})
    with pytest.raises(ConstantInequalityViolation):
        reduce("sat-to-hdg-converge", balanced, {"clause-scale": 26})
    with pytest.raises(ConstantInequalityViolation):
        reduce("x3c-to-symfhg-converge", spare, {"link-weight": 200})
    assert time.monotonic() - t0 < 120.0


def test_14_search_strategies_agree():
    t0 = time.monotonic()
    rng = random.Random(0xAE)
    for _ in range(100):
        n = rng.randint(2, 8)
        game = rand_ahg(rng, n)
        plain = search.exists_is_partition(game, search.Plain())
        reduced = search.exists_is_partition(game, search.TypeReduced())
        assert type(plain) is type(reduced)
        if isinstance(plain, search.StableExists):
            assert is_stable(game, plain.witness, StabilityKind.IS)
            assert is_stable(game, reduced.witness, StabilityKind.IS)
    for _ in range(100):
        n = rng.randint(2, 7)
        game = rand_fhg(rng, n, symmetric=True)
        plain = search.exists_is_partition(game, search.Plain())
        pruned = search.exists_is_partition(game, search.PrunedFHG())
        assert type(plain) is type(pruned)
        if isinstance(plain, search.StableExists):
            assert is_stable(game, plain.witness, StabilityKind.IS)
            assert is_stable(game, pruned.witness, StabilityKind.IS)
    assert time.monotonic() - t0 < 300.0
