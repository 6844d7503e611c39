import random

import pytest

from hedonic_dynamics import core
from hedonic_dynamics.core import (
    NEW_SINGLETON,
    DeviationMove,
    Partition,
    StabilityKind,
    canonicalize,
    is_stable,
)
from hedonic_dynamics.dynamics import (
    Converged,
    CycleDetected,
    DeviationFilter,
    DynamicsError,
    Filtered,
    FilterStarvation,
    Lexicographic,
    MoveFinder,
    RunConfig,
    Scripted,
    ScriptedMoveInvalid,
    SeededRandom,
    StepLimitReached,
    passes_filter,
    replay,
    run,
    validate_trace,
)
from hedonic_dynamics.games import (
    AnonymousGame,
    Color,
    DichotomousGame,
    DiversityGame,
    WeakOrder,
)

from conftest import (
    rand_ahg,
    rand_dhg,
    rand_fhg,
    rand_hdg,
    rand_partition,
    rand_sp_order,
)

R, B = Color.RED, Color.BLUE
IS = StabilityKind.IS


def three_cycle_dhg() -> DichotomousGame:
    # each agent approves exactly one pair; chasing it forever
    return DichotomousGame(3, [[(0, 1)], [(1, 2)], [(0, 2)]])


def rand_game(rng, trial, n):
    """A random game of each of the four classes in turn."""
    kind = trial % 4
    if kind == 0:
        return rand_ahg(rng, n)
    if kind == 1:
        reds = rng.randint(0, n)
        return rand_hdg(rng, reds, n - reds, strict=False)
    if kind == 2:
        return rand_fhg(rng, n)
    return rand_dhg(rng, n)


def test_move_finder_matches_core_enumeration():
    rng = random.Random(101)
    cases = []
    for trial in range(200):
        g = rand_game(rng, trial, rng.randint(2, 7))
        states = [Partition.grand(g.n), Partition.singletons(g.n)]
        cases.append((g, states + [rand_partition(rng, g.n) for _ in range(6)]))
    # the movers in {0,1,2,3} hold the only block with 2 reds out of 4: one
    # more red there would be ratio 3/5, outside this game's ratio domain
    colors = [R, R, B, B, B]
    order = WeakOrder([[r] for r in games_ratios(colors)])
    trap = DiversityGame(colors, [order] * 5)
    cases.append((trap, [Partition([[0, 1, 2, 3], [4]])]))
    for g, states in cases:
        finder = MoveFinder(g)
        for p in states:
            fast = list(finder.iter_moves(p))
            reference = core.enumerate_deviations(g, p, IS)
            assert fast == reference, (g.kind, p)
            assert finder.has_move(p) == bool(reference)


def test_move_finder_cache_stays_correct_along_a_run():
    rng = random.Random(103)
    for trial in range(40):
        g = rand_game(rng, trial, rng.randint(3, 7))
        finder = MoveFinder(g)
        p = rand_partition(rng, g.n)
        for _ in range(25):
            fast = list(finder.iter_moves(p))
            assert fast == core.enumerate_deviations(g, p, IS)
            if not fast:
                break
            p = core.apply(p, fast[0])


def test_lexicographic_run_converges_and_final_is_stable():
    # everyone prefers pairs, then singletons, then larger coalitions
    n = 6
    order = WeakOrder([[2], [1], [3], [4], [5], [6]])
    g = AnonymousGame([order] * n)
    out = run(g, Partition.singletons(n), Lexicographic())
    assert isinstance(out, Converged)
    assert is_stable(g, out.final, IS)
    assert sorted(len(b) for b in out.final.blocks) == [2, 2, 2]
    assert out.steps == len(out.trace.steps)
    validate_trace(g, out.trace)


def test_converged_in_zero_steps_on_stable_start():
    g = DichotomousGame(3, [[], [], []])
    out = run(g, Partition.singletons(3), Lexicographic())
    assert isinstance(out, Converged)
    assert out.steps == 0
    assert out.final == Partition.singletons(3)


def test_cycle_detected_on_pair_chasing_dhg():
    g = three_cycle_dhg()
    out = run(g, Partition.singletons(3), Lexicographic())
    assert isinstance(out, CycleDetected)
    assert out.cycle_len == 3
    states = out.witness.states()
    a = canonicalize(states[out.prefix_len])
    b = canonicalize(states[out.prefix_len + out.cycle_len])
    assert a == b


def test_step_limit_reached_when_budget_too_small():
    g = three_cycle_dhg()
    out = run(g, Partition.singletons(3), Lexicographic(), RunConfig(max_steps=1))
    assert isinstance(out, StepLimitReached)
    assert len(out.trace.steps) == 1


def test_seeded_runs_are_reproducible():
    rng = random.Random(107)
    for _ in range(20):
        g = rand_ahg(rng, rng.randint(3, 6))
        start = rand_partition(rng, g.n)
        cfg = RunConfig(max_steps=300)
        out1 = run(g, start, SeededRandom(12345), cfg)
        out2 = run(g, start, SeededRandom(12345), cfg)
        t1 = out1.trace if not isinstance(out1, CycleDetected) else out1.witness
        t2 = out2.trace if not isinstance(out2, CycleDetected) else out2.witness
        assert t1.moves == t2.moves
        assert [canonicalize(s) for s in t1.states()] == [
            canonicalize(s) for s in t2.states()
        ]
        assert type(out1) is type(out2)


def test_converged_implies_stable_across_policies():
    rng = random.Random(109)
    for trial in range(60):
        n = rng.randint(2, 6)
        g = rand_dhg(rng, n) if trial % 2 else rand_fhg(rng, n)
        start = rand_partition(rng, n)
        policy = Lexicographic() if trial % 3 else SeededRandom(trial)
        out = run(g, start, policy, RunConfig(max_steps=400))
        if isinstance(out, Converged):
            assert is_stable(g, out.final, IS)


def test_scripted_policy_replays_and_validates():
    g = three_cycle_dhg()
    moves = [
        DeviationMove(0, (1,)),
        DeviationMove(1, (2,)),
        DeviationMove(2, (0,)),
        DeviationMove(0, (1,)),
    ]
    out = run(g, Partition.singletons(3), Scripted(moves), RunConfig(max_steps=10))
    # after the singleton prefix, the walk revisits {{0,1},{2}}
    assert isinstance(out, CycleDetected)
    assert (out.prefix_len, out.cycle_len) == (1, 3)

    bad = [DeviationMove(0, (2,))]  # post {0,2} is not approved by agent 0
    with pytest.raises(ScriptedMoveInvalid) as err:
        run(g, Partition.singletons(3), Scripted(bad), RunConfig(max_steps=10))
    assert err.value.step_index == 0
    assert "strictly improve" in err.value.reason


def test_scripted_exhaustion_classifies_final_state():
    g = three_cycle_dhg()
    one = [DeviationMove(0, (1,))]
    out = run(g, Partition.singletons(3), Scripted(one), RunConfig(max_steps=10))
    assert isinstance(out, StepLimitReached)  # script ran dry, state not stable
    stable_g = DichotomousGame(2, [[], []])
    out2 = run(stable_g, Partition.singletons(2), Scripted([]), RunConfig(max_steps=5))
    assert isinstance(out2, Converged)


def test_replay_reports_which_condition_failed_for_whom():
    # agent 1 would be strictly worse off welcoming agent 0
    g = AnonymousGame(
        [
            WeakOrder([[2], [1]]),
            WeakOrder([[1], [2]]),
        ]
    )
    with pytest.raises(ScriptedMoveInvalid) as err:
        replay(g, Partition.singletons(2), [DeviationMove(0, (1,))])
    assert "member 1" in str(err.value)
    assert "worse off" in str(err.value)

    ok = replay(
        AnonymousGame([WeakOrder([[2], [1]])] * 2),
        Partition.singletons(2),
        [DeviationMove(0, (1,))],
    )
    assert ok.final == Partition([[0, 1]])
    assert len(ok) == 1


def test_filter_predicate():
    colors = [R, R, B]
    g = DiversityGame(
        colors,
        [WeakOrder([sorted(set(games_ratios(colors)))])] * 3,
    )
    crit = DeviationFilter.SOLITARY_HOMOGENEITY
    # red joining a red singleton -> homogeneous pair -> rejected
    assert not passes_filter(g, DeviationMove(0, (1,)), crit)
    # red joining the blue singleton -> mixed pair -> allowed
    assert passes_filter(g, DeviationMove(0, (2,)), crit)
    # founding a singleton is always allowed
    assert passes_filter(g, DeviationMove(0, NEW_SINGLETON), crit)


def games_ratios(colors):
    from hedonic_dynamics.games import RatioDomain

    reds = sum(1 for c in colors if c is R)
    return RatioDomain(reds, len(colors) - reds).enumerate()


def test_filter_requires_two_color_game():
    g = AnonymousGame([WeakOrder([[1], [2]])] * 2)
    with pytest.raises(DynamicsError):
        run(g, Partition.singletons(2), Filtered(Lexicographic()))


class _SizeLovingReds(DiversityGame):
    """Deliberately non-ratio preferences, to reach the starvation branch."""

    def prefers(self, agent, a, b):
        return len(a) - len(b)


def test_filter_starvation_is_reported_not_converged():
    colors = [R, R]
    orders = [WeakOrder([[1]])] * 2  # only ratio 1 is feasible
    g = _SizeLovingReds(colors, orders)
    with pytest.raises(FilterStarvation):
        run(g, Partition.singletons(2), Filtered(Lexicographic()))
    with pytest.raises(FilterStarvation):
        run(g, Partition.singletons(2), Filtered(SeededRandom(1)))


def test_scripted_move_rejected_by_filter():
    colors = [R, R, B]
    ratios = games_ratios(colors)
    order = WeakOrder([[r] for r in sorted(ratios, reverse=True)])
    # plain ratio preferences never make a same-color join improving, so use
    # the size-loving stub to script a move the filter must veto
    g2 = _SizeLovingReds(colors, [order] * 3)
    script = Scripted([DeviationMove(0, (1,))])
    with pytest.raises(ScriptedMoveInvalid) as err:
        run(g2, Partition.singletons(3), Filtered(script))
    assert "solitary-homogeneity" in err.value.reason


def test_filtered_runs_on_real_hdg_make_progress():
    rng = random.Random(113)
    for _ in range(25):
        reds = rng.randint(1, 3)
        blues = rng.randint(1, 3)
        g = rand_hdg(rng, reds, blues, strict=True, sp=True)
        out = run(
            g,
            Partition.singletons(g.n),
            Filtered(Lexicographic()),
            RunConfig(max_steps=3000),
        )
        assert isinstance(out, (Converged, CycleDetected))
        if isinstance(out, Converged):
            # convergence under the filter still means genuinely IS-stable
            # states may admit only filtered-out moves; stability here is
            # "no admissible move", so just validate the trace
            validate_trace(g, out.trace)


def test_monitor_hooks_receive_every_step():
    calls = []

    class Probe:
        name = "probe"

        def __init__(self, game, start):
            calls.append(("init", canonicalize(start)))

        def initial_reading(self):
            return 0

        def on_step(self, pre, move, post):
            calls.append(("step", move.agent))
            return move.agent

    g = AnonymousGame([WeakOrder([[2], [1]])] * 2)
    out = run(g, Partition.singletons(2), Lexicographic(), RunConfig(monitors=(Probe,)))
    assert isinstance(out, Converged)
    assert calls[0][0] == "init"
    assert len([c for c in calls if c[0] == "step"]) == out.steps
    assert out.trace.steps[0].readings == {"probe": 0}
    assert out.trace.start_readings == {"probe": 0}
