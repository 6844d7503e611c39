import random
from fractions import Fraction

import pytest

from hedonic_dynamics import cli, core, dynamics
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
    DynamicsError,
    Filtered,
    FilterStarvation,
    Lexicographic,
    MoveFinder,
    MoveTable,
    RunConfig,
    Scripted,
    ScriptedMoveInvalid,
    SeededRandom,
    StepLimitReached,
    Trace,
    TraceStep,
    _pick_admissible,
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
from hedonic_dynamics.instances import build, walk_moves
from hedonic_dynamics.prng import SplitMix64

from conftest import (
    rand_ahg,
    rand_dhg,
    rand_fhg,
    rand_game,
    rand_hdg,
    rand_lazy_game,
    rand_partition,
)

R, B = Color.RED, Color.BLUE
IS = StabilityKind.IS


def three_cycle_dhg() -> DichotomousGame:
    # each agent approves exactly one pair; chasing it forever
    return DichotomousGame(3, [[(0, 1)], [(1, 2)], [(0, 2)]])


def test_move_finder_matches_core_enumeration():
    rng = random.Random(101)
    cases = []
    for trial in range(200):
        g = rand_game(rng, trial, rng.randint(2, 7))
        states = [Partition.grand(g.n), Partition.singletons(g.n)]
        cases.append((g, states + [rand_partition(rng, g.n) for _ in range(6)]))
    for trial in range(80):  # size and ratio games over shared lazy orders
        g = rand_lazy_game(rng, trial, rng.randint(2, 7))
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
        if type(g) is DiversityGame:  # one rank memo per distinct order object
            memos = {id(rank.__self__) for rank in finder._rules.ranks}
            assert len(memos) == len({id(order) for order in g.orders})
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


@pytest.mark.parametrize("n", [3, 9])
def test_run_rejects_a_start_of_another_size(n):
    game = build("ahg7").game
    for policy in (Lexicographic(), Scripted(())):
        with pytest.raises(ValueError, match=f"the start has {n} agents, the game 7"):
            run(game, Partition.singletons(n), policy)


@pytest.mark.parametrize("n", [3, 9])
def test_replay_and_validate_trace_reject_a_start_of_another_size(n):
    # the move is valid on the start alone: agent 0 joins agent 1, or
    # agent 8, outside the 7-agent game, joins agent 0
    game = build("ahg7").game
    start = Partition.singletons(n)
    move = DeviationMove(0, (1,)) if n == 3 else DeviationMove(n - 1, (0,))
    message = f"the start has {n} agents, the game 7"
    with pytest.raises(ValueError, match=message):
        replay(game, start, [move])
    trace = Trace(start, (TraceStep(move, core.apply(start, move)),))
    with pytest.raises(ValueError, match=message):
        validate_trace(game, trace)


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
    for budget in (0, 1):
        out = run(g, Partition.singletons(3), Lexicographic(), RunConfig(max_steps=budget))
        assert isinstance(out, StepLimitReached)
        assert len(out.trace.steps) == budget
    with pytest.raises(ValueError):
        RunConfig(max_steps=-1)


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
    colors = [R, R, B, B, R]
    g = DiversityGame(
        colors,
        [WeakOrder([sorted(set(games_ratios(colors)))])] * 5,
    )
    # red joining a red singleton -> homogeneous pair -> rejected
    assert not passes_filter(g, DeviationMove(0, (1,)))
    # red joining the blue singleton -> mixed pair -> allowed
    assert passes_filter(g, DeviationMove(0, (2,)))
    # founding a singleton is always allowed
    assert passes_filter(g, DeviationMove(0, NEW_SINGLETON))
    # larger blocks: all red, mixed behind a red first member, all blue
    assert not passes_filter(g, DeviationMove(0, (1, 4)))
    assert passes_filter(g, DeviationMove(0, (1, 2)))
    assert passes_filter(g, DeviationMove(0, (2, 3)))
    assert not passes_filter(g, DeviationMove(3, (2,)))
    assert passes_filter(g, DeviationMove(2, (1, 4)))


def games_ratios(colors):
    from hedonic_dynamics.games import RatioDomain

    reds = sum(1 for c in colors if c is R)
    return RatioDomain(reds, len(colors) - reds).enumerate()


def test_filter_requires_two_color_game():
    g = AnonymousGame([WeakOrder([[1], [2]])] * 2)
    with pytest.raises(DynamicsError):
        run(g, Partition.singletons(2), Filtered(Lexicographic()))
    # the verdict on one move, too, in every class without colours
    rng = random.Random(257)
    for game in (g, rand_fhg(rng, 3), rand_dhg(rng, 3)):
        with pytest.raises(DynamicsError, match="needs a two-color game"):
            passes_filter(game, DeviationMove(0, (1,)))


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


def listed_pick(table, game, rng):
    """The filtered pick by a full listing, the reference for the counted
    draw: every (agent, block) pair the filter admits, in order, then the
    first, or with ``rng`` the one at a drawn index."""
    colors = game.colors

    def admits(agent, block):
        mine = colors[agent]
        return (
            not block
            or colors[block[0]] is not mine
            or any(colors[m] is not mine for m in block)
        )

    admissible = [(m.agent, m.target) for m in table if admits(m.agent, m.target)]
    if not admissible:
        return None
    return DeviationMove(*admissible[rng.below(len(admissible)) if rng else 0])


def filter_tables():
    """Tables of two-colour games: random games from singletons, from
    random partitions and from partitions whose blocks are single-coloured
    but for one; hdg-assembled from singletons and along a random walk;
    and a table whose every move the filter rejects."""
    rng = random.Random(263)
    for _ in range(16):
        reds = rng.randint(1, 9)
        game = rand_hdg(rng, reds, rng.randint(1, 9))
        finder = MoveFinder(game)
        red = next(a for a in range(game.n) if game.colors[a] is R)
        blue = next(a for a in range(game.n) if game.colors[a] is B)
        blocks = [[red, blue]]
        for c in (R, B):
            blocks.append([])
            for agent in range(game.n):
                if game.colors[agent] is c and agent not in (red, blue):
                    if blocks[-1] and rng.random() < 0.5:
                        blocks.append([])
                    blocks[-1].append(agent)
        for state in (Partition.singletons(game.n), rand_partition(rng, game.n),
                      Partition([block for block in blocks if block])):
            yield game, finder.table(state)
    game = build("hdg-assembled").game
    finder = MoveFinder(game)
    state = Partition.singletons(game.n)
    for step in range(6):
        table = finder.table(state)
        yield game, table
        state = core.apply(state, table.nth(rng.randrange(table.count)))
    starving = _SizeLovingReds([R, R], [WeakOrder([[1]])] * 2)
    yield starving, MoveFinder(starving).table(Partition.singletons(2))


def test_counted_filtered_draw_picks_the_listed_move():
    # the counted draw takes the same index into the same order as a full
    # listing of the admissible moves, and the same one draw from the
    # generator, none if nothing is admissible
    pairs = bitten = alone = one_colour = starved = 0
    for game, table in filter_tables():
        first = _pick_admissible(table, game.colors, None)
        assert first == listed_pick(table, game, None), table.partition
        starved += first is None and table.count > 0
        bitten += not all(passes_filter(game, move) for move in table)
        for seed in range(5 if game.n < 100 else 20):
            ours, theirs = SplitMix64(seed), SplitMix64(seed)
            pick = _pick_admissible(table, game.colors, ours)
            assert pick == listed_pick(table, game, theirs), (table.partition, seed)
            assert ours.next_raw() == theirs.next_raw()
            pairs += 1
            if pick is not None:
                alone += pick.target is NEW_SINGLETON
                one_colour += len({game.colors[m] for m in pick.target}) == 1
    assert pairs >= 200 and starved == 1
    assert bitten > 10 and alone > 10 and one_colour > 10, (bitten, alone, one_colour)


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


def test_validate_trace_fails_like_replay_on_a_missing_target():
    game = build("dhg3").game
    start = Partition.singletons(3)
    move = DeviationMove(0, (1, 2))  # {1, 2} is not a block of the singletons
    with pytest.raises(ScriptedMoveInvalid) as replayed:
        replay(game, start, [move])
    forged = Trace(start, (TraceStep(move, Partition.grand(3)),))
    with pytest.raises(ScriptedMoveInvalid) as validated:
        validate_trace(game, forged)
    assert validated.value.step_index == replayed.value.step_index == 0
    assert validated.value.reason == replayed.value.reason
    assert "not a coalition of the partition" in validated.value.reason


def test_validate_trace_rejects_a_recorded_result_the_move_does_not_give():
    game = three_cycle_dhg()
    start = Partition.singletons(3)
    move = DeviationMove(0, (1,))  # a valid move, recorded with a wrong result
    validate_trace(game, Trace(start, (TraceStep(move, Partition([[0, 1], [2]])),)))
    with pytest.raises(ScriptedMoveInvalid) as err:
        validate_trace(game, Trace(start, (TraceStep(move, Partition.grand(3)),)))
    assert err.value.step_index == 0
    assert err.value.reason == "recorded result does not match applying the move"


def test_run_checks_each_move_once_before_applying_it(monkeypatch):
    events = []
    check, apply_ = dynamics.deviation_failure, dynamics.apply
    monkeypatch.setattr(dynamics, "deviation_failure",
                        lambda *args: events.append("check") or check(*args))
    monkeypatch.setattr(dynamics, "apply", lambda *args: events.append("apply") or apply_(*args))
    game = AnonymousGame([WeakOrder([[3], [2], [1]])] * 3)  # bigger is better
    for policy in (Lexicographic(), SeededRandom(3), Scripted([DeviationMove(0, (1,))])):
        events.clear()
        out = run(game, Partition.singletons(3), policy)
        assert events == ["check", "apply"] * len(out.trace), policy


def test_a_scheduled_move_that_fails_names_the_scheduler(monkeypatch):
    # a broken move table offering agent 0 a fresh singleton it already has
    monkeypatch.setattr(
        MoveFinder, "table",
        lambda self, p: MoveTable(p, [((),)] + [()] * (p.n - 1)))
    with pytest.raises(DynamicsError, match="scheduler produced") as err:
        run(three_cycle_dhg(), Partition.singletons(3), Lexicographic())
    assert not isinstance(err.value, ScriptedMoveInvalid)


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


def test_every_fresh_singleton_target_is_NEW_SINGLETON():
    """However a fresh-singleton move is made, its target is the very object
    ``NEW_SINGLETON``: move digests compare targets with ``is``."""
    fresh = [DeviationMove(0, NEW_SINGLETON),
             cli.doc_to_move({"agent": 1, "target": "new-singleton"})]
    fresh += walk_moves(Partition.grand(3), [(0, None), (1, None)])[0]
    rng = random.Random(47)
    for trial in range(24):
        game = rand_game(rng, trial, rng.randint(2, 6))
        finder = MoveFinder(game)
        for state in (Partition.grand(game.n), rand_partition(rng, game.n)):
            table = finder.table(state)
            moves = [*table, *finder.iter_moves(state), *core.iter_deviations(game, state, IS)]
            moves += [table.nth(k) for k in range(table.count)]
            fresh += [m for m in moves if not m.target or m.target is NEW_SINGLETON]
    # a red and a blue who each prefer a one-colour block to the mixed pair:
    # the filtered lexicographic pick from the grand coalition founds one
    g = DiversityGame([R, B], [WeakOrder([[Fraction(1)], [Fraction(0)], [Fraction(1, 2)]])] * 2)
    out = run(g, Partition.grand(2), Filtered(Lexicographic()), RunConfig(max_steps=1))
    assert len(out.trace.moves) == 1
    fresh += out.trace.moves
    assert len(fresh) > 40
    for move in fresh:
        assert move.target is NEW_SINGLETON, move
