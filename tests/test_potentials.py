"""Potential evaluators and run monitors."""

import random

import pytest

from hedonic_dynamics import dynamics, games, potentials
from hedonic_dynamics.core import NEW_SINGLETON, DeviationMove, Partition, apply
from hedonic_dynamics.dynamics import Lexicographic, RunConfig, Scripted, run
from hedonic_dynamics.potentials import (
    AscentCreditMonitor,
    LexPotentialMonitor,
    MinorityAnchorMonitor,
    MonitorInvariantViolation,
    NotTopological,
    PairCountMonitor,
    PreconditionViolated,
    ascent_credit_init,
    ascent_credit_step,
    count_internal_pairs,
    lex_pair_decreased,
    lex_potential,
    minority_anchor_level,
)

from conftest import rand_ahg, rand_dag_fhg, rand_partition


def bigger_is_better(n):
    order = games.WeakOrder([[k] for k in range(n, 0, -1)])
    return games.AnonymousGame([order] * n)


# --- pair count -------------------------------------------------------------


def test_count_internal_pairs_examples():
    assert count_internal_pairs(Partition.singletons(7)) == 0
    assert count_internal_pairs(Partition.grand(7)) == 21
    assert count_internal_pairs(Partition([(1, 2), (3, 4), (5, 6, 0)])) == 5


def test_pair_count_monitor_readings_match_states():
    game = bigger_is_better(6)
    out = run(
        game,
        Partition.singletons(6),
        Lexicographic(),
        RunConfig(monitors=(PairCountMonitor,)),
    )
    assert isinstance(out, dynamics.Converged)
    states = out.trace.states()
    assert out.trace.start_readings["gamma"] == 0
    for step, post in zip(out.trace.steps, states[1:]):
        assert step.readings["gamma"] == count_internal_pairs(post)


def test_pair_count_monitor_flags_impossible_deltas():
    # a hand-built pre/post pair that no single deviation could produce
    game = bigger_is_better(3)
    monitor = PairCountMonitor(game, Partition.singletons(3))
    move = DeviationMove(0, (1, 2))
    with pytest.raises(MonitorInvariantViolation, match="rise by 1..n-1"):
        monitor.on_step(Partition.singletons(3), move, Partition.grand(3))


# --- ascent credit ----------------------------------------------------------


def test_ascent_credit_preconditions():
    start = Partition.singletons(4)
    fhg = games.FractionalGame.from_arcs(4, {(0, 1): 1})
    with pytest.raises(PreconditionViolated, match="size-based"):
        AscentCreditMonitor(fhg, start)
    weak = games.AnonymousGame([games.WeakOrder([[1, 2], [3], [4]])] * 4)
    with pytest.raises(PreconditionViolated, match="strict"):
        AscentCreditMonitor(weak, start)
    valley = games.AnonymousGame([games.WeakOrder([[1], [4], [2], [3]])] * 4)
    with pytest.raises(PreconditionViolated, match="single-peaked"):
        AscentCreditMonitor(valley, start)


def test_ascent_credit_hand_worked_run():
    """Three agents who all want the biggest coalition, from singletons."""
    game = bigger_is_better(3)
    out = run(
        game,
        Partition.singletons(3),
        Lexicographic(),
        RunConfig(monitors=(AscentCreditMonitor,)),
    )
    assert isinstance(out, dynamics.Converged)
    assert out.final == Partition.grand(3)
    readings = [s.readings["lambda"] for s in out.trace.steps]
    assert out.trace.start_readings["lambda"] == {"value": 0}
    assert [r["value"] for r in readings] == [3, 6]
    assert all(r["growth"] for r in readings)
    assert [r["case"] for r in readings] == ["solo-r", "solo-r"]


def test_ascent_credit_growth_from_zero_valued_coalition():
    """A growth move leaving a fresh coalition must add at least twice the
    abandoned size; here it adds much more."""
    game = bigger_is_better(5)
    start = Partition([(0, 1), (2, 3, 4)])
    out = run(
        game,
        start,
        Scripted([DeviationMove(0, (2, 3, 4))]),
        RunConfig(monitors=(AscentCreditMonitor,), max_steps=1),
    )
    (step,) = out.trace.steps
    assert step.readings["lambda"] == {"value": 13, "growth": True, "case": "ii"}
    assert 13 >= 2 * (1 + 1)


def test_ascent_credit_new_singleton_is_a_shrink_move():
    loner = games.WeakOrder([[1], [2], [3]])
    joiner = games.WeakOrder([[3], [2], [1]])
    game = games.AnonymousGame([loner, joiner, joiner])
    out = run(
        game,
        Partition.grand(3),
        Scripted([DeviationMove(0, NEW_SINGLETON)]),
        RunConfig(monitors=(AscentCreditMonitor,)),
    )
    (step,) = out.trace.steps
    assert step.readings["lambda"] == {"value": 0, "growth": False, "case": "i"}


@pytest.mark.parametrize("order", [
    games.WeakOrder([[2], [1], [3]]),
    games.ComputedOrder([[2], [1]], games.SizeDomain(3), games.Completion.BOTTOM),
    games.AxisWalkOrder([2, 1], games.SizeDomain(3)),
])
def test_ascent_credit_flags_credit_at_the_peak(order):
    """Every agent peaks at size 2.  Credit 2 inside a pair breaks nothing
    but invariant (3): credit must stay strictly below the peak."""
    game = games.AnonymousGame([order] * 3)
    partition = Partition([(0, 1), (2,)])
    at_peak = potentials.AscentCreditState(
        agent_values=(2, 2, 0),
        coalition_values={(0, 1): 0, (2,): 0},
        last_entrants={(0, 1): None, (2,): None},
    )
    with pytest.raises(MonitorInvariantViolation,
                       match=r"invariant \(3\).*credit 2 not strictly below her peak 2"):
        potentials._assert_credit_invariants(at_peak, game, partition)
    below = potentials.AscentCreditState(
        agent_values=(1, 1, 0),
        coalition_values={(0, 1): 1, (2,): 0},
        last_entrants={(0, 1): 0, (2,): None},
    )
    potentials._assert_credit_invariants(below, game, partition)


def test_ascent_credit_monotone_on_random_runs():
    """Strictly single-peaked size games: the credit total never drops, rises
    on every growth move, and stays within n^2.  The per-step assertions live
    inside the monitor; this loop also freezes which update rules the corpus
    exercises so a refactor cannot silently stop covering them."""
    rng = random.Random(20240817)
    seen_cases = set()
    for _ in range(120):
        n = rng.randint(4, 9)
        game = rand_ahg(rng, n, strict=True, sp=True)
        start = rand_partition(rng, n)
        out = run(
            game,
            start,
            Lexicographic(),
            RunConfig(monitors=(AscentCreditMonitor, PairCountMonitor)),
        )
        assert isinstance(out, dynamics.Converged)
        values = [out.trace.start_readings["lambda"]["value"]] + [
            s.readings["lambda"]["value"] for s in out.trace.steps
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= n * n
        for s in out.trace.steps:
            seen_cases.add(s.readings["lambda"]["case"])
            if s.readings["lambda"]["growth"]:
                assert s.readings["lambda"]["value"] > 0
    # a move out of a singleton always lands somewhere strictly larger, so
    # "solo-l" can never occur
    assert seen_cases == {"i", "ii", "iii", "iv", "v", "vi", "solo-r"}


def test_ascent_credit_seeded_runs_agree_with_replay():
    rng = random.Random(7)
    game = rand_ahg(rng, 7, strict=True, sp=True)
    out = run(game, Partition.singletons(7), dynamics.SeededRandom(99), RunConfig())
    assert isinstance(out, dynamics.Converged)
    state = ascent_credit_init(Partition.singletons(7))
    partition = Partition.singletons(7)
    total = 0
    for move in out.trace.moves:
        post = apply(partition, move)
        state = ascent_credit_step(state, game, partition, move, post)
        partition = post
        assert state.value >= total
        total = state.value
    assert set(state.coalition_values) == set(partition.blocks)
    assert set(state.last_entrants) == set(partition.blocks)


# --- lexicographic pair -----------------------------------------------------


def require_topological(game, sigma):
    """Asserts, independently of ``games.arc_scores``, that ``sigma`` numbers
    the agents 1..n increasing along every arc."""
    n = game.n
    assert sorted(sigma) == list(range(1, n + 1)), "scores must be a bijection onto 1..n"
    for i in range(n):
        for j in range(n):
            if i != j and game.weights[i][j] == 1:
                assert sigma[i] < sigma[j], f"arc {i}→{j} demands score({i}) < score({j})"


def test_topological_scores_on_a_path():
    game = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1})
    sigma = games.arc_scores(game)
    assert sigma == (1, 2, 3)
    require_topological(game, sigma)
    pot = lex_potential(Partition.singletons(3), sigma)
    assert pot.top_scores == (3, 2, 1)
    assert pot.sizes == (1, 1, 1)


def test_topological_scores_reject_cycles():
    cycle = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    assert games.arc_scores(cycle) is None


def test_require_topological_rejects_bad_scores():
    game = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1})
    require_topological(game, (1, 2, 3))
    with pytest.raises(AssertionError, match="bijection"):
        require_topological(game, (1, 1, 2))
    with pytest.raises(AssertionError, match="arc 0→1"):
        require_topological(game, (2, 1, 3))
    with pytest.raises(NotTopological, match="bijection"):
        lex_potential(Partition.singletons(3), (0, 1, 2))


def _lex_less(a, b):
    """Lexicographic a < b written out: the first difference decides, and
    a proper prefix is the smaller vector."""
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return len(a) < len(b)


def test_lex_compare_prefix_rule_and_tuple_agreement():
    """`lex_pair_decreased` agrees with the written-out lexicographic order:
    top scores drop, or stay equal while the size vector rises."""
    mk = potentials.LexPotential
    assert lex_pair_decreased(mk((3, 2), (1,)), mk((3, 1, 4), (1,)))
    assert not lex_pair_decreased(mk((3, 1), (1,)), mk((3, 1, 4), (1,)))
    assert not lex_pair_decreased(mk((2,), (1,)), mk((2,), (1,)))
    rng = random.Random(424242)

    def vec():
        return tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 5)))

    for _ in range(300):
        pre, post = mk(vec(), vec()), mk(vec(), vec())
        if rng.random() < 0.5:
            post = mk(pre.top_scores, post.sizes)
        expected = _lex_less(post.top_scores, pre.top_scores) or (
            post.top_scores == pre.top_scores and _lex_less(pre.sizes, post.sizes)
        )
        assert lex_pair_decreased(pre, post) == expected


def test_lex_pair_decreased_cases():
    mk = potentials.LexPotential
    assert lex_pair_decreased(mk((5, 3), (1, 2)), mk((5, 2, 1), (1, 1, 1)))
    assert lex_pair_decreased(mk((5, 3), (1, 2)), mk((5, 3), (1, 3)))
    assert not lex_pair_decreased(mk((5, 3), (1, 2)), mk((5, 3), (1, 2)))
    assert not lex_pair_decreased(mk((5, 3), (1, 2)), mk((5, 4), (1, 1)))
    # a proper prefix is the smaller vector; otherwise the first difference
    # decides, whatever the lengths
    assert lex_pair_decreased(mk((5, 3, 1), (1, 1, 2)), mk((5, 3), (1, 3)))
    assert not lex_pair_decreased(mk((5, 3), (1, 3)), mk((5, 3, 1), (1, 1, 2)))
    assert lex_pair_decreased(mk((5, 3), (1, 2, 4)), mk((5, 3), (1, 3)))
    assert not lex_pair_decreased(mk((5, 3), (1, 3)), mk((5, 3), (1, 2, 4)))
    assert lex_pair_decreased(mk((5, 3), (1, 2)), mk((5, 3), (1, 2, 4)))
    assert not lex_pair_decreased(mk((5, 3), (1, 2, 4)), mk((5, 3), (1, 2)))


def test_lex_monitor_preconditions():
    start = Partition.singletons(3)
    mutual = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 0): 1})
    with pytest.raises(PreconditionViolated, match="one-directional"):
        LexPotentialMonitor(mutual, start)
    cyclic = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    with pytest.raises(PreconditionViolated):
        LexPotentialMonitor(cyclic, start)
    ahg = bigger_is_better(3)
    with pytest.raises(PreconditionViolated, match="weighted-average"):
        LexPotentialMonitor(ahg, start)


def test_lex_monitor_on_random_acyclic_runs():
    rng = random.Random(6060)
    for _ in range(60):
        n = rng.randint(3, 8)
        game = rand_dag_fhg(rng, n)
        out = run(
            game,
            Partition.singletons(n),
            Lexicographic(),
            RunConfig(monitors=(LexPotentialMonitor,)),
        )
        assert isinstance(out, dynamics.Converged)
        assert len(out.trace) <= n**4


def test_lex_monitor_scores_the_digraph_once(monkeypatch):
    calls = []
    arc_scores = games.arc_scores

    def counted(game):
        calls.append(game)
        return arc_scores(game)

    # classify_fhg would reach arc_scores through games, the monitor directly
    monkeypatch.setattr(potentials, "arc_scores", counted)
    monkeypatch.setattr(games, "arc_scores", counted)
    game = rand_dag_fhg(random.Random(77), 12)
    monitor = LexPotentialMonitor(game, Partition.singletons(12))
    assert len(calls) == 1
    require_topological(game, monitor.sigma)
    cyclic = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    with pytest.raises(PreconditionViolated, match="acyclic digraph"):
        LexPotentialMonitor(cyclic, Partition.singletons(3))
    assert len(calls) == 2


def test_lex_monitor_flags_a_non_deviation_transition():
    game = games.FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1})
    monitor = LexPotentialMonitor(game, Partition([(0, 1), (2,)]))
    move = DeviationMove(0, NEW_SINGLETON)
    with pytest.raises(MonitorInvariantViolation, match="failed to decrease"):
        # breaking {0,1} apart helps nobody, so the pair must not "progress"
        monitor.on_step(
            Partition([(0, 1), (2,)]), move, Partition.singletons(3)
        )


# --- anchor levels ----------------------------------------------------------


def anchor_game():
    colors = [games.Color.RED] * 3 + [games.Color.BLUE] * 3
    domain = games.RatioDomain(3, 3)
    order = games.ComputedOrder(
        [[games.Fraction(1, 2)]], domain, games.Completion.BOTTOM
    )
    return games.DiversityGame(colors, [order] * 6)


def test_minority_anchor_level_values():
    game = anchor_game()
    # red fraction 1/2: parked at the top level reds+1
    assert minority_anchor_level(game, Partition([(0, 3), (1, 2, 4, 5)]), 0) == 4
    # homogeneous red coalition: fraction 1, also reds+1
    assert minority_anchor_level(game, Partition([(0, 1), (2, 3, 4, 5)]), 0) == 4
    # fraction 2/3
    assert minority_anchor_level(game, Partition([(0, 1, 3), (2, 4, 5)]), 0) == 2
    # fraction 3/4
    assert minority_anchor_level(game, Partition([(0, 1, 2, 3), (4, 5)]), 0) == 3
    with pytest.raises(ValueError, match="red agents"):
        minority_anchor_level(game, Partition.singletons(6), 3)
    # fraction 3/5 is not of the tracked shape
    with pytest.raises(ValueError, match="tracked shape"):
        minority_anchor_level(game, Partition([(0, 1, 2, 3, 4), (5,)]), 0)


def test_minority_anchor_monitor_reads_all_reds():
    game = anchor_game()
    monitor = MinorityAnchorMonitor(game, Partition.singletons(6))
    assert monitor.initial_reading() == {0: 4, 1: 4, 2: 4}
    pre = Partition([(0, 1, 2, 3, 4), (5,)])
    post = Partition([(0, 1, 2, 3), (4, 5)])
    reading = monitor.on_step(pre, DeviationMove(4, (5,)), post)
    assert reading == {0: 3, 1: 3, 2: 3}
    with pytest.raises(PreconditionViolated):
        MinorityAnchorMonitor(bigger_is_better(3), Partition.singletons(3))


def test_monitor_registry_names():
    assert set(potentials.MONITORS_BY_NAME) == {"gamma", "lambda", "lex", "anchor"}
    for name, factory in potentials.MONITORS_BY_NAME.items():
        assert factory.name == name
