"""Exhaustive decision procedures."""

import random

import pytest

from hedonic_dynamics import core, games, search
from hedonic_dynamics.core import (
    DeviationMove,
    Partition,
    StabilityKind,
    canonicalize,
    relabel_partition,
)
from hedonic_dynamics.instances import build
from hedonic_dynamics.search import (
    BudgetExhausted,
    CapExceeded,
    ConvergesAlways,
    CycleReachable,
    NoPath,
    NoStablePartition,
    PathFound,
    Plain,
    PrunedFHG,
    SearchBudget,
    StableExists,
    TypeReduced,
    all_paths_converge,
    enumerate_partitions,
    exists_is_partition,
    exists_path_to_is,
    forbidden_pairs,
    tolerable_coalitions,
)

from conftest import rand_ahg, rand_dhg, rand_fhg, rand_hdg, rand_partition


def bell_numbers(upto):
    """Independent oracle: Bell triangle recurrence."""
    row = [1]
    bells = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[0])
    return bells


def pair_chase_dhg():
    """Three agents each approving exactly one pair, arranged in a ring.
    The grand coalition is the unique stable partition and is unreachable
    from anywhere else."""
    return games.DichotomousGame(3, [[(0, 1)], [(1, 2)], [(0, 2)]])


def loner_game(n):
    order = games.WeakOrder([[k] for k in range(1, n + 1)])
    return games.AnonymousGame([order] * n)


def bigger_is_better(n):
    order = games.WeakOrder([[k] for k in range(n, 0, -1)])
    return games.AnonymousGame([order] * n)


# --- enumeration ------------------------------------------------------------


def test_enumerate_partitions_counts_match_bell():
    bells = bell_numbers(8)
    assert bells == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for n in range(1, 8):
        seen = [canonicalize(p) for p in enumerate_partitions(n)]
        assert len(seen) == bells[n]
        assert len(set(seen)) == bells[n]


def test_enumerate_partitions_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_partitions(14))
    with pytest.raises(CapExceeded):
        next(enumerate_partitions(4, cap=3))
    with pytest.raises(ValueError):
        next(enumerate_partitions(0))


def test_search_budget_validation():
    with pytest.raises(ValueError, match="max_states"):
        SearchBudget(max_states=0)
    with pytest.raises(ValueError, match="max_seconds"):
        SearchBudget(max_seconds=-1)
    assert SearchBudget().max_states == 50_000_000


def test_vector_partitions_match_known_counts():
    # all-distinct types degenerate to set partitions, a single type to
    # integer partitions
    assert len(list(search._vector_partitions((1, 1, 1)))) == 5
    assert len(list(search._vector_partitions((4,)))) == 5
    assert len(list(search._vector_partitions((5,)))) == 7
    assert len(list(search._vector_partitions((6,)))) == 11
    parts = list(search._vector_partitions((1, 2)))
    assert sorted(tuple(p) for p in parts) == sorted(
        [((1, 2),), ((1, 1), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (0, 1), (0, 1))]
    )


# --- existence --------------------------------------------------------------


def test_existence_on_the_pair_chase_ring():
    answer = exists_is_partition(pair_chase_dhg())
    assert isinstance(answer, StableExists)
    assert answer.witness == Partition.grand(3)


def test_existence_tie_breaks_to_smallest_canonical_encoding():
    # with no approvals at all, every partition is stable; the grand
    # coalition has the smallest encoding
    empty = games.DichotomousGame(3, [[], [], []])
    answer = exists_is_partition(empty)
    assert isinstance(answer, StableExists)
    assert answer.witness == Partition.grand(3)


def test_existence_budget_paths():
    # stable partition scanned early: still reported when the budget dies
    early = exists_is_partition(
        pair_chase_dhg(), Plain(), SearchBudget(max_states=1)
    )
    assert isinstance(early, StableExists)
    # the loner game's only stable partition is all-singletons, scanned last
    out = exists_is_partition(loner_game(3), Plain(), SearchBudget(max_states=3))
    assert out == BudgetExhausted(limit="states", states_explored=3)
    full = exists_is_partition(loner_game(3))
    assert isinstance(full, StableExists)
    assert full.witness == Partition.singletons(3)


def test_type_reduced_requires_typed_games():
    fhg = rand_fhg(random.Random(1), 4)
    with pytest.raises(ValueError, match="type reduction"):
        exists_is_partition(fhg, TypeReduced())


def test_pruned_requires_weighted_average_game():
    with pytest.raises(ValueError, match="pruning"):
        exists_is_partition(loner_game(3), PrunedFHG())


def test_stability_depends_only_on_type_counts():
    """Permuting interchangeable agents never changes IS-status."""
    rng = random.Random(314)
    for _ in range(100):
        n = rng.randint(3, 7)
        distinct = [
            games.WeakOrder([[k] for k in rng.sample(range(1, n + 1), n)])
            for _ in range(rng.randint(1, 3))
        ]
        orders = [rng.choice(distinct) for _ in range(n)]
        game = games.AnonymousGame(orders)
        groups = {}
        for a in range(n):
            groups.setdefault(id(orders[a]), []).append(a)
        perm = list(range(n))
        for agents in groups.values():
            shuffled = agents[:]
            rng.shuffle(shuffled)
            for src, dst in zip(agents, shuffled):
                perm[src] = dst
        p = rand_partition(rng, n)
        q = relabel_partition(p, perm)
        assert core.is_stable(game, p, StabilityKind.IS) == core.is_stable(
            game, q, StabilityKind.IS
        )


def test_type_reduced_agrees_with_plain_on_size_games():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(3, 8)
        game = rand_ahg(rng, n, strict=rng.random() < 0.5, sp=rng.random() < 0.5)
        plain = exists_is_partition(game, Plain())
        reduced = exists_is_partition(game, TypeReduced())
        assert type(plain) is type(reduced)
        if isinstance(plain, StableExists):
            for answer in (plain, reduced):
                assert core.is_stable(game, answer.witness, StabilityKind.IS)


def test_type_reduced_agrees_with_plain_on_two_color_games():
    rng = random.Random(161803)
    for _ in range(25):
        n = rng.randint(3, 7)
        reds = rng.randint(0, n)
        game = rand_hdg(rng, reds, n - reds, strict=rng.random() < 0.5)
        plain = exists_is_partition(game, Plain())
        reduced = exists_is_partition(game, TypeReduced())
        assert type(plain) is type(reduced)
        if isinstance(plain, StableExists):
            assert core.is_stable(game, reduced.witness, StabilityKind.IS)


def test_pruned_agrees_with_plain_on_random_games():
    # the clash test between two blocks depends on direction, so asymmetric
    # weights are compared too
    rng = random.Random(577215)
    for symmetric in (True, False):
        for _ in range(40):
            n = rng.randint(3, 7)
            game = rand_fhg(rng, n, lo=-5, hi=5, symmetric=symmetric)
            plain = exists_is_partition(game, Plain())
            pruned = exists_is_partition(game, PrunedFHG())
            assert type(plain) is type(pruned)
            if isinstance(plain, StableExists):
                assert canonicalize(plain.witness) == canonicalize(pruned.witness)
            # the cover search itself yields exactly the stable partitions
            stable = sorted(
                canonicalize(p)
                for p in enumerate_partitions(n)
                if core.is_stable(game, p, StabilityKind.IS)
            )
            meter = search._Meter(SearchBudget())
            covers = search._pruned_fhg_candidates(game, meter)
            assert sorted(canonicalize(p) for p in covers) == stable


def test_pruned_budget_counts_pool_blocks_and_covers():
    no_is = build("fhg15").game
    full = exists_is_partition(no_is, PrunedFHG())
    assert isinstance(full, NoStablePartition)
    short = exists_is_partition(
        no_is, PrunedFHG(), SearchBudget(max_states=full.states_checked - 1)
    )
    assert short == BudgetExhausted("states", full.states_checked - 1)
    # with all weights zero every partition is stable; the first cover
    # found is the singletons, after 8 pool states (every subset of three
    # agents), 3 placed blocks and 1 complete cover
    indifferent = games.FractionalGame([[0] * 3 for _ in range(3)])
    assert exists_is_partition(
        indifferent, PrunedFHG(), SearchBudget(max_states=11)
    ) == BudgetExhausted("states", 11)
    early = exists_is_partition(indifferent, PrunedFHG(), SearchBudget(max_states=12))
    assert early == StableExists(Partition.singletons(3))
    assert exists_is_partition(indifferent, PrunedFHG()) == StableExists(
        Partition.grand(3)
    )


def test_forbidden_pairs_and_tolerable_pool():
    rows = [
        [0, -100, 2, 2],
        [-100, 0, 2, 2],
        [2, 2, 0, 2],
        [2, 2, 2, 0],
    ]
    game = games.FractionalGame(rows)
    assert forbidden_pairs(game) == {(0, 1)}
    pool = tolerable_coalitions(game)
    assert all(not {0, 1} <= set(c) for c in pool)
    assert (0, 2, 3) in pool and (2, 3) in pool and (0,) in pool

    hostile = games.FractionalGame([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
    pool = tolerable_coalitions(hostile)
    assert sorted(pool) == [(0,), (0, 2), (1,), (1, 2), (2,)]


def test_forbidden_pair_members_always_drag_someone_negative():
    """The pruning lemma: put a forbidden pair in any coalition and some
    member's weight sum goes negative."""
    rng = random.Random(31337)
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 6)
        game = rand_fhg(rng, n, lo=-30, hi=5, symmetric=True)
        for i, j in forbidden_pairs(game):
            for p in enumerate_partitions(n):
                c = p.coalition_of(i)
                if j not in c:
                    continue
                checked += 1
                assert any(
                    sum(game.weights[m][x] for x in c) < 0 for m in c
                )
    assert checked > 100


# --- reachability -----------------------------------------------------------


def test_path_search_on_the_pair_chase_ring():
    game = pair_chase_dhg()
    out = exists_path_to_is(game, Partition.singletons(3))
    assert out == NoPath(states_explored=4)
    direct = exists_path_to_is(game, Partition.grand(3))
    assert isinstance(direct, PathFound)
    assert len(direct.trace) == 0


def test_path_search_finds_a_shortest_path():
    out = exists_path_to_is(bigger_is_better(4), Partition.singletons(4))
    assert isinstance(out, PathFound)
    assert len(out.trace) == 3
    assert out.trace.final == Partition.grand(4)


def test_path_search_single_agent():
    out = exists_path_to_is(loner_game(1), Partition.singletons(1))
    assert isinstance(out, PathFound)
    assert len(out.trace) == 0


def test_convergence_on_the_pair_chase_ring():
    game = pair_chase_dhg()
    out = all_paths_converge(game, Partition.singletons(3))
    assert isinstance(out, CycleReachable)
    states = out.trace.states()
    assert canonicalize(states[out.prefix_len]) == canonicalize(states[-1])
    assert out.prefix_len + out.cycle_len == len(out.trace)
    assert out.cycle_len >= 2
    assert all_paths_converge(game, Partition.grand(3)) == ConvergesAlways(
        states_explored=1
    )


def test_convergence_on_a_game_without_moves():
    empty = games.DichotomousGame(3, [[], [], []])
    for p in enumerate_partitions(3):
        assert all_paths_converge(empty, p) == ConvergesAlways(states_explored=1)


def test_convergence_implies_reachability():
    rng = random.Random(8128)
    def two_color(n):
        reds = rng.randint(0, n)
        return rand_hdg(rng, reds, n - reds)

    makers = [
        lambda n: rand_ahg(rng, n),
        lambda n: rand_fhg(rng, n),
        lambda n: rand_dhg(rng, n),
        two_color,
    ]
    converged = cycled = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        maker = rng.choice(makers)
        game = maker(n)
        start = rand_partition(rng, n)
        verdict = all_paths_converge(game, start)
        if isinstance(verdict, ConvergesAlways):
            converged += 1
            path = exists_path_to_is(game, start)
            assert isinstance(path, PathFound)
        else:
            cycled += 1
            assert isinstance(verdict, CycleReachable)
            states = verdict.trace.states()
            assert canonicalize(states[verdict.prefix_len]) == canonicalize(
                states[-1]
            )
    assert converged > 0


def test_reachability_budget_exhaustion():
    out = exists_path_to_is(
        bigger_is_better(6), Partition.singletons(6), SearchBudget(max_states=3)
    )
    assert out == BudgetExhausted(limit="states", states_explored=3)
    out = all_paths_converge(
        bigger_is_better(6), Partition.singletons(6), SearchBudget(max_states=2)
    )
    assert isinstance(out, BudgetExhausted)
    assert out.limit == "states"


def test_meter_trips_on_the_clock():
    now = [0.0]
    meter = search._Meter(SearchBudget(max_seconds=5), clock=lambda: now[0])
    assert all(meter.tick() is None for _ in range(1023))
    now[0] = 10.0
    assert meter.tick() == "seconds"  # the 1024th state looks at the clock
