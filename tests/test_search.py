"""Exhaustive decision procedures."""

import collections
import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

from hedonic_dynamics import core, games, search
from hedonic_dynamics.core import (
    DeviationMove,
    Partition,
    StabilityKind,
    canonicalize,
)
from hedonic_dynamics.dynamics import MoveFinder, replay
from hedonic_dynamics.instances import build, reduce, toy_formula_catalog
from hedonic_dynamics.instances import random as random_instance
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

from conftest import (
    fraction_fhg,
    mixed_fhg,
    move_digest,
    rand_ahg,
    rand_dhg,
    rand_fhg,
    rand_hdg,
    rand_partition,
    rand_weak_order,
    subclass_of,
)


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


def typed_covers(game) -> list:
    """The shapes ``TypeReduced`` checks: its clash-free typed covers."""
    meter = search._Meter(SearchBudget())
    types = search._agent_types(game)
    return list(search._type_reduced_shapes(game, types, MoveFinder(game), meter))


def stable_shapes(game) -> list:
    """The per-type count shapes of ``Plain``'s stable partitions."""
    types = search._agent_types(game)
    type_of = {a: t for t, group in enumerate(types) for a in group}
    shapes = set()
    for p in enumerate_partitions(game.n):
        if core.is_stable(game, p, StabilityKind.IS):
            parts = []
            for block in p.blocks:
                part = [0] * len(types)
                for a in block:
                    part[type_of[a]] += 1
                parts.append(tuple(part))
            shapes.add(tuple(sorted(parts, reverse=True)))
    return sorted(shapes)


def shared_orders(rng, n, keys, kinds):
    """``n`` orders over ``keys`` drawn from at most ``kinds`` distinct
    ones, so that types hold several agents."""
    distinct = [rand_weak_order(rng, keys, rng.random() < 0.5) for _ in range(kinds)]
    return [rng.choice(distinct) for _ in range(n)]


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


def test_enumerated_partitions_are_canonical():
    # they skip the validating constructor, so they must come out as it would
    # build them: sorted tuple blocks in canonical order
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            checked = Partition(p.blocks)
            assert (p.blocks, p.n) == (checked.blocks, checked.n)
            assert all(type(block) is tuple for block in p.blocks)


def restricted_growth_partitions(n):
    """The partitions of 0..n-1 as block tuples, in the lexicographic order
    of their restricted growth strings, filtered from the label strings in
    which agent i's label is at most i."""
    for labels in itertools.product(*(range(i + 1) for i in range(n))):
        if all(lab <= max(labels[:i], default=-1) + 1 for i, lab in enumerate(labels)):
            blocks = [[] for _ in range(max(labels) + 1)]
            for agent, lab in enumerate(labels):
                blocks[lab].append(agent)
            yield tuple(map(tuple, blocks))


def test_enumerate_partitions_order_is_restricted_growth():
    # a `Plain` scan that runs out of budget returns the first witness it
    # met, so the order is part of the answer
    for n in range(1, 9):
        got = (p.blocks for p in enumerate_partitions(n))
        assert list(got) == list(restricted_growth_partitions(n)), n


def test_closed_enumeration_leaves_no_state():
    for n, k in ((5, 7), (8, 100), (8, 1)):
        first = enumerate_partitions(n)
        head = [next(first).blocks for _ in range(k)]
        first.close()
        again = enumerate_partitions(n)
        assert [next(again).blocks for _ in range(k)] == head
        assert len(list(again)) + k == bell_numbers(n)[n]


def test_enumerate_partitions_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_partitions(14))
    assert next(enumerate_partitions(13)) == Partition([list(range(13))])
    with pytest.raises(ValueError):
        next(enumerate_partitions(0))


def test_search_budget_validation():
    with pytest.raises(ValueError, match="max_states"):
        SearchBudget(max_states=0)
    with pytest.raises(ValueError, match="max_seconds"):
        SearchBudget(max_seconds=-1)
    assert SearchBudget().max_states == 50_000_000


def test_vector_partitions_match_known_counts():
    # with every agent indifferent every shape is stable, so the typed
    # covers are all multiset partitions of the type counts: for a single
    # type the integer partitions
    for n, count in ((4, 5), (5, 7), (6, 11)):
        indifferent = games.AnonymousGame([games.WeakOrder([range(1, n + 1)])] * n)
        assert len(typed_covers(indifferent)) == count
    ratios = games.RatioDomain(1, 2).enumerate()
    colors = [games.Color.RED, games.Color.BLUE, games.Color.BLUE]
    indifferent = games.DiversityGame(colors, [games.WeakOrder([ratios])] * 3)
    assert sorted(typed_covers(indifferent)) == sorted(
        [((1, 2),), ((1, 1), (0, 1)), ((1, 0), (0, 2)), ((1, 0), (0, 1), (0, 1))]
    )


# --- existence --------------------------------------------------------------


def test_existence_on_the_pair_chase_ring():
    answer = exists_is_partition(pair_chase_dhg())
    assert isinstance(answer, StableExists)
    assert answer.witness == Partition.grand(3)


def test_existence_tie_breaks_to_smallest_canonical_encoding(monkeypatch):
    # with no approvals at all, every partition is stable; the grand
    # coalition has the smallest encoding
    empty = games.DichotomousGame(3, [[], [], []])
    answer = exists_is_partition(empty)
    assert isinstance(answer, StableExists)
    assert answer.witness == Partition.grand(3)
    # at n = 11 the least encoding is not the grand coalition's: "0,1,10"
    # sorts before "0,1,2,...". A budget just large enough for the first
    # cover gives it, and no encoding is computed to find it: 3 listing
    # states reach {0,1,10}, then its placement, 16 states reach {2..9}
    # (each of its prefixes from {2}, and that prefix plus 10), then its
    # placement and the cover
    monkeypatch.setattr(search, "canonicalize", None)
    least = Partition([(0, 1, 10), tuple(range(2, 10))])
    ticks = 3 + 1 + 16 + 1 + 1
    for game, strategy in (
        (games.DichotomousGame(11, [[]] * 11), Plain()),
        (games.FractionalGame([[0] * 11 for _ in range(11)]), PrunedFHG()),
    ):
        answer = exists_is_partition(game, strategy, SearchBudget(max_states=ticks))
        assert answer == StableExists(least)
        assert exists_is_partition(
            game, strategy, SearchBudget(max_states=ticks - 1)
        ) == BudgetExhausted("states", ticks - 1)


def test_labelled_covers_come_out_in_encoding_order():
    """Both labelled strategies list their covers in strictly increasing
    canonical encoding, so their first is the least. In the all-indifferent
    games at n = 11-12 every partition is stable and encoding order is not
    agent order ("0,1,10" sorts before "0,1,2"); only their first 3 000
    covers are read."""

    def encodings(covers, game, limit=None):
        meter = search._Meter(SearchBudget())
        listed = covers(game, MoveFinder(game), meter)
        return [canonicalize(p) for p in itertools.islice(listed, limit)]

    plain, pruned = search._plain_candidates, search._pruned_fhg_candidates
    cases = [
        (plain, random_instance(kind, n, seed).game, None)
        for kind in ("ahg", "hdg", "fhg", "dhg")
        for n in range(2, 9)
        for seed in (n, 7 * n + 1)
    ]
    cases += [
        (pruned, random_instance("fhg", n, seed).game, None)
        for n in range(2, 13)
        for seed in (n, 7 * n + 1)
    ]
    for n in (11, 12):
        cases.append((plain, games.DichotomousGame(n, [[]] * n), 3000))
        cases.append((pruned, games.FractionalGame([[0] * n for _ in range(n)]), 3000))
    listed = 0
    for covers, game, limit in cases:
        keys = encodings(covers, game, limit)
        assert all(a < b for a, b in zip(keys, keys[1:])), (covers.__name__, game)
        listed += len(keys) > 1
    assert listed > 40, listed


def test_existence_budget_paths():
    # the first complete cover, the grand coalition, is the 5th tick: the
    # blocks {0}, {0,1} and {0,1,2} are tested on the way to it, the first
    # block listed, then it is placed and is a cover
    early = exists_is_partition(
        pair_chase_dhg(), Plain(), SearchBudget(max_states=5)
    )
    assert early == StableExists(Partition.grand(3))
    assert exists_is_partition(
        pair_chase_dhg(), Plain(), SearchBudget(max_states=4)
    ) == BudgetExhausted(limit="states", states_explored=4)
    # the loner game's only stable partition is all-singletons, its only
    # cover, found after all 7 blocks are tested: each agent's singleton is
    # the last block its listing gives
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


def test_orders_listed_apart_form_one_type():
    """Equal rank tables are one type, however each order's classes were
    listed and whichever object holds them."""
    orders = [
        games.WeakOrder([[3, 1], [4, 2]]),
        games.WeakOrder([[2, 4], [1, 3]]),
        games.WeakOrder([[1, 3], [2, 4]]),
        games.WeakOrder([{3, 1}, (4, 2)]),
    ]
    assert search._agent_types(games.AnonymousGame(orders)) == [[0, 2, 3], [1]]
    colors = [games.Color.RED, games.Color.BLUE, games.Color.RED]
    half, two_thirds = games.Fraction(1, 2), games.Fraction(2, 3)
    orders = [games.WeakOrder(c) for c in ([[0, half], [1, two_thirds]],
                                           [[half, 0], [two_thirds, 1]],
                                           [[half, 0], [two_thirds, 1]])]
    game = games.DiversityGame(colors, orders)
    assert search._agent_types(game) == [[0, 2], [1]]


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
        q = Partition([[perm[a] for a in b] for b in p.blocks])
        assert core.is_stable(game, p, StabilityKind.IS) == core.is_stable(
            game, q, StabilityKind.IS
        )


def test_type_reduced_agrees_with_plain_on_size_games():
    # the typed covers must be exactly the stable shapes: matching answers
    # alone would hide a one-direction clash test, since has_move filters
    # the covers; shared orders put several agents in one type
    rng = random.Random(2718)
    for trial in range(60):
        n = rng.randint(3, 8)
        if trial < 40:
            game = rand_ahg(rng, n, strict=rng.random() < 0.5, sp=rng.random() < 0.5)
        else:
            game = games.AnonymousGame(
                shared_orders(rng, n, range(1, n + 1), rng.randint(1, 3))
            )
        plain = exists_is_partition(game, Plain())
        reduced = exists_is_partition(game, TypeReduced())
        assert type(plain) is type(reduced)
        if isinstance(plain, StableExists):
            for answer in (plain, reduced):
                assert core.is_stable(game, answer.witness, StabilityKind.IS)
        assert sorted(typed_covers(game)) == stable_shapes(game)


def test_type_reduced_agrees_with_plain_on_two_color_games():
    rng = random.Random(161803)
    for trial in range(40):
        n = rng.randint(3, 7)
        reds = rng.randint(0, n)
        if trial < 25:
            game = rand_hdg(rng, reds, n - reds, strict=rng.random() < 0.5)
        else:
            colors = [games.Color.RED] * reds + [games.Color.BLUE] * (n - reds)
            rng.shuffle(colors)
            ratios = games.RatioDomain(reds, n - reds).enumerate()
            game = games.DiversityGame(
                colors, shared_orders(rng, n, ratios, rng.randint(1, 2))
            )
        plain = exists_is_partition(game, Plain())
        reduced = exists_is_partition(game, TypeReduced())
        assert type(plain) is type(reduced)
        if isinstance(plain, StableExists):
            assert core.is_stable(game, reduced.witness, StabilityKind.IS)
        assert sorted(typed_covers(game)) == stable_shapes(game)


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
            covers = search._pruned_fhg_candidates(game, MoveFinder(game), meter)
            assert sorted(canonicalize(p) for p in covers) == stable


class SignFirstFHG(games.FractionalGame):
    """A weight game whose agents rank a coalition by the sign of their
    average first and, among coalitions they like, prefer the smaller
    average: not the stock order, but an agent with a negative average
    still walks out, so ``PrunedFHG``'s pool still holds every block of a
    stable partition."""

    __slots__ = ()

    def prefers(self, agent, a, b):
        signs = [(s > 0) - (s < 0) for s in (self.member_sum(agent, c) for c in (a, b))]
        if signs[0] != signs[1]:
            return (signs[0] > signs[1]) - (signs[0] < signs[1])
        stock = super().prefers(agent, a, b)
        return -stock if signs[0] > 0 else stock


def stable_keys(game) -> list:
    return sorted(
        canonicalize(p)
        for p in enumerate_partitions(game.n)
        if core.is_stable(game, p, StabilityKind.IS)
    )


def test_cover_strategies_keep_a_subclass_games_preferences():
    # a subclass may override `prefers`, so its clashes go to the verdict
    # rules; answering them by the stock rules would drop the override
    rng = random.Random(9091)
    overridden = 0
    for _ in range(30):
        stock = rand_fhg(rng, rng.randint(3, 7))
        game = SignFirstFHG(stock.weights)
        plain = exists_is_partition(game, Plain())
        assert exists_is_partition(game, PrunedFHG()) == plain
        covers = search._pruned_fhg_candidates(
            game, MoveFinder(game), search._Meter(SearchBudget()))
        stable = stable_keys(game)
        assert sorted(canonicalize(p) for p in covers) == stable
        overridden += stable != stable_keys(stock)
    assert overridden >= 10
    overridden = 0
    for trial in range(24):
        n = rng.randint(3, 7)
        if trial % 2:
            reds = rng.randint(0, n)
            stock = rand_hdg(rng, reds, n - reds)
        else:
            stock = games.AnonymousGame(
                shared_orders(rng, n, range(1, n + 1), rng.randint(1, 3)))
        shapes = stable_shapes(stock)
        game = subclass_of(stock, reverse=trial % 4 >= 2)
        assert sorted(typed_covers(game)) == stable_shapes(game)
        overridden += stable_shapes(game) != shapes
        plain = exists_is_partition(game, Plain())
        assert type(exists_is_partition(game, TypeReduced())) is type(plain)
    assert overridden >= 5


class RankedGame(games.DichotomousGame):
    """A hedonic game with arbitrary preferences: each agent ranks the
    coalitions holding it by a table, higher being better, ties allowed."""

    __slots__ = ("ranks",)

    def __init__(self, ranks):
        super().__init__(len(ranks), [[] for _ in ranks])
        self.ranks = ranks

    def prefers(self, agent, a, b):
        rank = self.ranks[agent]
        return (rank[a] > rank[b]) - (rank[a] < rank[b])


def rand_ranked(rng, n) -> RankedGame:
    ranks = []
    for agent in range(n):
        own = [c for k in range(1, n + 1)
               for c in itertools.combinations(range(n), k) if agent in c]
        ranks.append({c: rng.randint(0, len(own)) for c in own})
    return RankedGame(ranks)


def test_plain_matches_a_brute_force_scan_on_core(monkeypatch):
    # `Plain` builds its answer by the clash rule, so it is checked against
    # the least canonical partition `core` finds stable among all of them
    rng = random.Random(1729)
    draws = [
        lambda n: rand_ahg(rng, n, strict=rng.random() < 0.5),
        lambda n: rand_hdg(rng, n // 2, n - n // 2, strict=rng.random() < 0.5),
        lambda n: rand_fhg(rng, n, symmetric=rng.random() < 0.5),
        lambda n: rand_dhg(rng, n, density=rng.random()),
    ]
    cases = [draw(n) for draw in draws for n in (1, 2, 3, 4, 5, 6, 7, 8)]
    cases += [subclass_of(draw(rng.randint(3, 6)), reverse)
              for draw in draws for reverse in (False, True)]
    cases += [pair_chase_dhg(), loner_game(5), fraction_fhg(rng, 5), mixed_fhg(rng, 5)]
    ranked = [rand_ranked(rng, 3) for _ in range(3000)]
    cases += [g for g in ranked if not stable_keys(g)]  # no stable partition
    cases += [rand_ranked(rng, 4) for _ in range(10)]

    # the spy records each block as the search lists it; after the search
    # the rest of each listing is read too, so the whole pool is compared
    listings, listed = [], set()
    plain_listings = search._plain_listings

    def record(listing):
        for mask in listing:
            listed.add(search._members(mask))
            yield mask

    def spy(*args):
        listings[:] = map(record, plain_listings(*args))
        return listings

    monkeypatch.setattr(search, "_plain_listings", spy)
    empty = 0
    for game in cases:
        listed.clear()
        stable = stable_keys(game)
        answer = exists_is_partition(game, Plain())
        if stable:
            assert canonicalize(answer.witness) == stable[0], game
        else:
            assert isinstance(answer, NoStablePartition), game
            empty += 1
        if type(game) is games.FractionalGame:
            tolerable = set(tolerable_coalitions(game, search._Meter(SearchBudget())))
            assert listed <= tolerable
            for listing in listings:
                collections.deque(listing, 0)
            assert listed == tolerable
    assert empty >= 5


def test_witness_is_checked_apart_from_the_clash_rule(monkeypatch):
    # a clash rule that misses every move lets unstable covers through; the
    # search must then raise rather than return one as its witness
    monkeypatch.setattr(MoveFinder, "clash", lambda self, a, b: False)
    rng = random.Random(4242)
    cases = [(rand_ahg(rng, n), strategy) for n in (3, 4, 5)
             for strategy in (Plain(), TypeReduced())]
    cases += [(rand_hdg(rng, 2, n - 2), strategy) for n in (3, 4, 5)
              for strategy in (Plain(), TypeReduced())]
    fhgs = [rand_fhg(rng, n) for n in (4, 5, 6) for _ in range(4)]
    cases += [(game, strategy) for game in fhgs for strategy in (Plain(), PrunedFHG())]
    cases += [(rand_dhg(rng, n, density=0.5), Plain()) for n in (3, 4, 5)]
    cases += [(loner_game(4), strategy) for strategy in (Plain(), TypeReduced())]
    raised = collections.Counter()
    for game, strategy in cases:
        try:
            answer = exists_is_partition(game, strategy)
        except RuntimeError as exc:
            assert "has a move" in str(exc)
            raised[type(strategy)] += 1
        else:
            assert core.is_stable(game, answer.witness, StabilityKind.IS)
    assert min(raised[kind] for kind in (Plain, TypeReduced, PrunedFHG)) >= 2


def test_plain_refuses_games_over_the_cap_before_testing_blocks(monkeypatch):
    def clash(self, a, b):
        raise AssertionError(f"block {a} tested")

    monkeypatch.setattr(MoveFinder, "clash", clash)
    with pytest.raises(CapExceeded):
        exists_is_partition(loner_game(search.PARTITION_CAP + 1), Plain())


def test_pruned_budget_counts_pool_blocks_and_covers():
    no_is = build("fhg15").game
    full = exists_is_partition(no_is, PrunedFHG())
    assert full == NoStablePartition(840)
    short = exists_is_partition(
        no_is, PrunedFHG(), SearchBudget(max_states=full.states_checked - 1)
    )
    assert short == BudgetExhausted("states", full.states_checked - 1)
    # with all weights zero every partition is stable; the first cover
    # found is the grand coalition, the least, after 3 listing states ({0},
    # {0,1} and {0,1,2}), 1 placed block and 1 complete cover
    indifferent = games.FractionalGame([[0] * 3 for _ in range(3)])
    assert exists_is_partition(
        indifferent, PrunedFHG(), SearchBudget(max_states=4)
    ) == BudgetExhausted("states", 4)
    early = exists_is_partition(indifferent, PrunedFHG(), SearchBudget(max_states=5))
    assert early == StableExists(Partition.grand(3))
    assert exists_is_partition(indifferent, PrunedFHG()) == StableExists(
        Partition.grand(3)
    )


def test_type_reduced_budget_counts_parts_and_covers():
    no_is = build("ahg15").game
    full = exists_is_partition(no_is, TypeReduced())
    assert full == NoStablePartition(103)
    short = exists_is_partition(
        no_is, TypeReduced(), SearchBudget(max_states=full.states_checked - 1)
    )
    assert short == BudgetExhausted("states", full.states_checked - 1)


#: seeded ``random(kind, n, 7n + 1)`` games, every strategy each class
#: accepts: (answer, ticks of the unbudgeted search, answer under a budget
#: of one tick less, answer under half the ticks), an answer being the
#: witness's digest, ``("none", states)`` or ``(limit, states)``; recorded
#: before the cover strategies stopped re-testing their covers for moves.
#: The ``Plain`` rows' ticks, cut and half answers were re-recorded when
#: ``Plain`` moved onto the cover search (a tick per pool block tested,
#: placed block and cover, instead of one per labelled partition), and the
#: ``Plain`` and ``PrunedFHG`` rows' again when both stopped at their first
#: cover, which comes out least, and again when each lowest agent's pool
#: came to be listed only as far as the cover search reads it; every
#: witness stayed the same
EXISTENCE_GOLDEN = {
    ("ahg", 4, Plain): ("6cd6fd7cc26e", 10, ("states", 9), ("states", 5)),
    ("ahg", 4, TypeReduced): ("6cd6fd7cc26e", 15, "6cd6fd7cc26e", "6cd6fd7cc26e"),
    ("ahg", 5, Plain): ("b09de8b672bd", 33, ("states", 32), ("states", 16)),
    ("ahg", 5, TypeReduced): ("b09de8b672bd", 13, "b09de8b672bd", "b09de8b672bd"),
    ("ahg", 6, Plain): ("1d3c31ea5a81", 44, ("states", 43), ("states", 22)),
    ("ahg", 6, TypeReduced): ("1d3c31ea5a81", 41, "1d3c31ea5a81", "1d3c31ea5a81"),
    ("ahg", 7, Plain): ("c242871c65b5", 49, ("states", 48), ("states", 24)),
    ("ahg", 7, TypeReduced): ("c242871c65b5", 200, "c242871c65b5", "c242871c65b5"),
    ("ahg", 8, Plain): ("db7e29fada0e", 47, ("states", 46), ("states", 23)),
    ("ahg", 8, TypeReduced): ("db7e29fada0e", 330, "db7e29fada0e", "db7e29fada0e"),
    ("ahg", 9, Plain): ("7674e85374b4", 316, ("states", 315), ("states", 158)),
    ("ahg", 9, TypeReduced): ("7674e85374b4", 684, "7674e85374b4", "7674e85374b4"),
    ("hdg", 4, Plain): ("6cd6fd7cc26e", 10, ("states", 9), ("states", 5)),
    ("hdg", 4, TypeReduced): ("6cd6fd7cc26e", 13, "6cd6fd7cc26e", "6cd6fd7cc26e"),
    ("hdg", 5, Plain): ("549b7c70dcda", 23, ("states", 22), ("states", 11)),
    ("hdg", 5, TypeReduced): ("549b7c70dcda", 37, "549b7c70dcda", "549b7c70dcda"),
    ("hdg", 6, Plain): ("aeac62c81d95", 16, ("states", 15), ("states", 8)),
    ("hdg", 6, TypeReduced): ("aeac62c81d95", 57, "aeac62c81d95", "aeac62c81d95"),
    ("hdg", 7, Plain): ("e6cee67c856a", 11, ("states", 10), ("states", 5)),
    ("hdg", 7, TypeReduced): ("e6cee67c856a", 298, "e6cee67c856a", "e6cee67c856a"),
    ("hdg", 8, Plain): ("6a457007b729", 90, ("states", 89), ("states", 45)),
    ("hdg", 8, TypeReduced): ("6a457007b729", 534, "6a457007b729", "6a457007b729"),
    ("hdg", 9, Plain): ("f6e7dce58b64", 139, ("states", 138), ("states", 69)),
    ("hdg", 9, TypeReduced): ("f6e7dce58b64", 1585, "f6e7dce58b64", "f6e7dce58b64"),
    ("fhg", 4, Plain): ("22d472d8f7da", 18, ("states", 17), ("states", 9)),
    ("fhg", 4, PrunedFHG): ("22d472d8f7da", 10, ("states", 9), ("states", 5)),
    ("fhg", 5, Plain): ("a372cc366359", 31, ("states", 30), ("states", 15)),
    ("fhg", 5, PrunedFHG): ("a372cc366359", 13, ("states", 12), ("states", 6)),
    ("fhg", 6, Plain): ("0b98ed2ffcef", 40, ("states", 39), ("states", 20)),
    ("fhg", 6, PrunedFHG): ("0b98ed2ffcef", 12, ("states", 11), ("states", 6)),
    ("fhg", 7, Plain): ("a02e195be3d7", 70, ("states", 69), ("states", 35)),
    ("fhg", 7, PrunedFHG): ("a02e195be3d7", 70, ("states", 69), ("states", 35)),
    ("fhg", 8, Plain): ("eae76203df33", 83, ("states", 82), ("states", 41)),
    ("fhg", 8, PrunedFHG): ("eae76203df33", 83, ("states", 82), ("states", 41)),
    ("fhg", 9, Plain): ("f97f5df7381e", 411, ("states", 410), ("states", 205)),
    ("fhg", 9, PrunedFHG): ("f97f5df7381e", 156, ("states", 155), ("states", 78)),
    ("dhg", 4, Plain): ("458d2bb698c3", 16, ("states", 15), ("states", 8)),
    ("dhg", 5, Plain): ("6484c68c0c85", 7, ("states", 6), ("states", 3)),
    ("dhg", 6, Plain): ("4ab0c84bff39", 36, ("states", 35), ("states", 18)),
    ("dhg", 7, Plain): ("36ba80dfe034", 21, ("states", 20), ("states", 10)),
    ("dhg", 8, Plain): ("52322b243955", 26, ("states", 25), ("states", 13)),
    ("dhg", 9, Plain): ("52682d06497a", 43, ("states", 42), ("states", 21)),
}


def _existence_summary(answer):
    if isinstance(answer, StableExists):
        return hashlib.sha256(canonicalize(answer.witness)).hexdigest()[:12]
    if isinstance(answer, NoStablePartition):
        return ("none", answer.states_checked)
    return (answer.limit, answer.states_explored)


def test_existence_golden_sweep(monkeypatch):
    meters = []

    class CountingMeter(search._Meter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            meters.append(self)

    monkeypatch.setattr(search, "_Meter", CountingMeter)
    for (kind, n, strategy), golden in EXISTENCE_GOLDEN.items():
        game = random_instance(kind, n, 7 * n + 1).game
        full = _existence_summary(exists_is_partition(game, strategy()))
        states = meters[-1].states
        cut, half = (
            _existence_summary(
                exists_is_partition(game, strategy(), SearchBudget(max_states=s))
            )
            for s in (states - 1, states // 2)
        )
        assert (full, states, cut, half) == golden, (kind, n, strategy)
        if strategy is not TypeReduced:
            # a labelled search returns the full scan's witness or runs out
            for answer in (cut, half):
                assert answer == full or answer[0] == "states", (kind, n, strategy)


def test_forbidden_pairs_and_tolerable_pool():
    rows = [
        [0, -100, 2, 2],
        [-100, 0, 2, 2],
        [2, 2, 0, 2],
        [2, 2, 2, 0],
    ]
    game = games.FractionalGame(rows)
    assert forbidden_pairs(game) == {(0, 1)}
    pool = tolerable_coalitions(game, search._Meter(SearchBudget()))
    assert all(not {0, 1} <= set(c) for c in pool)
    assert (0, 2, 3) in pool and (2, 3) in pool and (0,) in pool

    hostile = games.FractionalGame([[0, -1, 0], [-1, 0, 0], [0, 0, 0]])
    pool = tolerable_coalitions(hostile, search._Meter(SearchBudget()))
    assert sorted(pool) == [(0,), (0, 2), (1,), (1, 2), (2,)]


def brute_force_pool(game) -> list:
    """Every coalition with no forbidden pair in which every member's
    weight sum is nonnegative, in the order of ``tolerable_coalitions``:
    sorted member tuples, a prefix before its extensions."""
    n, w, bad = game.n, game.weights, forbidden_pairs(game)
    return sorted(
        c
        for size in range(1, n + 1)
        for c in itertools.combinations(range(n), size)
        if not any(pair in bad for pair in itertools.combinations(c, 2))
        and all(sum(w[m][x] for x in c) >= 0 for m in c)
    )


def test_tolerable_pool_matches_brute_force_in_order():
    # order as well as content: the meter ticks along the pool's order
    rng = random.Random(4721)
    for trial in range(30):
        game = (rand_fhg, fraction_fhg, mixed_fhg)[trial % 3](rng, rng.randint(2, 10))
        assert tolerable_coalitions(game, search._Meter(SearchBudget())) == (
            brute_force_pool(game)), trial


def plain_pool(game) -> list:
    """Every block no member would leave to be alone, by ``core``'s
    verdict rule, sorted."""
    agents = range(game.n)
    return sorted(
        block
        for size in range(1, game.n + 1)
        for block in itertools.combinations(agents, size)
        if all(core.deviation_verdict(game, m, block, (), StabilityKind.IS)
               for m in block)
    )


def read_listings(listings) -> list:
    """Each pool listing read to its end, as member tuples."""
    return [[search._members(mask) for mask in listing] for listing in listings]


def test_each_listing_read_to_its_end_is_the_whole_pool():
    # together, the listings give each pool block once, each from the
    # listing of its lowest agent, and no other block
    rng = random.Random(8191)
    cases = []
    for trial in range(30):
        game = (rand_fhg, fraction_fhg, mixed_fhg)[trial % 3](rng, rng.randint(2, 10))
        listings = search._tolerable_listings(game, search._Meter(SearchBudget()))
        cases.append((read_listings(listings), brute_force_pool(game)))
    draws = [
        lambda n: rand_ahg(rng, n, strict=rng.random() < 0.5),
        lambda n: rand_hdg(rng, n // 2, n - n // 2, strict=rng.random() < 0.5),
        lambda n: rand_fhg(rng, n, symmetric=rng.random() < 0.5),
        lambda n: rand_dhg(rng, n, density=rng.random()),
    ]
    for draw in draws:
        for n in range(1, 8):
            game = draw(n)
            meter = search._Meter(SearchBudget())
            listings = search._plain_listings(game, MoveFinder(game), meter)
            cases.append((read_listings(listings), plain_pool(game)))
    for listed, pool in cases:
        assert sorted(itertools.chain(*listed)) == pool
        assert all(block[0] == low for low, blocks in enumerate(listed) for block in blocks)


def test_each_listing_comes_out_in_encoding_order():
    """Each lowest agent's blocks come out in strictly increasing order of
    their text plus ``"|"``, where "0,1,10" sorts before "0,1,2" and a
    block after every block that extends it."""
    indifferent = [games.DichotomousGame(13, [[]] * 13),
                   games.FractionalGame([[0] * 13 for _ in range(13)])]
    cases = [
        search._plain_listings(game, MoveFinder(game), search._Meter(SearchBudget()))
        for game in [random_instance(kind, n, n + 5).game
                     for kind in ("ahg", "hdg", "fhg", "dhg") for n in (11, 13)]
        + indifferent[:1]
    ]
    cases += [
        search._tolerable_listings(game, search._Meter(SearchBudget()))
        for game in [random_instance("fhg", n, seed).game
                     for n in (11, 12, 13) for seed in (n, 7 * n + 1)]
        + indifferent[1:]
    ]
    ordered = 0
    for listings in cases:
        for blocks in read_listings(listings):
            keys = [",".join(map(str, block)) + "|" for block in blocks]
            assert all(a < b for a, b in zip(keys, keys[1:])), keys
            ordered += len(keys) > 1
    assert ordered > 100, ordered
    # with every block in the pool, agent 0's listing starts and ends so
    for listings in (
        search._plain_listings(indifferent[0], MoveFinder(indifferent[0]),
                               search._Meter(SearchBudget())),
        search._tolerable_listings(indifferent[1], search._Meter(SearchBudget())),
    ):
        listed = read_listings(listings[:1])[0]
        assert listed[:3] == [(0, 1, 10, 11, 12), (0, 1, 10, 11), (0, 1, 10, 12)]
        assert listed[-3:] == [(0, 9, 12), (0, 9), (0,)]
        assert len(listed) == 2**12


def test_a_witness_comes_before_the_pool_is_listed():
    # every block of the all-indifferent 13-agent games is in the pool, 8 191
    # of them, and every partition is stable; the least is found within 100
    # ticks, since each pool is listed only as far as the search reads it
    least = Partition([(0, 1, 10, 11, 12), tuple(range(2, 10))])
    for game, strategy in (
        (games.DichotomousGame(13, [[]] * 13), Plain()),
        (games.FractionalGame([[0] * 13 for _ in range(13)]), PrunedFHG()),
    ):
        answer = exists_is_partition(game, strategy, SearchBudget(max_states=100))
        assert answer == StableExists(least)


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


#: (steps, move digest) of the shortest path found from the bundled start of
#: `sat-to-dhg-exists` on two toy formulas, recorded before the cached block
#: text and the ratio rank memo
REACH_GOLDEN = {
    "two-clause-chain": (8, "f349a89fb95b1b4f"),
    "two-clause-opposed": (9, "e613687ff888f33f"),
}


@pytest.mark.parametrize("name", sorted(REACH_GOLDEN))
def test_path_search_golden_on_toy_reductions(name):
    inst = reduce("sat-to-dhg-exists", dict(toy_formula_catalog())[name])
    out = exists_path_to_is(inst.game, inst.starts["initial"])
    assert isinstance(out, PathFound)
    assert (len(out.trace), move_digest(out.trace.moves)) == REACH_GOLDEN[name]


def test_path_search_memory_stays_bounded():
    # states are keyed by their block tuple, the parent links are plain
    # tuples, and a queued state holds its parent's move table until the
    # last child is dequeued: the peak is about 3.6 MB under Python 3.11,
    # against 4.5 MB with canonical bytes keys and a move object per move
    # listed.  A full collection first empties the interpreter's free
    # lists, whose reuse tracemalloc does not see, so that the peak does
    # not depend on which tests ran before
    inst = reduce("sat-to-dhg-exists", dict(toy_formula_catalog())["two-clause-opposed"])
    gc.collect()
    tracemalloc.start()
    try:
        out = exists_path_to_is(inst.game, inst.starts["initial"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, PathFound)
    assert peak < 4.2 * 2**20, peak


def test_convergence_search_memory_drops_finished_links():
    # the DFS keeps a link only while its state is on the stack, so a run
    # that stores 20 000 states and finishes nearly all of them peaks where
    # a colour map did: about 4.6 MB under Python 3.11, against 5.8 MB when
    # every finished state keeps its (parent, agent, target) link.  The
    # full collection first is as in the path search's test above
    game = random_instance("ahg", 11, 1).game
    gc.collect()
    tracemalloc.start()
    try:
        out = all_paths_converge(game, Partition.grand(11), SearchBudget(max_states=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == BudgetExhausted(limit="states", states_explored=20_000)
    assert peak < 5.2 * 2**20, peak


@pytest.mark.parametrize("search_fn", [exists_path_to_is, all_paths_converge])
@pytest.mark.parametrize("n", [3, 9])
def test_reachability_rejects_a_start_of_another_size(search_fn, n):
    game = build("ahg7").game
    with pytest.raises(ValueError, match=f"the start has {n} agents, the game 7"):
        search_fn(game, Partition.singletons(n))


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


def reference_path(game, start):
    """Breadth-first search on ``core`` alone, in the engine's order:
    ``(moves of a shortest path to a stable partition or None, states
    seen)``."""
    parents = {canonicalize(start): None}
    queue = collections.deque([start])
    while queue:
        state = queue.popleft()
        key = canonicalize(state)
        moves = core.enumerate_deviations(game, state, StabilityKind.IS)
        if not moves:
            path = []
            while parents[key] is not None:
                key, move = parents[key]
                path.append(move)
            return path[::-1], len(parents)
        for move in moves:
            post = core.apply(state, move)
            post_key = canonicalize(post)
            if post_key not in parents:
                parents[post_key] = (key, move)
                queue.append(post)
    return None, len(parents)


def reference_cycle(game, start):
    """Depth-first search on ``core`` alone, in the engine's order: ``(the
    first lasso met as (moves, prefix_len, cycle_len) or None, states
    reachable)``."""
    GRAY, BLACK = 1, 2
    color = {start.blocks: GRAY}
    # frames: (state, its moves, the move that entered it)
    stack = [(start, core.iter_deviations(game, start, StabilityKind.IS), None)]
    lasso = None
    while stack:
        state, moves, _ = stack[-1]
        for move in moves:
            post = core.apply(state, move)
            seen = color.get(post.blocks)
            if seen == GRAY and lasso is None:
                path = [f[2] for f in stack[1:]] + [move]
                prefix = [f[0].blocks for f in stack].index(post.blocks)
                lasso = (path, prefix, len(path) - prefix)
            if seen is None:
                color[post.blocks] = GRAY
                stack.append(
                    (post, core.iter_deviations(game, post, StabilityKind.IS), move))
                break
        else:
            color[state.blocks] = BLACK
            stack.pop()
    return lasso, len(color)


def test_searches_match_a_reference_search_on_core():
    # every rule set of the move engine, the verdict rules through a
    # subclass of each class; tables are patched from each state's parent
    cases = {"NoPath": 0, "PathFound": 0, "CycleReachable": 0, "ConvergesAlways": 0}
    games = [random_instance(kind, n, seed).game for kind, n, seed in
             itertools.product(("ahg", "hdg", "fhg", "dhg"), (5, 7), (1, 2))]
    games.append(pair_chase_dhg())  # no stable partition reachable from singletons
    for index, game in enumerate(games):
        for sub in (False, True):
            if sub:
                # every other subclass turns the preferences around
                game = subclass_of(game, reverse=index % 2 == 1)
            n = game.n
            for start in (Partition.singletons(n), Partition.grand(n)):
                label = (type(game).__name__, n, start)
                path, seen = reference_path(game, start)
                out = exists_path_to_is(game, start)
                if path is None:
                    assert out == NoPath(states_explored=seen), label
                else:
                    assert isinstance(out, PathFound), label
                    assert list(out.trace.moves) == path, label
                cases[type(out).__name__] += 1
                lasso, reachable = reference_cycle(game, start)
                out = all_paths_converge(game, start)
                if lasso is not None:
                    assert isinstance(out, CycleReachable), label
                    got = (list(out.trace.moves), out.prefix_len, out.cycle_len)
                    assert got == lasso, label
                    states = replay(game, start, out.trace.moves).states()
                    assert states[out.prefix_len] == states[-1], label
                    assert out.prefix_len + out.cycle_len == len(states) - 1
                else:
                    assert out == ConvergesAlways(states_explored=reachable), label
                cases[type(out).__name__] += 1
    assert min(cases.values()) >= 2, cases


def test_searches_skip_only_successors_already_reached(monkeypatch):
    # each search may leave a move of an expanded state unbuilt only when
    # the state it leads to was reached before that state was expanded; a
    # state counts once its moves were all listed (a lasso ends the DFS
    # with the stack's listings unfinished)
    log = []  # ("expand" or "done", blocks), ("build", blocks, agent, target, post)
    real_successor, real_expansion = search.successor, search._expansion

    def recording_successor(blocks, cur, agent, target):
        made = real_successor(blocks, cur, agent, target)
        log.append(("build", blocks, agent, target, made[0]))
        return made

    def recording_expansion(table, mover, made):
        # a generator: the event is logged when the search starts listing
        blocks = table.partition.blocks
        log.append(("expand", blocks))
        yield from real_expansion(table, mover, made)
        log.append(("done", blocks))

    monkeypatch.setattr(search, "successor", recording_successor)
    monkeypatch.setattr(search, "_expansion", recording_expansion)
    skipped = collections.Counter()
    for kind, n, seed, sub in itertools.product(
            ("ahg", "hdg", "fhg", "dhg"), (5, 6), (1, 2, 3), (False, True)):
        for search_fn in (exists_path_to_is, all_paths_converge):
            game = random_instance(kind, n, seed).game
            if sub:
                game = subclass_of(game, reverse=seed % 2 == 1)
            for start in (Partition.singletons(n), Partition.grand(n)):
                log.clear()
                search_fn(game, start)
                reached = {start.blocks: -1}
                expanded, done = {}, set()
                built = collections.defaultdict(set)
                for at, event in enumerate(log):
                    if event[0] == "expand":
                        expanded[event[1]] = at
                    elif event[0] == "done":
                        done.add(event[1])
                    else:
                        _, blocks, agent, target, post = event
                        built[blocks].add((agent, target))
                        reached.setdefault(post, at)
                for blocks in done:
                    at, state = expanded[blocks], Partition(blocks)
                    for move in core.iter_deviations(game, state, StabilityKind.IS):
                        if (move.agent, move.target) in built[blocks]:
                            continue
                        skipped[kind, search_fn.__name__] += 1
                        post = core.apply(state, move).blocks
                        assert reached.get(post, at) < at, (kind, n, seed, blocks, move)
    assert len(skipped) == 8, skipped  # every class, both searches


#: answers on bundled starts, recorded before either search skipped
#: commuting moves: ``NoPath``/``ConvergesAlways`` counts, (steps, move
#: digest) of a path, (prefix, cycle, move digest) of a lasso
BUNDLED_REACH_GOLDEN = {
    ("fhg15", "rotation-start", "path"): NoPath(1440),
    ("fhg-clique(4)", "blocks", "converge"): ConvergesAlways(1180),
    ("fhg-clique(4)", "blocks", "path"): (6, "21c6cdc80b9ee8af"),
    ("ahg7", "singletons", "path"): (4, "d47f7cf59098707e"),
    ("ahg7", "singletons", "converge"): (6, 6, "e76f81d6d53a96e3"),
    ("hdg10-weak", "singletons", "path"): (6, "e1938bfc2f852ba5"),
    ("hdg10-weak", "singletons", "converge"): (10, 6, "e52efa0affdb9e1a"),
    ("hdg12-no-sp", "singletons", "path"): (6, "f4bb9b2b7d98bf01"),
    ("hdg12-no-sp", "singletons", "converge"): (19, 6, "80c27b170258e9e7"),
}


@pytest.mark.parametrize("name, start, question", sorted(BUNDLED_REACH_GOLDEN))
def test_search_golden_on_bundled_starts(name, start, question):
    inst = build(name)
    search_fn = exists_path_to_is if question == "path" else all_paths_converge
    out = search_fn(inst.game, inst.starts[start])
    if isinstance(out, PathFound):
        out = (len(out.trace), move_digest(out.trace.moves))
    elif isinstance(out, CycleReachable):
        assert out.prefix_len + out.cycle_len == len(out.trace)
        out = (out.prefix_len, out.cycle_len, move_digest(out.trace.moves))
    assert out == BUNDLED_REACH_GOLDEN[name, start, question]


def test_reachability_keys_states_by_blocks_and_builds_moves_only_for_witnesses(
        monkeypatch):
    # both searches key states by block tuple and read moves off the table
    # rows, so a negative answer encodes no state and builds no move object
    fhg15, clique = build("fhg15"), build("fhg-clique(4)")
    made = collections.Counter()
    real_canonicalize = search.canonicalize
    real_init, real_trusted = DeviationMove.__init__, DeviationMove._trusted.__func__

    def counting_canonicalize(partition):
        made["canonicalize"] += 1
        return real_canonicalize(partition)

    def counting_init(self, *args, **kwargs):
        made["move"] += 1
        real_init(self, *args, **kwargs)

    def counting_trusted(cls, agent, target):
        made["move"] += 1
        return real_trusted(cls, agent, target)

    monkeypatch.setattr(search, "canonicalize", counting_canonicalize)
    monkeypatch.setattr(DeviationMove, "__init__", counting_init)
    monkeypatch.setattr(DeviationMove, "_trusted", classmethod(counting_trusted))
    out = exists_path_to_is(fhg15.game, fhg15.starts["rotation-start"])
    assert out == NoPath(1440)
    out = all_paths_converge(clique.game, clique.starts["blocks"])
    assert out == ConvergesAlways(1180)
    assert made == {}, made
    # the counters do see the moves of a witness path
    out = exists_path_to_is(clique.game, clique.starts["blocks"])
    assert made["move"] >= len(out.trace) == 6


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
    for _ in range(1023):
        meter.tick()
    now[0] = 10.0
    with pytest.raises(search._BudgetOver) as over:
        meter.tick()  # the 1024th state looks at the clock
    assert (over.value.limit, over.value.states) == ("seconds", 1023)
