import random
from itertools import permutations

import pytest

from hedonic_dynamics import core
from hedonic_dynamics.core import (
    NEW_SINGLETON,
    CoreError,
    DeviationMove,
    InvalidTarget,
    Partition,
    StabilityKind,
    apply,
    canonicalize,
    coalition,
    deviation_failure,
    enumerate_deviations,
    is_stable,
)
from hedonic_dynamics.games import AnonymousGame, FractionalGame, WeakOrder

from conftest import rand_ahg, rand_dhg, rand_fhg, rand_game, rand_partition

NASH, IS, CIS = StabilityKind.NASH, StabilityKind.IS, StabilityKind.CIS


def ahg(*rank_lists):
    return AnonymousGame([WeakOrder([[k] for k in ranks]) for ranks in rank_lists])


def test_coalition_normalization():
    assert coalition([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(CoreError):
        coalition([])
    with pytest.raises(CoreError):
        coalition([1, 1])
    assert coalition([core.MAX_AGENTS - 1, 0]) == (0, core.MAX_AGENTS - 1)
    for bad in ([0, core.MAX_AGENTS], [-1, 0]):
        with pytest.raises(CoreError):
            coalition(bad)


def test_partition_canonical_blocks():
    p = Partition([[2, 1], [0]])
    q = Partition([(0,), (1, 2)])
    assert p == q
    assert hash(p) == hash(q)
    assert p.blocks == ((0,), (1, 2))
    assert p.coalition_of(2) == (1, 2)
    assert p.coalition_of(0) == (0,)
    for agent in (-1, 3):
        with pytest.raises(CoreError, match="out of range"):
            p.coalition_of(agent)


def test_partition_must_cover():
    with pytest.raises(CoreError):
        Partition([[0], [2]])  # gap at 1
    with pytest.raises(CoreError):
        Partition([[0, 1], [1, 2]])  # overlap


def test_all_five_partitions_of_three_have_distinct_encodings():
    # the five partitions of {0,1,2}
    parts = [
        Partition([[0], [1], [2]]),
        Partition([[0, 1], [2]]),
        Partition([[0, 2], [1]]),
        Partition([[0], [1, 2]]),
        Partition([[0, 1, 2]]),
    ]
    encodings = {canonicalize(p) for p in parts}
    assert len(encodings) == 5


def test_canonicalize_equal_iff_equal():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        p, q = rand_partition(rng, n), rand_partition(rng, n)
        assert (canonicalize(p) == canonicalize(q)) == (p == q)


def test_canonicalize_spells_out_every_member():
    # the encoding that files and witness tie-breaks rely on, written out
    # member by member; ids of two and three digits included
    def spelled(p):
        return b"|".join(b",".join(str(a).encode() for a in b) for b in p.blocks)

    assert canonicalize(Partition([])) == spelled(Partition([])) == b""
    rng = random.Random(11)
    for _ in range(300):
        p = rand_partition(rng, rng.choice([1, 5, 12, 40, 150]))
        assert canonicalize(p) == spelled(p)
    # one cached text per block, for a bounded number of blocks
    assert core._block_text.cache_info().maxsize == 1024


def test_apply_moves_agent_and_drops_empty_block():
    p = Partition([[0, 1], [2]])
    q = apply(p, DeviationMove(1, (2,)))
    assert q == Partition([[0], [1, 2]])
    r = apply(q, DeviationMove(0, (1, 2)))
    assert r == Partition([[0, 1, 2]])


def test_apply_new_singleton():
    p = Partition([[0, 1, 2]])
    q = apply(p, DeviationMove(2, NEW_SINGLETON))
    assert q == Partition([[0, 1], [2]])
    # from a singleton the move is a no-op structurally
    assert apply(q, DeviationMove(2, NEW_SINGLETON)) == q


def test_apply_rejects_missing_target():
    p = Partition([[0, 1], [2]])
    with pytest.raises(InvalidTarget):
        apply(p, DeviationMove(0, (1, 2)))
    with pytest.raises(InvalidTarget):
        DeviationMove(0, (0, 1))  # deviator inside target


def test_deviation_kinds_nest_on_example():
    # sizes: agent prefers 2 over 1 over 3; one agent prefers 1 over all
    g = ahg([2, 1, 3], [2, 1, 3], [1, 2, 3])
    p = Partition([[0], [1], [2]])
    join = DeviationMove(0, (1,))
    assert deviation_failure(g, p, join, NASH) is None
    assert deviation_failure(g, p, join, IS) is None
    # agent 2 would not welcome anyone
    bad = DeviationMove(0, (2,))
    assert deviation_failure(g, p, bad, NASH) is None
    reason = deviation_failure(g, p, bad, IS)
    assert "member 2" in reason and "worse off" in reason


def test_cis_requires_remainder_consent():
    # agents 0,1 prefer size 2; agent 2 prefers 3 > 2; 0 leaving {0,1,2}?
    g = ahg([2, 3, 1], [2, 3, 1], [3, 2, 1])
    p = Partition([[0, 1, 2]])
    move = DeviationMove(0, NEW_SINGLETON)
    # 0 improves (1 beats 3 for agent 0? ranks: agent0 likes 2>3>1 — no).
    assert deviation_failure(g, p, move, NASH) is not None
    g2 = ahg([1, 2, 3], [2, 3, 1], [3, 2, 1])
    assert deviation_failure(g2, p, move, NASH) is None
    assert deviation_failure(g2, p, move, IS) is None  # nobody welcomes a singleton
    # agent 2 strictly prefers size 3 to size 2, so the remainder objects
    reason = deviation_failure(g2, p, move, CIS)
    assert "consent" in reason
    # a member left behind who ranks sizes 1 and 2 alike is not worse off
    g3 = AnonymousGame([WeakOrder([[1], [2]]), WeakOrder([[1, 2]])])
    pair = Partition([[0, 1]])
    assert deviation_failure(g3, pair, move, CIS) is None


def test_enumeration_order_is_deterministic():
    g = ahg([2, 1, 3], [2, 1, 3], [2, 1, 3])
    p = Partition.singletons(3)
    moves = enumerate_deviations(g, p, IS)
    assert moves == [
        DeviationMove(0, (1,)),
        DeviationMove(0, (2,)),
        DeviationMove(1, (0,)),
        DeviationMove(1, (2,)),
        DeviationMove(2, (0,)),
        DeviationMove(2, (1,)),
    ]


def test_new_singleton_enumerated_last_per_agent():
    # everyone wants to be alone
    g = ahg([1, 2], [1, 2])
    p = Partition([[0, 1]])
    moves = enumerate_deviations(g, p, IS)
    assert moves == [DeviationMove(0, NEW_SINGLETON), DeviationMove(1, NEW_SINGLETON)]


def test_stability_definitions_agree_with_enumeration():
    rng = random.Random(11)
    for trial in range(150):
        n = rng.randint(2, 6)
        maker = rng.choice(
            [
                lambda: rand_ahg(rng, n),
                lambda: rand_fhg(rng, n),
                lambda: rand_dhg(rng, n),
            ]
        )
        g = maker()
        p = rand_partition(rng, n)
        for kind in (NASH, IS, CIS):
            assert is_stable(g, p, kind) == (not enumerate_deviations(g, p, kind))


def test_kind_nesting_properties():
    rng = random.Random(13)
    for trial in range(150):
        n = rng.randint(2, 6)
        g = rand_fhg(rng, n) if trial % 2 else rand_ahg(rng, n)
        p = rand_partition(rng, n)
        nash = set(map(repr, enumerate_deviations(g, p, NASH)))
        is_ = set(map(repr, enumerate_deviations(g, p, IS)))
        cis = set(map(repr, enumerate_deviations(g, p, CIS)))
        assert cis <= is_ <= nash
        if is_stable(g, p, NASH):
            assert is_stable(g, p, IS)
        if is_stable(g, p, IS):
            assert is_stable(g, p, CIS)


def test_iter_deviations_lists_every_candidate_deviation_failure_accepts():
    # the enumeration and the validating predicate share only the verdict
    # rule, so compare them candidate by candidate, in enumeration order
    rng = random.Random(29)
    for trial in range(120):
        n = rng.randint(2, 6)
        g = rand_game(rng, trial, n)
        for p in (rand_partition(rng, n), Partition.grand(n), Partition.singletons(n)):
            candidates = [
                move
                for agent in range(n)
                for move in [
                    *(DeviationMove(agent, b) for b in p.blocks if agent not in b),
                    DeviationMove(agent, NEW_SINGLETON),
                ]
            ]
            for kind in (NASH, IS, CIS):
                expected = [
                    m for m in candidates if deviation_failure(g, p, m, kind) is None
                ]
                assert enumerate_deviations(g, p, kind) == expected, (trial, p, kind)


def test_deviation_failure_reasons_are_worded_exactly():
    g = ahg([2, 1, 3], [2, 1, 3], [1, 2, 3])
    p = Partition([[0], [1], [2]])
    assert deviation_failure(g, p, DeviationMove(2, (0,)), NASH) == (
        "agent 2 does not strictly improve by moving to {0, 2} (current {2})"
    )
    assert deviation_failure(g, p, DeviationMove(0, (2,)), IS) == (
        "member 2 of the welcoming coalition {2} is strictly worse off "
        "after agent 0 joins"
    )
    g2 = ahg([1, 2, 3], [2, 3, 1], [3, 2, 1])
    grand = Partition.grand(3)
    assert deviation_failure(g2, grand, DeviationMove(0, NEW_SINGLETON), CIS) == (
        "member 2 of the abandoned coalition {0, 1, 2} does not consent to "
        "agent 0 leaving"
    )
    assert deviation_failure(g2, grand, DeviationMove(1, NEW_SINGLETON), NASH) == (
        "agent 1 does not strictly improve by moving to {1} (current {0, 1, 2})"
    )


def test_compare_total_and_transitive():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = rand_ahg(rng, n)
        agent = rng.randrange(n)
        others = [a for a in range(n) if a != agent]
        pool = [
            coalition([agent] + list(extra))
            for size in range(0, len(others) + 1)
            for extra in permutations(others, size)
        ]
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            ab = g.prefers(agent, a, b)
            bc = g.prefers(agent, b, c)
            ac = g.prefers(agent, a, c)
            assert ab == -g.prefers(agent, b, a)
            if ab > 0 and bc >= 0:
                assert ac > 0
            if ab == 0 and bc == 0:
                assert ac == 0


def test_relabeling_invariance():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = rand_fhg(rng, n)
        p = rand_partition(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        g2 = FractionalGame(
            [
                [g.weights[i][j] for j in sorted(range(n), key=lambda x: perm[x])]
                for i in sorted(range(n), key=lambda x: perm[x])
            ]
        )
        p2 = Partition([[perm[a] for a in b] for b in p.blocks])
        for move in enumerate_deviations(g, p, IS):
            target2 = (
                NEW_SINGLETON
                if not move.target
                else tuple(perm[a] for a in move.target)
            )
            move2 = DeviationMove(perm[move.agent], target2)
            assert deviation_failure(g2, p2, move2, IS) is None


def test_singleton_to_new_singleton_never_improves():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 5)
        g = rand_ahg(rng, n)
        p = Partition.singletons(n)
        for a in range(n):
            assert deviation_failure(g, p, DeviationMove(a, NEW_SINGLETON), NASH) is not None


