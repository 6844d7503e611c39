import random
from fractions import Fraction

import pytest

from hedonic_dynamics import games, instances
from hedonic_dynamics.games import (
    AcyclicQueriedOnNonSimpleAsymmetric,
    AnonymousGame,
    AxisDomainMismatch,
    AxisWalkOrder,
    Color,
    Completion,
    ComputedOrder,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    GameDefinitionError,
    RatioDomain,
    SizeDomain,
    WeakOrder,
    classify_fhg,
    complete_strict_on_axis,
    complete_weak_interval_closure,
    dhg_is_symmetric,
    hdg_ratio,
    materialize,
    single_peaked_brute,
    single_peaked_check,
)

from conftest import rand_sp_order, rand_walk_prefix, rand_weak_order

R, B = Color.RED, Color.BLUE


def test_weak_order_basics():
    o = WeakOrder([[2], [1, 3]])
    assert o.compare(2, 1) > 0
    assert o.compare(1, 3) == 0
    assert o.compare(3, 2) < 0
    assert not o.is_strict
    assert WeakOrder([[2], [1], [3]]).is_strict
    with pytest.raises(GameDefinitionError):
        o.compare(2, 4)
    with pytest.raises(GameDefinitionError):
        WeakOrder([[1], [1]])
    with pytest.raises(GameDefinitionError):
        WeakOrder([[1], []])


def test_weak_order_equality_reads_the_rank_table():
    a = WeakOrder([[3, 1], [2], [5, 4]])
    b = WeakOrder([(1, 3), {2}, [4, 5]])
    assert a == b and hash(a) == hash(b)
    assert a.classes == b.classes == ((1, 3), (2,), (4, 5))
    assert a != WeakOrder([[1], [3], [2], [4, 5]])
    assert a != WeakOrder([[1, 3], [2], [4]])


def test_classes_round_trip_random_orders():
    """``classes`` lists the order back: ranked, each class sorted, every key
    once; rebuilding from it (members shuffled) gives an equal order."""
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.randint(1, 12)
        if trial % 2:
            keys = list(RatioDomain(rng.randint(0, n), n).enumerate())
        else:
            keys = list(range(1, n + 1))
        o = rand_weak_order(rng, keys, strict=rng.random() < 0.3)
        classes = o.classes
        assert all(list(c) == sorted(c) for c in classes)
        assert sorted(k for c in classes for k in c) == sorted(keys)
        for rank, cls in enumerate(classes):
            assert all(o.rank(k) == rank for k in cls)
        assert o.is_strict == all(len(c) == 1 for c in classes)
        shuffled = [rng.sample(c, len(c)) for c in classes]
        again = WeakOrder(shuffled)
        assert again == o and hash(again) == hash(o)
        assert again.classes == classes


def _same_answer(ask):
    """What ``ask()`` returns, or the type of the error it raises."""
    try:
        return ask()
    except GameDefinitionError as exc:
        return type(exc)


def test_size_tables_answer_like_dict_tables():
    """Keys ``1..m`` are stored as one array indexed by size; the same order
    over ``Fraction`` keys keeps a dict.  Both answer every query alike,
    out-of-domain ints (never wrapping round) and ``True`` included."""
    rng = random.Random(413)
    for trial in range(150):
        m = rng.randint(1, 300 if trial % 10 == 0 else 12)
        dense = rand_weak_order(rng, range(1, m + 1), strict=rng.random() < 0.3)
        table = dense._sizes
        assert table is not None and len(table) == m + 1
        loose = WeakOrder([[Fraction(k) for k in c] for c in dense.classes])
        assert loose._sizes is None
        assert dense == loose and loose == dense and hash(dense) == hash(loose)
        assert dense.classes == loose.classes and dense.domain == loose.domain
        assert dense.is_strict == loose.is_strict
        # the dict form's hash: keys class by class, each class ascending
        assert hash(dense) == hash(tuple(k for c in dense.classes for k in c))
        probes = [0, -1, m + 1, m + 2, True, False, 1, m, Fraction(m),
                  float(m), Fraction(1, 2), 2.5, "1", None, *range(1, m + 1)]
        for key in probes:
            assert (key in dense) == (key in loose), key
            assert _same_answer(lambda: dense.rank(key)) == \
                _same_answer(lambda: loose.rank(key)), key
        for key in (0, -1, m + 1):
            assert key not in dense
            with pytest.raises(GameDefinitionError):
                dense.rank(key)
        assert dense.rank(True) == dense.rank(1)
        other = WeakOrder.over_sizes([dense.rank(k) for k in range(1, m + 1)])
        assert other == dense and hash(other) == hash(dense)
        assert other._sizes is not None


def test_size_table_storage_depends_only_on_the_key_set():
    assert WeakOrder([[2], [3, 1]])._sizes is not None
    assert WeakOrder([[2], [3]])._sizes is None  # 1 missing: a dict
    assert WeakOrder([[True], [2]])._sizes is None  # a bool is no size
    grown = materialize(ComputedOrder([[3]], SizeDomain(4), Completion.BOTTOM),
                        range(1, 5))
    assert grown._sizes is not None
    assert grown == WeakOrder([[3], [1, 2, 4]])
    assert complete_strict_on_axis([2, 1], [1, 2, 3])._sizes is not None
    # classes must number 0..c-1 with none empty, indices must be ints
    for bad in ([], [1], [0, 2], [0, Fraction(1)], [0, "1"], [-1, 0]):
        with pytest.raises(GameDefinitionError):
            WeakOrder.over_sizes(bad)


def test_computed_order_reads_a_size_table_prefix():
    dom = SizeDomain(7)
    for completion in Completion:
        dense = ComputedOrder([[2], [3, 1]], dom, completion)
        loose = ComputedOrder([[5], [3, 7]], dom, completion)
        assert dense.prefix._sizes is not None and loose.prefix._sizes is None
        assert [dense.rank(k)[0] for k in range(1, 8)] == [1, 0, 1, 2, 2, 2, 2]
        assert [loose.rank(k)[0] for k in range(1, 8)] == [2, 2, 1, 2, 0, 2, 1]
        assert dense == ComputedOrder([[2], [1, 3]], dom, completion)
        assert hash(dense) == hash(ComputedOrder([[2], [1, 3]], dom, completion))
        assert not dense.is_strict
        assert materialize(dense, range(1, 8)).classes[:2] == ((2,), (1, 3))


def test_computed_order_equality_goes_through_its_prefix():
    dom = SizeDomain(6)
    a = ComputedOrder([[4, 2], [3]], dom, Completion.BOTTOM)
    b = ComputedOrder([[2, 4], [3]], dom, Completion.BOTTOM)
    assert a.prefix == WeakOrder([[2, 4], [3]])
    assert a == b and hash(a) == hash(b)
    assert a != ComputedOrder([[2, 4], [3]], dom, Completion.ASCENDING)
    assert a != ComputedOrder([[2, 4], [3]], SizeDomain(7), Completion.BOTTOM)
    assert a != ComputedOrder([[2], [4], [3]], dom, Completion.BOTTOM)
    # unlisted keys rank one class below the listed ones
    assert a.rank(2) == (0, 0) and a.rank(3) == (1, 0) and a.rank(6) == (2, 0)
    asc = ComputedOrder([[4, 2], [3]], dom, Completion.ASCENDING)
    assert asc.rank(1) == (2, 1) and asc.rank(6) == (2, 6)


def test_size_domain():
    d = SizeDomain(4)
    assert 1 in d and 4 in d
    assert 0 not in d and 5 not in d and Fraction(1, 2) not in d
    assert list(d.enumerate()) == [1, 2, 3, 4]


def test_ratio_domain_membership_matches_enumeration():
    for reds in range(0, 6):
        for blues in range(0, 6):
            if reds + blues == 0:
                continue
            dom = RatioDomain(reds, blues)
            listed = set(dom.enumerate())
            # every realizable ratio is in the declared domain and vice versa
            realizable = set()
            n = reds + blues
            for q in range(1, n + 1):
                for p in range(0, q + 1):
                    if p <= reds and q - p <= blues:
                        realizable.add(Fraction(p, q))
            assert listed == realizable
            for q in range(1, n + 2):
                for p in range(0, q + 1):
                    f = Fraction(p, q)
                    assert (f in dom) == (f in realizable)


def test_ratio_domain_enumerates_ascending():
    for reds, blues in ((0, 3), (3, 0), (1, 1), (4, 6), (12, 14), (66, 162)):
        dom = RatioDomain(reds, blues)
        assert dom.enumerate() == tuple(sorted(dom)), (reds, blues)


def test_ratio_domains_admit_only_rational_keys():
    dom = RatioDomain(2, 2)
    assert Fraction(1, 2) in dom and 1 in dom and True in dom and False in dom
    for key in ("1/2", "1", 0.5, 1.0, None, (1, 2)):
        assert key not in dom, key
    assert Fraction(3, 2) not in dom and -1 not in dom
    assert 2 not in RatioDomain(3, 0)  # 2/1 would pass the red and blue counts
    with pytest.raises(GameDefinitionError):
        ComputedOrder([["1/2"]], dom, Completion.BOTTOM)
    with pytest.raises(GameDefinitionError):
        AxisWalkOrder(["1/2", "1"], dom)


def test_degenerate_single_color_populations_allowed():
    dom = RatioDomain(0, 3)
    assert dom.enumerate() == (Fraction(0),)
    g = DiversityGame([B, B, B], [WeakOrder([[Fraction(0)]])] * 3)
    assert g.ratio_of((0, 1)) == 0


def test_computed_order_agrees_with_materialized():
    rng = random.Random(5)
    for _ in range(120):
        n = rng.randint(2, 9)
        dom = SizeDomain(n)
        keys = list(dom.enumerate())
        rng.shuffle(keys)
        listed_count = rng.randint(1, n)
        listed_keys = keys[:listed_count]
        classes = [[listed_keys[0]]]
        for k in listed_keys[1:]:
            if rng.random() < 0.3:
                classes[-1].append(k)
            else:
                classes.append([k])
        completion = rng.choice([Completion.BOTTOM, Completion.ASCENDING])
        co = ComputedOrder(classes, dom, completion)
        mat = materialize(co, dom.enumerate())
        for a in dom.enumerate():
            for b in dom.enumerate():
                assert co.compare(a, b) == mat.compare(a, b), (classes, completion, a, b)


def test_computed_order_on_ratio_domain():
    dom = RatioDomain(3, 4)
    co = ComputedOrder(
        [[Fraction(1, 2)], [Fraction(1, 3), Fraction(2, 3)]], dom, Completion.BOTTOM
    )
    assert co.compare(Fraction(1, 2), Fraction(2, 3)) > 0
    assert co.compare(Fraction(1, 3), Fraction(2, 3)) == 0
    assert co.compare(Fraction(1, 4), Fraction(3, 4)) == 0  # both unlisted
    assert co.compare(Fraction(2, 3), Fraction(1, 4)) > 0
    with pytest.raises(GameDefinitionError):
        ComputedOrder([[Fraction(7, 2)]], dom, Completion.BOTTOM)


def test_computed_order_strictness_matches_materialized():
    # ratio domains have no length: strictness of a tied tail counts keys
    rng = random.Random(4242)
    for _ in range(200):
        reds = rng.randint(0, 4)
        dom = RatioDomain(reds, rng.randint(reds == 0, 4))
        keys = dom.enumerate()
        size = rng.choice([len(keys), len(keys) - 1, rng.randint(1, len(keys))])
        listed = rand_weak_order(rng, rng.sample(keys, max(size, 1)), rng.random() < 0.7)
        for completion in Completion:
            order = ComputedOrder(listed.classes, dom, completion)
            assert order.is_strict == materialize(order, keys).is_strict
    keys = RatioDomain(1, 1).enumerate()
    for listed in (keys, keys[:2]):
        order = ComputedOrder([[k] for k in listed], RatioDomain(1, 1), Completion.BOTTOM)
        assert order.is_strict
        assert games.is_strict_game(DiversityGame([R, B], [order, order]))


def test_ahg_rank_and_domain_validation():
    g = AnonymousGame([WeakOrder([[2], [1], [3]])] * 3)
    assert g.orders[0].rank(2) == 0
    assert g.orders[0].rank(3) == 2
    with pytest.raises(GameDefinitionError):
        g.orders[0].rank(4)
    with pytest.raises(GameDefinitionError):
        AnonymousGame([WeakOrder([[1], [2]])] * 3)  # missing size 3


def test_hdg_ratio_lowest_terms():
    colors = [R, R, B, B, B, B]
    assert hdg_ratio((0, 1, 2, 3), colors) == Fraction(1, 2)
    assert hdg_ratio((0, 2, 3), colors) == Fraction(1, 3)
    assert hdg_ratio((2, 3), colors) == 0
    assert hdg_ratio((0, 1), colors) == 1


def test_fhg_utility_exact():
    # an agent's utility is its weight sum toward its coalition over the size
    g = FractionalGame([[0, 3, -1], [2, 0, 0], [1, 1, 0]])
    assert g.member_sum(0, (0,)) == 0
    assert g.member_sum(0, (0, 1, 2)) == 2
    assert g.member_sum(2, (0, 2)) == 1


def test_fhg_prefers_cross_multiplies_exactly():
    # averages over different coalition sizes must compare exactly
    g = FractionalGame(
        [
            [0, 1, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ]
    )
    a = (0, 1, 2)  # sum 1 size 3
    b = (0, 1, 2, 3, 4, 6)  # sum 3 size 6 -> 1/2... recompute: 1 + 2 = 3
    assert g.prefers(0, b, a) > 0
    c = (0, 1, 3, 4, 5, 6)  # sum 1+2=3 size 6 -> 1/2
    assert g.prefers(0, b, c) == 0


def test_classify_directed_triangle():
    g = FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    t = classify_fhg(g)
    assert t.simple and t.simple_asymmetric and not t.symmetric
    assert t.acyclic is False


def test_classify_mutual_ones():
    g = FractionalGame([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    t = classify_fhg(g)
    assert t.simple and t.symmetric and t.nonnegative
    assert not t.simple_asymmetric
    with pytest.raises(AcyclicQueriedOnNonSimpleAsymmetric):
        t.acyclic


def test_classify_dag():
    g = FractionalGame.from_arcs(4, {(1, 0): 1, (2, 0): 1, (3, 1): 1, (3, 2): 1})
    assert classify_fhg(g).acyclic is True


def test_classify_negative_symmetric():
    g = FractionalGame([[0, -5], [-5, 0]])
    t = classify_fhg(g)
    assert t.symmetric and not t.nonnegative and not t.simple


def test_symmetric_means_swap_invariant():
    rng = random.Random(31)
    from conftest import rand_fhg

    for _ in range(30):
        n = rng.randint(2, 6)
        g = rand_fhg(rng, n, symmetric=True)
        i, j = rng.sample(range(n), 2)
        pair = tuple(sorted((i, j)))
        assert g.member_sum(i, pair) == g.member_sum(j, pair)


def test_dhg_symmetry():
    g0 = DichotomousGame(3, [[], [], []])
    assert dhg_is_symmetric(g0)
    grand = (0, 1, 2)
    g1 = DichotomousGame(3, [[grand], [grand], [grand]])
    assert dhg_is_symmetric(g1)
    g2 = DichotomousGame(3, [[(0, 1)], [], []])
    assert not dhg_is_symmetric(g2)
    with pytest.raises(GameDefinitionError):
        DichotomousGame(2, [[(1,)], []])  # approving a set without membership


def test_single_peaked_natural_examples():
    assert single_peaked_check(WeakOrder([[2], [1], [3]])) is True
    assert single_peaked_check(WeakOrder([[1], [3], [2]])) is False
    # a weak order: the top class {2, 3} is an interval, and so is {1, 2, 3}
    assert single_peaked_check(WeakOrder([[2, 3], [1], [4]])) is True
    assert single_peaked_check(WeakOrder([[1, 3], [2]])) is False


def test_single_peaked_explicit_axis():
    o = WeakOrder([[1], [2], [3]])
    assert single_peaked_check(o, [2, 1, 3]) is True
    assert single_peaked_check(o, (1, 3, 2)) is False
    bad_axes = (
        [1, 2],  # a key missing
        [1, 2, 2, 3],  # a key repeated
        5,  # not iterable
        [[1], [2], [3]],  # unhashable keys
    )
    for axis in bad_axes:
        with pytest.raises(AxisDomainMismatch):
            single_peaked_check(o, axis)
        with pytest.raises(AxisDomainMismatch):
            single_peaked_brute(o, axis)


def test_single_peaked_interval_vs_triples():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 7)
        o = rand_weak_order(rng, range(1, n + 1))
        assert single_peaked_check(o) == single_peaked_brute(o)
        axis = list(range(1, n + 1))
        rng.shuffle(axis)
        assert single_peaked_check(o, axis) == single_peaked_brute(o, axis)
    # the lazy orders, over size and ratio domains, read without materializing
    orders = []
    for _ in range(150):
        reds = rng.randint(0, 3)
        blues = rng.randint(reds == 0, 3)
        domain = rng.choice([SizeDomain(rng.randint(1, 8)), RatioDomain(reds, blues)])
        keys = list(domain.enumerate())
        orders.append(AxisWalkOrder(rand_walk_prefix(rng, keys), domain))
        rng.shuffle(keys)
        listed = rand_weak_order(rng, keys[: rng.randint(1, len(keys))]).classes
        orders.append(ComputedOrder(listed, domain, rng.choice(list(Completion))))
    verdicts = set()
    for o in orders:
        keys = sorted(o.domain.enumerate())
        ok = single_peaked_check(o)
        assert ok == single_peaked_brute(o), o
        assert ok == single_peaked_check(materialize(o, keys)), o
        verdicts.add((type(o), "natural", ok))
        rng.shuffle(keys)
        ok = single_peaked_check(o, keys)
        assert ok == single_peaked_brute(o, keys), (o, keys)
        verdicts.add((type(o), "shuffled", ok))
    # walks are single-peaked on the natural axis by construction; every
    # other pairing of order and axis gives both verdicts
    assert len(verdicts) == 7 and (AxisWalkOrder, "natural", False) not in verdicts


def test_sp_generator_produces_sp_orders():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 9)
        strict = rng.random() < 0.5
        o = rand_sp_order(rng, range(1, n + 1), strict=strict)
        assert single_peaked_check(o)
        assert single_peaked_brute(o)
        if strict:
            assert o.is_strict


def test_complete_strict_on_axis():
    o = complete_strict_on_axis([5], list(range(1, 8)))
    assert [c[0] for c in o.classes] == [5, 6, 7, 4, 3, 2, 1]
    o2 = complete_strict_on_axis([3, 4, 2, 5], list(range(1, 7)))
    assert [c[0] for c in o2.classes] == [3, 4, 2, 5, 6, 1]
    assert single_peaked_check(o2)
    with pytest.raises(GameDefinitionError):
        complete_strict_on_axis([3, 4, 3], list(range(1, 6)))


def test_complete_strict_on_axis_always_single_peaked():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(1, 9)
        axis = list(range(1, n + 1))
        peak = rng.choice(axis)
        listed = [peak]
        lo = hi = peak
        while rng.random() < 0.6 and (lo > 1 or hi < n):
            if lo > 1 and (hi == n or rng.random() < 0.5):
                lo = rng.randint(1, lo - 1)
                listed.append(lo)
            else:
                hi = rng.randint(hi + 1, n)
                listed.append(hi)
        o = complete_strict_on_axis(listed, axis)
        assert single_peaked_check(o)
        # listed prefix preserved verbatim at the top? no — preserved as ranks
        ranks = [o.rank(k) for k in listed]
        assert ranks == sorted(ranks)


def test_complete_weak_interval_closure():
    o = complete_weak_interval_closure(
        [[Fraction(1, 2)], [Fraction(1, 4)]],
        [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)],
    )
    # 1/3 falls inside the hull once 1/4 is ranked; 3/4 and 1 fall outside all hulls
    assert o.classes == (
        (Fraction(1, 2),),
        (Fraction(1, 4), Fraction(1, 3)),
        (Fraction(3, 4), Fraction(1)),
    )
    assert single_peaked_check(o)


def test_complete_weak_interval_closure_preserves_listed_and_is_sp():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(2, 9)
        keys = list(range(1, n + 1))
        listed = rand_sp_order(rng, rng.sample(keys, rng.randint(1, n)), strict=False)
        if not single_peaked_check(listed):
            continue
        full = complete_weak_interval_closure(listed.classes, keys)
        assert single_peaked_check(full)
        for a in listed.domain:
            for b in listed.domain:
                assert full.compare(a, b) == listed.compare(a, b)


def test_axis_walk_order_matches_materialized_completion():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 10)
        dom = SizeDomain(n)
        keys = list(dom.enumerate())
        peak = rng.choice(keys)
        listed = [peak]
        lo = hi = peak
        while rng.random() < 0.6 and (lo > 1 or hi < n):
            if lo > 1 and (hi == n or rng.random() < 0.5):
                lo = rng.randint(1, lo - 1)
                listed.append(lo)
            else:
                hi = rng.randint(hi + 1, n)
                listed.append(hi)
        walk = AxisWalkOrder(listed, dom)
        full = complete_strict_on_axis(listed, keys)
        assert materialize(walk, keys) == full
        for a in keys:
            for b in keys:
                assert walk.compare(a, b) == full.compare(a, b)
        assert walk.is_strict
        assert single_peaked_check(walk)
        assert walk.listed[0] == peak


def test_axis_walk_order_on_ratio_domain():
    dom = RatioDomain(2, 3)
    walk = AxisWalkOrder(
        [Fraction(1, 3), Fraction(1, 2), Fraction(1, 4), Fraction(0)], dom
    )
    full = complete_strict_on_axis(walk.listed, sorted(dom.enumerate()))
    got = materialize(walk, dom.enumerate())
    assert got == full
    # spot checks without materializing: the listed prefix is obeyed verbatim
    assert walk.compare(Fraction(1, 3), Fraction(1, 2)) > 0
    assert walk.compare(Fraction(1, 4), Fraction(0)) > 0
    # keys beyond the listed span: right tail ascending beats left tail
    assert walk.compare(Fraction(2, 3), Fraction(1)) > 0
    assert Fraction(7, 9) not in dom
    assert Fraction(2, 5) in walk
    # random walks: ranks sort the domain exactly as the materialized order
    rng = random.Random(59)
    for _ in range(150):
        reds = rng.randint(0, 6)
        dom = RatioDomain(reds, rng.randint(reds == 0, 6))
        keys = list(dom.enumerate())
        walk = AxisWalkOrder(rand_walk_prefix(rng, keys), dom)
        full = materialize(walk, keys)
        assert sorted(keys, key=walk.rank) == [k for (k,) in full.classes], walk


def test_axis_walk_order_rejects_bad_prefixes():
    dom = SizeDomain(9)
    with pytest.raises(GameDefinitionError):
        AxisWalkOrder([], dom)
    with pytest.raises(GameDefinitionError):
        AxisWalkOrder([4, 7, 5], dom)  # 5 inside [4, 7]
    with pytest.raises(GameDefinitionError):
        AxisWalkOrder([4, 12], dom)
    with pytest.raises(GameDefinitionError):
        AnonymousGame([AxisWalkOrder([3], SizeDomain(5))] * 4)


def _small_orders(rng):
    """Orders of every kind over small size and ratio domains, with their
    sorted keys: weak orders over sizes and ratios, computed orders with
    each completion and walks, each over both domain kinds."""
    for _ in range(40):
        reds = rng.randint(0, 4)
        for domain in (SizeDomain(rng.randint(1, 8)), RatioDomain(reds, rng.randint(reds == 0, 4))):
            keys = list(domain.enumerate())
            yield rand_weak_order(rng, keys), keys
            yield AxisWalkOrder(rand_walk_prefix(rng, keys), domain), keys
            listed = rng.sample(keys, rng.randint(1, len(keys)))
            for completion in Completion:
                yield ComputedOrder(rand_weak_order(rng, listed).classes, domain, completion), keys


def test_ranks_agree_with_compare():
    rng = random.Random(67)
    seen = set()
    for order, keys in _small_orders(rng):
        shuffled = rng.sample(keys, len(keys))
        for axis in (keys, shuffled):
            ranks = order.ranks(axis)
            assert all(type(r) is int for r in ranks), order
            for a, ra in zip(axis, ranks):
                for b, rb in zip(axis, ranks):
                    assert (ra < rb) - (ra > rb) == order.compare(a, b), (order, a, b)
        seen.add((type(order), getattr(order, "completion", None), type(keys[-1])))
    assert len(seen) == 8  # each kind and completion over sizes and ratios
    # a list with repeats, and a key outside the domain
    walk = AxisWalkOrder([3, 5, 1], SizeDomain(6))
    assert walk.ranks([5, 2, 5]) == [2, 3, 2]
    with pytest.raises(GameDefinitionError):
        walk.ranks([7])
    with pytest.raises(GameDefinitionError):
        WeakOrder([[2], [1]]).ranks([3])


def test_natural_sp_compares_no_keys(monkeypatch):
    game = instances.build("hdg-assembled").game
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method.__qualname__)
            return method(*args)
        return wrapper

    monkeypatch.setattr(AxisWalkOrder, "rank", counted(AxisWalkOrder.rank))
    for kind in (WeakOrder, ComputedOrder, AxisWalkOrder):
        monkeypatch.setattr(kind, "compare", counted(kind.compare))
    assert games.naturally_single_peaked(game)
    assert calls == []
