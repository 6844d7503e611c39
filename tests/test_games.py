import random
from fractions import Fraction

import pytest

from hedonic_dynamics import games
from hedonic_dynamics.games import (
    NATURAL,
    AcyclicQueriedOnNonSimpleAsymmetric,
    AnonymousGame,
    AxisDomainMismatch,
    AxisWalkOrder,
    Color,
    Completion,
    ComputedOrder,
    DichotomousGame,
    DiversityGame,
    ExplicitAxis,
    FractionalGame,
    GameDefinitionError,
    RatioDomain,
    SizeDomain,
    WeakOrder,
    ahg_rank,
    classify_fhg,
    complete_strict_on_axis,
    complete_weak_interval_closure,
    dhg_is_symmetric,
    fhg_utility,
    hdg_ratio,
    is_homogeneous,
    materialize,
    single_peaked_brute,
    single_peaked_check,
)

from conftest import rand_sp_order, rand_weak_order

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
            assert co.level_of(a) == mat.level_of(a)


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


def test_ahg_rank_and_domain_validation():
    g = AnonymousGame([WeakOrder([[2], [1], [3]])] * 3)
    assert ahg_rank(g, 0, 2) == 0
    assert ahg_rank(g, 0, 3) == 2
    with pytest.raises(GameDefinitionError):
        ahg_rank(g, 0, 4)
    with pytest.raises(GameDefinitionError):
        AnonymousGame([WeakOrder([[1], [2]])] * 3)  # missing size 3


def test_hdg_ratio_lowest_terms():
    colors = [R, R, B, B, B, B]
    assert hdg_ratio((0, 1, 2, 3), colors) == Fraction(1, 2)
    assert hdg_ratio((0, 2, 3), colors) == Fraction(1, 3)
    assert hdg_ratio((2, 3), colors) == 0
    assert hdg_ratio((0, 1), colors) == 1


def test_is_homogeneous():
    colors = [R, B, B]
    assert is_homogeneous((1, 2), colors)
    assert is_homogeneous((0,), colors)
    assert not is_homogeneous((0, 1), colors)


def test_fhg_utility_exact():
    g = FractionalGame([[0, 3, -1], [2, 0, 0], [1, 1, 0]])
    assert fhg_utility(g, 0, (0,)) == 0
    assert fhg_utility(g, 0, (0, 1, 2)) == Fraction(2, 3)
    assert fhg_utility(g, 2, (0, 2)) == Fraction(1, 2)
    with pytest.raises(GameDefinitionError):
        fhg_utility(g, 0, (1, 2))


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
        assert fhg_utility(g, i, pair) == fhg_utility(g, j, pair)


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
    assert single_peaked_check(WeakOrder([[2], [1], [3]])) == games.SPResult(True, 2)
    assert single_peaked_check(WeakOrder([[1], [3], [2]])).ok is False
    # weak order peak: largest key of the top class
    res = single_peaked_check(WeakOrder([[2, 3], [1], [4]]))
    assert res.ok and res.peak == 3


def test_single_peaked_explicit_axis():
    o = WeakOrder([[1], [2], [3]])
    assert single_peaked_check(o, ExplicitAxis([2, 1, 3])).ok
    assert single_peaked_check(o, ExplicitAxis([2, 1, 3])).peak is None
    with pytest.raises(AxisDomainMismatch):
        single_peaked_check(o, ExplicitAxis([1, 2]))


def test_single_peaked_interval_vs_triples():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(2, 7)
        o = rand_weak_order(rng, range(1, n + 1))
        assert single_peaked_check(o).ok == single_peaked_brute(o)
        axis_keys = list(range(1, n + 1))
        rng.shuffle(axis_keys)
        axis = ExplicitAxis(axis_keys)
        assert single_peaked_check(o, axis).ok == single_peaked_brute(o, axis)


def test_sp_generator_produces_sp_orders():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 9)
        strict = rng.random() < 0.5
        o = rand_sp_order(rng, range(1, n + 1), strict=strict)
        assert single_peaked_check(o).ok
        assert single_peaked_brute(o)
        if strict:
            assert o.is_strict


def test_complete_strict_on_axis():
    o = complete_strict_on_axis([5], list(range(1, 8)))
    assert [c[0] for c in o.classes] == [5, 6, 7, 4, 3, 2, 1]
    o2 = complete_strict_on_axis([3, 4, 2, 5], list(range(1, 7)))
    assert [c[0] for c in o2.classes] == [3, 4, 2, 5, 6, 1]
    assert single_peaked_check(o2).ok
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
        assert single_peaked_check(o).ok
        # listed prefix preserved verbatim at the top? no — preserved as ranks
        ranks = [o.level_of(k) for k in listed]
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
    assert single_peaked_check(o).ok


def test_complete_weak_interval_closure_preserves_listed_and_is_sp():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(2, 9)
        keys = list(range(1, n + 1))
        listed = rand_sp_order(rng, rng.sample(keys, rng.randint(1, n)), strict=False)
        if not single_peaked_check(listed).ok:
            continue
        full = complete_weak_interval_closure(listed.classes, keys)
        assert single_peaked_check(full).ok
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
        assert single_peaked_check(walk).ok
        assert walk.listed_classes[0][0] == peak


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
