"""Shared helpers: small random instances built with stdlib RNG only.

These factories are deliberately independent of the package's own random
generator so that cross-checks between the two are meaningful.
"""

import hashlib
import random
from fractions import Fraction

from hedonic_dynamics import games
from hedonic_dynamics.core import NEW_SINGLETON, Partition


def rand_weak_order(rng: random.Random, keys, strict=False) -> games.WeakOrder:
    keys = list(keys)
    rng.shuffle(keys)
    if strict:
        return games.WeakOrder([[k] for k in keys])
    classes = [[keys[0]]]
    for k in keys[1:]:
        if rng.random() < 0.35:
            classes[-1].append(k)
        else:
            classes.append([k])
    return games.WeakOrder(classes)


def rand_sp_order(rng: random.Random, keys, strict=True) -> games.WeakOrder:
    """Single-peaked on the natural axis: random merge of the two slopes."""
    keys = sorted(keys)
    peak_at = rng.randrange(len(keys))
    left = keys[:peak_at][::-1]
    right = keys[peak_at + 1 :]
    order = [keys[peak_at]]
    i = j = 0
    while i < len(left) or j < len(right):
        take_left = j >= len(right) or (i < len(left) and rng.random() < 0.5)
        if take_left:
            order.append(left[i])
            i += 1
        else:
            order.append(right[j])
            j += 1
    if strict:
        return games.WeakOrder([[k] for k in order])
    # merge adjacent entries into ties now and then; contiguous prefixes of a
    # single-peaked strict order stay single-peaked when tied together
    classes = [[order[0]]]
    for k in order[1:]:
        if rng.random() < 0.3:
            classes[-1].append(k)
        else:
            classes.append([k])
    return games.WeakOrder(classes)


def rand_ahg(rng, n, strict=False, sp=False) -> games.AnonymousGame:
    make = rand_sp_order if sp else rand_weak_order
    return games.AnonymousGame([make(rng, range(1, n + 1), strict) for _ in range(n)])


def rand_hdg(rng, reds, blues, strict=False, sp=False) -> games.DiversityGame:
    colors = [games.Color.RED] * reds + [games.Color.BLUE] * blues
    rng.shuffle(colors)
    ratios = games.RatioDomain(reds, blues).enumerate()
    make = rand_sp_order if sp else rand_weak_order
    orders = [make(rng, ratios, strict) for _ in range(reds + blues)]
    return games.DiversityGame(colors, orders)


def rand_fhg(rng, n, lo=-5, hi=5, symmetric=False, simple=False) -> games.FractionalGame:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if symmetric and j < i:
                continue
            w = rng.randint(0, 1) if simple else rng.randint(lo, hi)
            rows[i][j] = w
            if symmetric:
                rows[j][i] = w
    return games.FractionalGame(rows)


def fraction_fhg(rng, n) -> games.FractionalGame:
    """Fractional game whose weights are negative, zero and positive
    ``Fraction``s with small denominators, so that averages tie now and then."""
    weights = rand_fhg(rng, n, -3, 3).weights
    return games.FractionalGame([[Fraction(w, rng.choice((1, 2, 3))) for w in row] for row in weights])


def mixed_fhg(rng, n) -> games.FractionalGame:
    """Fractional game in which about half the rows are all ``int`` and the
    others mix ``int`` weights with non-integral halves, so that a member's
    weight sum toward a block is often an ``int`` on a row that is not."""
    rows = [list(row) for row in rand_fhg(rng, n, -3, 3).weights]
    for agent, row in enumerate(rows):
        if rng.random() < 0.5:
            continue
        others = [x for x in range(n) if x != agent]
        for x in [rng.choice(others)] + [x for x in others if rng.random() < 0.3]:
            row[x] = Fraction(2 * row[x] + 1, 2)
    return games.FractionalGame(rows)


def rand_dag_fhg(rng, n) -> games.FractionalGame:
    """Simple asymmetric acyclic: arcs only from higher to lower id, relabeled."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                rows[perm[j]][perm[i]] = 1
    return games.FractionalGame(rows)


def rand_dhg(rng, n, density=0.3, symmetric=False) -> games.DichotomousGame:
    from itertools import combinations

    all_coalitions = [
        c for size in range(1, n + 1) for c in combinations(range(n), size)
    ]
    if symmetric:
        approved = [c for c in all_coalitions if rng.random() < density]
        families = [[c for c in approved if a in c] for a in range(n)]
    else:
        families = [
            [c for c in all_coalitions if a in c and rng.random() < density]
            for a in range(n)
        ]
    return games.DichotomousGame(n, families)


def rand_walk_prefix(rng, keys):
    """A random interval-walk prefix along the sorted ``keys``."""
    lo = hi = rng.randrange(len(keys))
    listed = [keys[lo]]
    while rng.random() < 0.6 and (lo > 0 or hi < len(keys) - 1):
        if lo > 0 and (hi == len(keys) - 1 or rng.random() < 0.5):
            lo = rng.randrange(lo)
            listed.append(keys[lo])
        else:
            hi = rng.randrange(hi + 1, len(keys))
            listed.append(keys[hi])
    return listed


def rand_lazy_game(rng, trial, n):
    """A size game (even ``trial``) or a two-colour game (odd) whose agents
    share three lazy orders: an axis walk and a computed order with each
    completion."""
    if trial % 2 == 0:
        domain, colors = games.SizeDomain(n), None
    else:
        reds = rng.randint(0, n)
        domain = games.RatioDomain(reds, n - reds)
        colors = [games.Color.RED] * reds + [games.Color.BLUE] * (n - reds)
        rng.shuffle(colors)
    keys = list(domain.enumerate())
    pool = [games.AxisWalkOrder(rand_walk_prefix(rng, keys), domain)]
    for completion in games.Completion:
        listed = rand_weak_order(rng, rng.sample(keys, rng.randint(1, len(keys))))
        pool.append(games.ComputedOrder(listed.classes, domain, completion))
    orders = [rng.choice(pool) for _ in range(n)]
    if colors is None:
        return games.AnonymousGame(orders)
    return games.DiversityGame(colors, orders)


def move_digest(moves) -> str:
    """Short hash of a move list, for golden runs and paths."""
    text = ";".join(
        f"{m.agent}>{'new' if m.target is NEW_SINGLETON else ','.join(map(str, m.target))}"
        for m in moves
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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


def subclass_of(game, reverse: bool):
    """``game`` as an instance of a subclass of its class, which keeps the
    parent's preferences or, with ``reverse``, turns every one around."""
    cls = type(game)
    body = {"__slots__": ()}
    if reverse:
        body["prefers"] = lambda self, agent, a, b: -cls.prefers(self, agent, a, b)
    game.__class__ = type(f"Sub{cls.__name__}", (cls,), body)
    return game


def rand_partition(rng, n) -> Partition:
    blocks = []
    for agent in range(n):
        if blocks and rng.random() < 0.6:
            rng.choice(blocks).append(agent)
        else:
            blocks.append([agent])
    return Partition(blocks)
