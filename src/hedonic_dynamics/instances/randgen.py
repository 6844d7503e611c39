"""Seeded random instances for each game family.

``random(kind, n, seed, restrictions)`` returns a bundled instance whose
claims assert exactly the restrictions that were requested, so a caller (or
test) can re-check them with the stock claim machinery.  Generation uses the
library's own deterministic generator: the same arguments always produce the
same game, on any platform.
"""

from __future__ import annotations

from ..core import Partition
from ..games import (
    AnonymousGame,
    Color,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    RatioDomain,
    WeakOrder,
)
from ..prng import SplitMix64
from .catalog import Claim, NamedInstance


class InconsistentRestrictions(ValueError):
    """The requested restrictions contradict each other or the kind."""


GENERATOR_KINDS = ("ahg", "hdg", "fhg", "dhg")

_DEFAULTS = {
    "ahg": {"strict": False, "natural-sp": False},
    "hdg": {"strict": False, "natural-sp": False, "reds": None},
    "fhg": {"family": "general", "low": -9, "high": 9},
    "dhg": {"symmetric": False, "density": 30},
}

_FHG_FAMILIES = ("general", "simple-symmetric", "dag", "symmetric-nonnegative")

#: explicit approval families enumerate every coalition
_DHG_GEN_CAP = 14
#: ratio axes are materialised agent by agent
_HDG_GEN_CAP = 64
#: ahg builds n rank arrays of n sizes and fhg an n x n weight matrix, so
#: memory and time grow with n**2; ahg holds 0.44 / 2.4 / 9.2 MB
#: (tracemalloc) at n = 400 / 1000 / 2000 and takes 0.3 / 2.2 / 10.1 s
#: (2-core Xeon VM, Python 3.11.7), nearly all of that time in the seeded
#: draws
_DENSE_GEN_CAP = 2_000


def _merge(kind: str, restrictions) -> dict:
    """The defaults of ``kind`` overridden by ``restrictions``.

    Each value must have the exact type of its default (so a bool is not
    taken for an int); a ``None`` default stands for an int or ``None``.
    """
    merged = dict(_DEFAULTS[kind])
    for key, value in (restrictions or {}).items():
        if key not in merged:
            raise InconsistentRestrictions(
                f"{kind} knows restrictions {sorted(merged)}; got {key!r}"
            )
        default = merged[key]
        if default is None:
            fits = value is None or type(value) is int
        else:
            fits = type(value) is type(default)
        if not fits:
            want = "int" if default is None else type(default).__name__
            raise InconsistentRestrictions(
                f"{kind} restriction {key!r} must be of type {want}; got {value!r}"
            )
        merged[key] = value
    return merged


def _tied_ranks(rng: SplitMix64, best_first, strict: bool) -> list[int]:
    """Class indices for keys ``0..m-1`` listed best first: each key after
    the first opens a new class, or, when not strict, ties with the one
    before it with probability 3/10."""
    ranks = [0] * len(best_first)
    rank = -1
    for i in best_first:
        if rank < 0 or strict or not rng.chance(3, 10):
            rank += 1
        ranks[i] = rank
    return ranks


def _shuffled_ranks(rng: SplitMix64, m: int, strict: bool) -> list[int]:
    """Class indices of ``m`` keys in a uniformly shuffled order; when not
    strict, neighbours may tie."""
    pool = list(range(m))
    rng.shuffle(pool)
    return _tied_ranks(rng, pool, strict)


def _hill_ranks(rng: SplitMix64, m: int, strict: bool) -> list[int]:
    """Class indices of ``m`` keys along an axis, rising to a random peak
    and falling.

    Built by merging the two slopes from the best key downward; ties (when
    allowed) only glue neighbouring entries of the merged sequence, which
    keeps the hill shape intact.
    """
    peak = rng.below(m)
    left = range(peak, -1, -1)
    right = range(peak + 1, m)
    merged = []
    li = ri = 0
    while li < len(left) or ri < len(right):
        take_left = ri >= len(right) or (li < len(left) and rng.chance(1, 2))
        if take_left:
            merged.append(left[li])
            li += 1
        else:
            merged.append(right[ri])
            ri += 1
    return _tied_ranks(rng, merged, strict)


def _random_ahg(n: int, rng: SplitMix64, opts: dict):
    strict, hill = opts["strict"], opts["natural-sp"]
    make = _hill_ranks if hill else _shuffled_ranks
    # key i of the generator is size i + 1, so its ranks are the size table
    orders = [WeakOrder.over_sizes(make(rng, n, strict)) for _ in range(n)]
    game = AnonymousGame(orders)
    claims = []
    if strict:
        claims.append(Claim("strict"))
    if hill:
        claims.append(Claim("natural-sp"))
    return game, claims


def _random_hdg(n: int, rng: SplitMix64, opts: dict):
    if n > _HDG_GEN_CAP:
        raise InconsistentRestrictions(
            f"hdg generation enumerates the ratio axis; n must be <= {_HDG_GEN_CAP}"
        )
    reds = opts["reds"] if opts["reds"] is not None else n // 2
    if not 0 <= reds <= n:
        raise InconsistentRestrictions(f"reds must be an integer in 0..{n}; got {reds!r}")
    strict, hill = opts["strict"], opts["natural-sp"]
    colors = [Color.RED] * reds + [Color.BLUE] * (n - reds)
    rng.shuffle(colors)
    keys = sorted(RatioDomain(reds, n - reds).enumerate())
    make = _hill_ranks if hill else _shuffled_ranks
    orders = []
    for _ in range(n):
        ranks = make(rng, len(keys), strict)
        classes = [[] for _ in range(max(ranks) + 1)]
        for key, rank in zip(keys, ranks):
            classes[rank].append(key)
        orders.append(WeakOrder(classes))
    game = DiversityGame(colors, orders)
    claims = []
    if strict:
        claims.append(Claim("strict"))
    if hill:
        claims.append(Claim("natural-sp"))
    return game, claims


def _random_fhg(n: int, rng: SplitMix64, opts: dict):
    family = opts["family"]
    if family not in _FHG_FAMILIES:
        raise InconsistentRestrictions(
            f"fhg family must be one of {_FHG_FAMILIES}; got {family!r}"
        )
    low, high = opts["low"], opts["high"]
    if low > high:
        raise InconsistentRestrictions(f"low {low} > high {high}")
    weights = [[0] * n for _ in range(n)]
    claims = []
    if family == "general":
        for i in range(n):
            for j in range(n):
                if i != j:
                    weights[i][j] = rng.randint(low, high)
    elif family == "simple-symmetric":
        for i in range(n):
            for j in range(i + 1, n):
                weights[i][j] = weights[j][i] = 1 if rng.chance(2, 5) else 0
        claims.append(Claim("fhg-traits", params={
            "symmetric": True, "simple": True, "nonnegative": True,
        }))
    elif family == "symmetric-nonnegative":
        top = max(high, 1)
        for i in range(n):
            for j in range(i + 1, n):
                weights[i][j] = weights[j][i] = rng.randint(0, top)
        claims.append(Claim("fhg-traits", params={
            "symmetric": True, "nonnegative": True,
        }))
    else:  # dag: arcs only ever point down a hidden shuffled rank
        rank = list(range(n))
        rng.shuffle(rank)
        for i in range(n):
            for j in range(n):
                if rank[i] > rank[j] and rng.chance(2, 5):
                    weights[i][j] = 1
        claims.append(Claim("fhg-traits", params={
            "simple": True, "simple_asymmetric": True, "nonnegative": True,
            "acyclic": True,
        }))
    return FractionalGame(weights), claims


def _random_dhg(n: int, rng: SplitMix64, opts: dict):
    if n > _DHG_GEN_CAP:
        raise InconsistentRestrictions(
            f"dhg generation enumerates every coalition; n must be <= {_DHG_GEN_CAP}"
        )
    density = opts["density"]
    if not 1 <= density <= 100:
        raise InconsistentRestrictions(
            f"density must be an integer percentage in 1..100; got {density!r}"
        )
    symmetric = opts["symmetric"]
    approvals = [[] for _ in range(n)]
    for bits in range(1, 1 << n):
        members = [i for i in range(n) if bits >> i & 1]
        if symmetric:
            if rng.chance(density, 100):
                for agent in members:
                    approvals[agent].append(members)
        else:
            for agent in members:
                if rng.chance(density, 100):
                    approvals[agent].append(members)
    game = DichotomousGame(n, approvals)
    claims = [Claim("dhg-symmetric")] if symmetric else []
    return game, claims


_BUILDERS = {
    "ahg": _random_ahg,
    "hdg": _random_hdg,
    "fhg": _random_fhg,
    "dhg": _random_dhg,
}


def random(kind: str, n: int, seed: int, restrictions: dict | None = None) -> NamedInstance:
    """Deterministic random instance of the given family; see module docs."""
    if kind not in _BUILDERS:
        raise InconsistentRestrictions(
            f"unknown kind {kind!r}; known kinds: {', '.join(GENERATOR_KINDS)}"
        )
    if n < 1:
        raise InconsistentRestrictions(f"n must be positive; got {n}")
    opts = _merge(kind, restrictions)
    try:
        rng = SplitMix64(seed)
    except ValueError as exc:
        raise InconsistentRestrictions(f"{exc}; got {seed}") from None
    if kind in ("ahg", "fhg") and n > _DENSE_GEN_CAP:
        raise InconsistentRestrictions(
            f"{kind} generation builds n x n preferences; n must be <= {_DENSE_GEN_CAP}"
        )
    game, claims = _BUILDERS[kind](n, rng, opts)
    tags = ";".join(f"{k}={v}" for k, v in sorted(opts.items())
                    if v != _DEFAULTS[kind][k])
    suffix = f";{tags}" if tags else ""
    return NamedInstance(
        f"random-{kind}(n={n},seed={seed}{suffix})",
        game,
        {"singletons": Partition.singletons(n)},
        expected=tuple(claims),
    )
