"""The four supported game classes and their structural checkers.

All preference queries go through exact arithmetic: coalition sizes are
ints, mixed-color ratios are ``fractions.Fraction`` (always in lowest
terms), weighted averages are compared by cross-multiplication.  No
floats anywhere.

Preference orders come in two flavors:

- :class:`WeakOrder` — fully materialized ranked indifference classes.
- :class:`ComputedOrder` — a listed top segment plus a completion rule for
  the rest of the domain, evaluated lazily.  This is what makes the big
  generated instances (tens of thousands of agents, millions of feasible
  ratios) workable: the domain is a descriptor with a membership test, not
  a materialized list.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .core import Coalition, coalition


class GameDefinitionError(ValueError):
    """A game or order was constructed from inconsistent data."""


class AxisDomainMismatch(GameDefinitionError):
    """A single-peakedness query supplied an axis over the wrong key set."""


class AcyclicQueriedOnNonSimpleAsymmetric(GameDefinitionError):
    """Acyclicity is only defined for simple asymmetric weight digraphs."""


def _sign(delta) -> int:
    if delta > 0:
        return 1
    if delta < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# preference orders
# ---------------------------------------------------------------------------


class WeakOrder:
    """Total preorder over a finite key set, as ranked indifference classes.

    ``classes[0]`` is the most-preferred class.  Keys may be ints (sizes) or
    Fractions (ratios); within a class they are stored sorted so equal orders
    are structurally identical.
    """

    __slots__ = ("classes", "_level")

    def __init__(self, classes: Iterable[Iterable]):
        normalized = []
        level = {}
        for rank, cls in enumerate(classes):
            keys = tuple(sorted(cls))
            if not keys:
                raise GameDefinitionError("empty indifference class")
            for k in keys:
                if k in level:
                    raise GameDefinitionError(f"key {k} appears in two classes")
                level[k] = rank
            normalized.append(keys)
        if not level:
            raise GameDefinitionError("order must rank at least one key")
        self.classes = tuple(normalized)
        self._level = level

    @property
    def domain(self) -> frozenset:
        return frozenset(self._level)

    def __contains__(self, key) -> bool:
        return key in self._level

    def level_of(self, key) -> int:
        try:
            return self._level[key]
        except KeyError:
            raise GameDefinitionError(f"key {key!r} outside order domain") from None

    def compare(self, a, b) -> int:
        """Sign of preference: positive iff ``a`` is strictly preferred."""
        return _sign(self.level_of(b) - self.level_of(a))

    @property
    def is_strict(self) -> bool:
        return all(len(c) == 1 for c in self.classes)

    def __eq__(self, other):
        return isinstance(other, WeakOrder) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        body = " > ".join(
            "~".join(map(str, c)) if len(c) > 1 else str(c[0]) for c in self.classes
        )
        return f"WeakOrder({body})"


@dataclass(frozen=True)
class SizeDomain:
    """Key domain for size-based preferences: the integers ``1..n``."""

    n: int

    def __contains__(self, key) -> bool:
        return isinstance(key, int) and 1 <= key <= self.n

    def enumerate(self):
        return range(1, self.n + 1)

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class RatioDomain:
    """Feasible red-fractions with ``reds`` red and ``blues`` blue agents.

    A lowest-terms fraction p/q is feasible iff a coalition with p reds and
    q-p blues fits inside the population, i.e. ``p <= reds``,
    ``q - p <= blues`` and ``q <= reds + blues`` (taking one copy is always
    the least demanding witness).  Membership is O(1); enumeration is only
    used for small instances.
    """

    reds: int
    blues: int

    @property
    def n(self) -> int:
        return self.reds + self.blues

    def __contains__(self, key) -> bool:
        try:
            f = Fraction(key)
        except (TypeError, ValueError):
            return False
        if not 0 <= f <= 1:
            return False
        p, q = f.numerator, f.denominator
        return p <= self.reds and q - p <= self.blues and q <= self.n

    def enumerate(self) -> tuple[Fraction, ...]:
        seen = set()
        for q in range(1, self.n + 1):
            for p in range(max(0, q - self.blues), min(q, self.reds) + 1):
                seen.add(Fraction(p, q))
        return tuple(sorted(seen))


class Completion(enum.Enum):
    """How a :class:`ComputedOrder` ranks keys outside its listed segment."""

    #: all unlisted keys tie in one class below everything listed
    BOTTOM = "bottom"
    #: unlisted keys are ranked strictly below the listed segment,
    #: smaller key preferred
    ASCENDING = "ascending"


class ComputedOrder:
    """Order given by listed top classes plus a completion rule, lazily.

    Equality treats two computed orders as equal when they list the same
    classes over the same domain with the same rule.
    """

    __slots__ = ("listed_classes", "_level", "completion", "domain")

    def __init__(self, listed_classes: Iterable[Iterable], domain, completion: Completion):
        materialized = WeakOrder(listed_classes)
        for key in materialized._level:
            if key not in domain:
                raise GameDefinitionError(f"listed key {key!r} outside domain {domain!r}")
        self.listed_classes = materialized.classes
        self._level = materialized._level
        self.completion = completion
        self.domain = domain

    def __contains__(self, key) -> bool:
        return key in self.domain

    def compare(self, a, b) -> int:
        la = self._level.get(a)
        lb = self._level.get(b)
        if la is not None and lb is not None:
            return _sign(lb - la)
        if la is not None:
            return 1
        if lb is not None:
            return -1
        if self.completion is Completion.BOTTOM:
            return 0
        return _sign(b - a)

    def level_of(self, key) -> int:
        """Absolute rank; for unlisted keys this needs a countable domain."""
        lv = self._level.get(key)
        if lv is not None:
            return lv
        if key not in self.domain:
            raise GameDefinitionError(f"key {key!r} outside order domain")
        base = len(self.listed_classes)
        if self.completion is Completion.BOTTOM:
            return base
        if not isinstance(self.domain, SizeDomain):
            raise GameDefinitionError(
                "absolute ranks of unlisted keys supported on size domains only"
            )
        listed_sorted = sorted(self._level)
        below = key - 1 - bisect_left(listed_sorted, key)
        return base + below

    @property
    def is_strict(self) -> bool:
        if any(len(c) > 1 for c in self.listed_classes):
            return False
        if self.completion is Completion.ASCENDING:
            return True
        try:
            unlisted = len(self.domain) - len(self._level)
        except TypeError:
            return False
        return unlisted <= 1

    def __eq__(self, other):
        return (
            isinstance(other, ComputedOrder)
            and self.listed_classes == other.listed_classes
            and self.completion is other.completion
            and self.domain == other.domain
        )

    def __hash__(self):
        return hash((self.listed_classes, self.completion, self.domain))

    def __repr__(self):
        return (
            f"ComputedOrder({len(self.listed_classes)} listed classes, "
            f"{self.completion.value} tail over {self.domain!r})"
        )


class AxisWalkOrder:
    """Strict order over a numeric domain, fixed by an interval-walk prefix.

    The listed keys are ranked first, and each one must extend the numeric
    interval spanned by its predecessors to one side; the keys skipped over
    by that extension slot in between, read towards the new entry.  Keys
    right of the whole span come next (ascending), then keys left of it
    (descending).  This ranks the full domain exactly the way
    :func:`complete_strict_on_axis` would on the sorted key list, but
    comparisons cost O(len(listed)) and the domain is never enumerated,
    which keeps huge ratio domains workable.
    """

    __slots__ = ("listed", "domain", "_lo", "_hi", "_went_left")

    def __init__(self, listed: Sequence, domain):
        listed = tuple(listed)
        if not listed:
            raise GameDefinitionError("need at least a top entry")
        lo_bounds = []
        hi_bounds = []
        went_left = []
        lo = hi = None
        for key in listed:
            if key not in domain:
                raise GameDefinitionError(f"listed key {key!r} outside domain {domain!r}")
            if lo is None:
                lo = hi = key
                went_left.append(False)
            elif key > hi:
                hi = key
                went_left.append(False)
            elif key < lo:
                lo = key
                went_left.append(True)
            else:
                raise GameDefinitionError(
                    f"listed key {key!r} lies inside the already-ranked interval"
                )
            lo_bounds.append(lo)
            hi_bounds.append(hi)
        self.listed = listed
        self.domain = domain
        self._lo = tuple(lo_bounds)
        self._hi = tuple(hi_bounds)
        self._went_left = tuple(went_left)

    @property
    def listed_classes(self) -> tuple:
        return tuple((k,) for k in self.listed)

    def __contains__(self, key) -> bool:
        return key in self.domain

    def _rank(self, key):
        for step, (lo, hi, left) in enumerate(zip(self._lo, self._hi, self._went_left)):
            if lo <= key <= hi:
                return (step, -key if left else key)
        if key > self._hi[-1]:
            return (len(self.listed), key)
        return (len(self.listed) + 1, -key)

    def compare(self, a, b) -> int:
        ra = self._rank(a)
        rb = self._rank(b)
        return _sign(rb[0] - ra[0]) or _sign(rb[1] - ra[1])

    def level_of(self, key) -> int:
        raise GameDefinitionError(
            "absolute ranks are not defined for walk orders; materialize first"
        )

    @property
    def is_strict(self) -> bool:
        return True

    def __eq__(self, other):
        return (
            isinstance(other, AxisWalkOrder)
            and self.listed == other.listed
            and self.domain == other.domain
        )

    def __hash__(self):
        return hash((self.listed, self.domain))

    def __repr__(self):
        head = " > ".join(map(str, self.listed[:4]))
        return f"AxisWalkOrder({head}{' > ...' if len(self.listed) > 4 else ''} over {self.domain!r})"


def materialize(order, keys: Iterable) -> WeakOrder:
    """Expand an order over an explicit key list into a plain WeakOrder."""
    if isinstance(order, WeakOrder):
        return order
    keys = list(keys)
    if isinstance(order, AxisWalkOrder):
        return complete_strict_on_axis(order.listed, sorted(keys))
    listed = [list(c) for c in order.listed_classes]
    unlisted = sorted(k for k in keys if k not in order._level)
    if not unlisted:
        return WeakOrder(listed)
    if order.completion is Completion.BOTTOM:
        return WeakOrder(listed + [unlisted])
    return WeakOrder(listed + [[k] for k in unlisted])


# ---------------------------------------------------------------------------
# order completion helpers (used by instance builders)
# ---------------------------------------------------------------------------


def complete_strict_on_axis(listed: Sequence, axis: Sequence) -> WeakOrder:
    """Extend a strict listed prefix to a full strict order along ``axis``.

    Starting from the top entry, the already-ranked keys always form an axis
    interval; each further listed entry extends that interval to one side,
    emitting the skipped-over keys on the way.  Once the prefix is exhausted
    the remaining right side is appended, then the remaining left side.
    The result is single-peaked on ``axis`` by construction.
    """
    axis = list(axis)
    pos = {k: i for i, k in enumerate(axis)}
    if len(pos) != len(axis):
        raise GameDefinitionError("axis contains duplicates")
    listed = list(listed)
    if not listed:
        raise GameDefinitionError("need at least a top entry")
    for k in listed:
        if k not in pos:
            raise GameDefinitionError(f"listed key {k!r} not on axis")
    emitted = [listed[0]]
    lo = hi = pos[listed[0]]
    for key in listed[1:]:
        p = pos[key]
        if p > hi:
            emitted.extend(axis[hi + 1 : p + 1])
            hi = p
        elif p < lo:
            emitted.extend(reversed(axis[p:lo]))
            lo = p
        else:
            raise GameDefinitionError(
                f"listed key {key!r} lies inside the already-ranked interval"
            )
    emitted.extend(axis[hi + 1 :])
    emitted.extend(reversed(axis[:lo]))
    return WeakOrder([[k] for k in emitted])


def complete_weak_interval_closure(
    listed_classes: Sequence[Sequence], domain_keys: Iterable
) -> WeakOrder:
    """Fill a weak listed order out to ``domain_keys`` by interval closure.

    A missing key joins the first listed class whose cumulative numeric hull
    already covers it; keys outside every hull form one bottom class.  The
    result is single-peaked on the natural axis by construction, and listed
    comparisons are preserved verbatim.
    """
    listed = [list(c) for c in listed_classes]
    ranked = {k for c in listed for k in c}
    out = [list(c) for c in listed]
    hulls = []
    lo = hi = None
    for c in listed:
        lo = min(c) if lo is None else min(lo, min(c))
        hi = max(c) if hi is None else max(hi, max(c))
        hulls.append((lo, hi))
    bottom = []
    for key in sorted(domain_keys):
        if key in ranked:
            continue
        for rank, (lo, hi) in enumerate(hulls):
            if lo <= key <= hi:
                out[rank].append(key)
                break
        else:
            bottom.append(key)
    if bottom:
        out.append(bottom)
    return WeakOrder(out)


# ---------------------------------------------------------------------------
# game classes
# ---------------------------------------------------------------------------


class Color(enum.Enum):
    RED = "r"
    BLUE = "b"


def _check_order_domain(order, expected) -> None:
    if isinstance(order, (ComputedOrder, AxisWalkOrder)):
        if order.domain != expected:
            raise GameDefinitionError(
                f"order domain {order.domain!r} does not match game domain {expected!r}"
            )
        return
    want = set(expected.enumerate())
    have = set(order.domain)
    if have != want:
        missing = sorted(want - have)[:4]
        extra = sorted(have - want)[:4]
        raise GameDefinitionError(
            f"order domain mismatch (missing {missing}, extra {extra})"
        )


class AnonymousGame:
    """Hedonic game where agents only care about their coalition's size."""

    kind = "ahg"
    __slots__ = ("n", "orders")

    def __init__(self, orders: Sequence):
        self.orders = tuple(orders)
        self.n = len(self.orders)
        if self.n == 0:
            raise GameDefinitionError("need at least one agent")
        expected = SizeDomain(self.n)
        checked = set()
        for order in self.orders:
            if id(order) in checked:
                continue
            checked.add(id(order))
            _check_order_domain(order, expected)

    def prefers(self, agent: int, a: Coalition, b: Coalition) -> int:
        return self.orders[agent].compare(len(a), len(b))


def ahg_rank(game: AnonymousGame, agent: int, size: int) -> int:
    """0-based rank of ``size`` in the agent's order (0 = most preferred)."""
    return game.orders[agent].level_of(size)


class DiversityGame:
    """Two-color hedonic game; agents care about their coalition's red fraction."""

    kind = "hdg"
    __slots__ = ("n", "colors", "orders", "reds", "blues", "ratio_domain",
                 "_ratio_memo")

    def __init__(self, colors: Sequence[Color], orders: Sequence):
        self.colors = tuple(colors)
        self.orders = tuple(orders)
        self.n = len(self.colors)
        if self.n != len(self.orders):
            raise GameDefinitionError("colors and orders must have equal length")
        if self.n == 0:
            raise GameDefinitionError("need at least one agent")
        self.reds = sum(1 for c in self.colors if c is Color.RED)
        self.blues = self.n - self.reds
        self.ratio_domain = RatioDomain(self.reds, self.blues)
        self._ratio_memo = {}
        checked = set()
        for order in self.orders:
            if id(order) in checked:
                continue
            checked.add(id(order))
            _check_order_domain(order, self.ratio_domain)

    def ratio_of(self, coalition_: Coalition) -> Fraction:
        # welcome checks ask about the same coalition object once per member;
        # counting a huge block's reds each time would make that quadratic.
        # The memo pins its keys, so an id cannot be recycled while cached.
        key = id(coalition_)
        hit = self._ratio_memo.get(key)
        if hit is not None and hit[0] is coalition_:
            return hit[1]
        value = hdg_ratio(coalition_, self.colors)
        if len(self._ratio_memo) >= 16:
            self._ratio_memo.clear()
        self._ratio_memo[key] = (coalition_, value)
        return value

    def prefers(self, agent: int, a: Coalition, b: Coalition) -> int:
        return self.orders[agent].compare(self.ratio_of(a), self.ratio_of(b))


def hdg_ratio(coalition_: Iterable[int], colors: Sequence[Color]) -> Fraction:
    """Fraction of red members, in lowest terms."""
    members = coalition(coalition_)
    reds = sum(1 for a in members if colors[a] is Color.RED)
    return Fraction(reds, len(members))


def is_homogeneous(coalition_: Iterable[int], colors: Sequence[Color]) -> bool:
    """True iff all members share one color."""
    members = coalition(coalition_)
    first = colors[members[0]]
    return all(colors[a] is first for a in members)


class FractionalGame:
    """Agents value a coalition by the average weight toward its members."""

    kind = "fhg"
    __slots__ = ("n", "weights")

    def __init__(self, weights):
        rows = [tuple(row) for row in weights]
        self.n = len(rows)
        if self.n == 0:
            raise GameDefinitionError("need at least one agent")
        for i, row in enumerate(rows):
            if len(row) != self.n:
                raise GameDefinitionError("weight matrix must be square")
            if row[i] != 0:
                raise GameDefinitionError(f"self-weight of agent {i} must be 0")
        self.weights = tuple(rows)

    @staticmethod
    def from_arcs(n: int, arcs: dict) -> "FractionalGame":
        """Build from a sparse ``{(i, j): weight}`` mapping (missing arcs are 0)."""
        rows = [[0] * n for _ in range(n)]
        for (i, j), w in arcs.items():
            if i == j:
                raise GameDefinitionError("no self-arcs")
            rows[i][j] = w
        return FractionalGame(rows)

    def weight(self, i: int, j: int):
        return self.weights[i][j]

    def member_sum(self, agent: int, coalition_: Iterable[int]):
        row = self.weights[agent]
        return sum(row[j] for j in coalition_)

    def prefers(self, agent: int, a: Coalition, b: Coalition) -> int:
        sa = self.member_sum(agent, a)
        sb = self.member_sum(agent, b)
        return _sign(sa * len(b) - sb * len(a))


def fhg_utility(game: FractionalGame, agent: int, coalition_: Iterable[int]) -> Fraction:
    """Exact average weight of the agent toward her coalition (0 for singletons)."""
    members = coalition(coalition_)
    if agent not in members:
        raise GameDefinitionError(f"agent {agent} not in {members}")
    return Fraction(game.member_sum(agent, members), len(members))


class FhgTraits:
    """Structural flags of a fractional game's weight digraph."""

    __slots__ = ("symmetric", "simple", "simple_asymmetric", "nonnegative", "_acyclic")

    def __init__(self, symmetric, simple, simple_asymmetric, nonnegative, acyclic):
        self.symmetric = symmetric
        self.simple = simple
        self.simple_asymmetric = simple_asymmetric
        self.nonnegative = nonnegative
        self._acyclic = acyclic

    @property
    def acyclic(self) -> bool:
        if self._acyclic is None:
            raise AcyclicQueriedOnNonSimpleAsymmetric(
                "acyclicity is only defined for simple asymmetric games"
            )
        return self._acyclic

    def __repr__(self):
        parts = [
            f"symmetric={self.symmetric}",
            f"simple={self.simple}",
            f"simple_asymmetric={self.simple_asymmetric}",
            f"nonnegative={self.nonnegative}",
            f"acyclic={self._acyclic}",
        ]
        return "FhgTraits(" + ", ".join(parts) + ")"


def _digraph_has_cycle(n: int, adjacency: Sequence[Sequence[int]]) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    for root in range(n):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adjacency[root]))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def classify_fhg(game: FractionalGame) -> FhgTraits:
    """Compute the structural flags; acyclicity only when simple asymmetric."""
    n = game.n
    w = game.weights
    symmetric = all(w[i][j] == w[j][i] for i in range(n) for j in range(i + 1, n))
    simple = all(w[i][j] in (0, 1) for i in range(n) for j in range(n) if i != j)
    asym = simple and all(
        not (w[i][j] == 1 and w[j][i] == 1) for i in range(n) for j in range(i + 1, n)
    )
    nonnegative = all(w[i][j] >= 0 for i in range(n) for j in range(n))
    acyclic = None
    if asym:
        adjacency = [[j for j in range(n) if w[i][j] == 1] for i in range(n)]
        acyclic = not _digraph_has_cycle(n, adjacency)
    return FhgTraits(symmetric, simple, asym, nonnegative, acyclic)


class DichotomousGame:
    """Each agent approves an explicit family of coalitions containing her."""

    kind = "dhg"
    __slots__ = ("n", "approvals")

    def __init__(self, n: int, approvals: Sequence[Iterable[Iterable[int]]]):
        if len(approvals) != n:
            raise GameDefinitionError("need one approval family per agent")
        normalized = []
        for agent, family in enumerate(approvals):
            sets = frozenset(coalition(s) for s in family)
            for s in sets:
                if agent not in s:
                    raise GameDefinitionError(
                        f"agent {agent} approves {set(s)} without being a member"
                    )
                if s[-1] >= n:
                    raise GameDefinitionError(f"approved coalition {set(s)} out of range")
            normalized.append(sets)
        self.n = n
        self.approvals = tuple(normalized)

    def approves(self, agent: int, coalition_: Coalition) -> bool:
        return coalition_ in self.approvals[agent]

    def prefers(self, agent: int, a: Coalition, b: Coalition) -> int:
        return int(a in self.approvals[agent]) - int(b in self.approvals[agent])


def dhg_is_symmetric(game: DichotomousGame) -> bool:
    """True iff every approved coalition is approved by all of its members."""
    for family in game.approvals:
        for s in family:
            if any(s not in game.approvals[member] for member in s):
                return False
    return True


# ---------------------------------------------------------------------------
# single-peakedness
# ---------------------------------------------------------------------------


class NaturalAxis:
    """Axis given by the numeric order of the keys themselves."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NaturalAxis"


NATURAL = NaturalAxis()


@dataclass(frozen=True)
class ExplicitAxis:
    keys: tuple

    def __init__(self, keys: Iterable):
        object.__setattr__(self, "keys", tuple(keys))


@dataclass(frozen=True)
class SPResult:
    ok: bool
    peak: object | None


def _axis_keys(order_domain: frozenset, axis) -> list:
    if axis is NATURAL or isinstance(axis, NaturalAxis):
        return sorted(order_domain)
    keys = list(axis.keys)
    if set(keys) != set(order_domain) or len(keys) != len(order_domain):
        raise AxisDomainMismatch(
            f"axis keys {keys[:6]}... do not match order domain of size {len(order_domain)}"
        )
    return keys


def single_peaked_check(order, axis=NATURAL) -> SPResult:
    """Check the order against an axis; report the peak when it is defined.

    An order is single-peaked on an axis iff for every axis-ordered triple
    x, y, z (read in either direction) preferring x to y forces y to be
    weakly preferred to z.  Equivalently — and this is what we test, in
    linear time — every union of top indifference classes occupies a
    contiguous stretch of the axis.

    The peak is reported for the natural axis only: the unique maximum for
    strict orders, the largest most-preferred key for weak ones.  For an
    explicit axis (or a failed check) the peak is ``None``.
    """
    if not isinstance(order, WeakOrder):
        order = materialize(order, order.domain.enumerate())
    keys = _axis_keys(order.domain, axis)
    pos = {k: i for i, k in enumerate(keys)}
    lo = hi = None
    count = 0
    ok = True
    for cls in order.classes:
        for k in cls:
            p = pos[k]
            lo = p if lo is None else min(lo, p)
            hi = p if hi is None else max(hi, p)
            count += 1
        if hi - lo + 1 != count:
            ok = False
            break
    peak = None
    if ok and (axis is NATURAL or isinstance(axis, NaturalAxis)):
        peak = max(order.classes[0])
    return SPResult(ok, peak)


def single_peaked_brute(order, axis=NATURAL) -> bool:
    """O(d^3) reference check straight from the triple definition."""
    if not isinstance(order, WeakOrder):
        order = materialize(order, order.domain.enumerate())
    keys = _axis_keys(order.domain, axis)
    d = len(keys)
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                for x, y, z in ((keys[i], keys[j], keys[k]), (keys[k], keys[j], keys[i])):
                    if order.compare(x, y) > 0 and order.compare(y, z) < 0:
                        return False
    return True


def naturally_single_peaked(game) -> bool:
    """Convenience: every agent's order is single-peaked on the natural axis."""
    checked = set()
    for order in game.orders:
        if id(order) in checked:
            continue
        checked.add(id(order))
        if not single_peaked_check(order, NATURAL).ok:
            return False
    return True


def is_strict_game(game) -> bool:
    """Convenience: every agent's order is strict."""
    return all(order.is_strict for order in game.orders)
