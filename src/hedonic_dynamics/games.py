"""The four supported game classes and their structural checkers.

All preference queries go through exact arithmetic: coalition sizes are
ints, mixed-color ratios are ``fractions.Fraction`` (always in lowest
terms), weighted averages are compared by cross-multiplication.  No
floats anywhere.

Preference orders come in three flavors:

- :class:`WeakOrder` — a rank table over an explicit key set: each key maps
  to the index of its indifference class.  When the keys are exactly the
  sizes ``1..m`` the table is one integer array indexed by size (slot 0
  unused), otherwise a dict; the key set alone decides, and two private
  readers (a key's rank, the (key, rank) pairs) make both forms answer
  alike.  The classes themselves are derived from the table on request
  (for files and reprs), never stored.
- :class:`ComputedOrder` — a listed top segment, itself a ``WeakOrder``,
  plus a completion rule for the rest of the domain, evaluated lazily.
  This is what makes the big generated instances (tens of thousands of
  agents, millions of feasible ratios) workable: the domain is a
  descriptor with a membership test, not a materialized list.
- :class:`AxisWalkOrder` — a strict order fixed by a walk along the numeric
  axis, also evaluated lazily.

Each order ranks a key by one method, ``rank(key)``: a sort key where lower
means preferred.  Pairwise comparisons, the ascent-credit monitor and the
move engine's size and ratio rule sets all read it.  The move engine keys a
two-color block by its integer ``(reds, size)`` pair and ranks each pair
once per order; orders still take the ``Fraction`` at that boundary.  The
single-peakedness check (a bool per order and axis) reads a second method,
``ranks(keys)``, which ranks a whole key list in one pass as plain ints, so
it compares no tuple and no ``Fraction``.
"""

from __future__ import annotations

import enum
import heapq
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import islice
from math import gcd
from operator import itemgetter
from typing import Iterable, Sequence

from .core import Coalition, coalition


class GameDefinitionError(ValueError):
    """A game or order was constructed from inconsistent data."""


class AxisDomainMismatch(GameDefinitionError):
    """A single-peakedness query supplied an axis over the wrong key set."""


class AcyclicQueriedOnNonSimpleAsymmetric(GameDefinitionError):
    """Acyclicity is only defined for simple asymmetric weight digraphs."""


# ---------------------------------------------------------------------------
# preference orders
# ---------------------------------------------------------------------------


def _compare(order, a, b) -> int:
    """Sign of preference: positive iff ``a`` is strictly preferred."""
    ra, rb = order.rank(a), order.rank(b)
    return (ra < rb) - (ra > rb)


#: array typecodes for rank tables, narrowest first, with the bound each holds
_RANK_CODES = tuple((1 << 8 * array(code).itemsize, code) for code in "BHIL")


class WeakOrder:
    """Total preorder over a finite key set, stored as a rank table.

    The one stored form is the table from each key to the index of its
    indifference class; class 0 is the most preferred.  Keys may be ints
    (sizes) or Fractions (ratios).  When the keys are exactly the ints
    ``1..m`` the table is one integer array indexed by size (slot 0 unused,
    the narrowest type the ranks fit), otherwise a dict; which one depends
    only on the key set.  Queries read the table through two private
    readers, ``_rank_of`` (a key's rank) and ``_items`` (the (key, rank)
    pairs), so both forms answer alike; only the size fast path of
    ``rank``, ``domain``, the class count and the comparison of two size
    arrays read the table directly, for speed.  ``classes`` is derived from
    the table, each class sorted, so two orders are equal iff they rank
    every key the same, however their classes were listed.
    """

    #: ``_sizes`` is the array of a size table and ``_level`` the dict of
    #: any other; the one not in use is ``None``
    __slots__ = ("_level", "_sizes")

    def __init__(self, classes: Iterable[Iterable]):
        level = {}
        for rank, cls in enumerate(classes):
            before = len(level)
            for k in sorted(cls):
                if k in level:
                    raise GameDefinitionError(f"key {k} appears in two classes")
                level[k] = rank
            if len(level) == before:
                raise GameDefinitionError("empty indifference class")
        if not level:
            raise GameDefinitionError("order must rank at least one key")
        m = len(level)
        if all(type(k) is int and 0 < k <= m for k in level):
            self._set_sizes([level[k] for k in range(1, m + 1)])
        else:
            self._level, self._sizes = level, None

    @classmethod
    def over_sizes(cls, ranks_by_size: Sequence[int]) -> "WeakOrder":
        """The order over the sizes ``1..len(ranks_by_size)`` that puts size
        ``k`` in class ``ranks_by_size[k - 1]``; the class indices used must
        be exactly ``0..c-1``.  This builds the size table without a dict."""
        if not ranks_by_size:
            raise GameDefinitionError("order must rank at least one key")
        order = cls.__new__(cls)
        try:
            used = set(ranks_by_size)
            if min(used) != 0 or max(used) != len(used) - 1:
                raise GameDefinitionError("empty indifference class")
            order._set_sizes(ranks_by_size)
        except TypeError:
            raise GameDefinitionError("class indices must be integers") from None
        return order

    def _set_sizes(self, ranks_by_size) -> None:
        top = max(ranks_by_size)
        sizes = array(next(c for bound, c in _RANK_CODES if top < bound), (0,))
        sizes.extend(ranks_by_size)
        self._level, self._sizes = None, sizes

    def _rank_of(self, key):
        """The rank of ``key``, or ``None`` outside the domain.  In a size
        table a key equal to a size ``1..m`` (``True``, ``Fraction(2)``)
        counts as that size, as it would in a dict; any other key (``0``,
        ``m + 1``, ``"2"``) is outside and never wraps around."""
        sizes = self._sizes
        if sizes is None:
            return self._level.get(key)
        if type(key) is not int:
            try:
                whole = int(key)
            except (TypeError, ValueError, OverflowError):
                return None
            if whole != key:
                return None
            key = whole
        return sizes[key] if 0 < key < len(sizes) else None

    def _items(self):
        """The ``(key, rank)`` pairs class by class, each class ascending."""
        sizes = self._sizes
        if sizes is None:
            return self._level.items()
        return sorted(islice(enumerate(sizes), 1, None), key=itemgetter(1))

    def _class_count(self) -> int:
        sizes = self._sizes
        return 1 + max(self._level.values() if sizes is None else sizes)

    @property
    def classes(self) -> tuple:
        """The indifference classes in rank order, each sorted ascending."""
        grouped = [[] for _ in range(self._class_count())]
        for key, rank in self._items():
            grouped[rank].append(key)
        return tuple(map(tuple, grouped))

    @property
    def domain(self) -> frozenset:
        sizes = self._sizes
        return frozenset(self._level if sizes is None else range(1, len(sizes)))

    def __contains__(self, key) -> bool:
        return self._rank_of(key) is not None

    def rank(self, key) -> int:
        """Index of the key's class: lower means preferred."""
        sizes = self._sizes
        if sizes is not None:
            # the direct read for a size 1..m; any other key (a Fraction,
            # m + 1) falls through to the reader, which answers as a dict
            try:
                if key > 0:
                    return sizes[key]
            except (TypeError, IndexError):
                pass
        rank = self._rank_of(key)
        if rank is None:
            raise GameDefinitionError(f"key {key!r} outside order domain")
        return rank

    def ranks(self, keys) -> list:
        """The class index of each key."""
        return list(map(self.rank, keys))

    compare = _compare

    @property
    def is_strict(self) -> bool:
        sizes = self._sizes
        size = len(self._level) if sizes is None else len(sizes) - 1
        return self._class_count() == size

    def __eq__(self, other):
        if not isinstance(other, WeakOrder):
            return False
        if self._sizes is not None and other._sizes is not None:
            return self._sizes == other._sizes
        return dict(self._items()) == dict(other._items())

    def __hash__(self):
        # keys go in class by class, each class ascending, so equal orders
        # list their keys in the same order
        return hash(tuple(key for key, _ in self._items()))

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

    def __iter__(self):
        return iter(self.enumerate())

    def __len__(self):
        return self.n


@dataclass(frozen=True)
class RatioDomain:
    """Feasible red-fractions with ``reds`` red and ``blues`` blue agents.

    A lowest-terms fraction p/q is feasible iff a coalition with p reds and
    q-p blues fits inside the population, i.e. ``p <= reds``,
    ``q - p <= blues`` and ``q <= reds + blues`` (taking one copy is always
    the least demanding witness).  Keys are rational: an ``int`` (``bool``
    included, as in a :class:`WeakOrder`) or a ``Fraction``; a string that
    would parse as one is not a key.  Membership is O(1); the ascending
    enumeration walks the Farey sequence of order ``n``, O(n^2).
    """

    reds: int
    blues: int

    @property
    def n(self) -> int:
        return self.reds + self.blues

    def __contains__(self, key) -> bool:
        if not isinstance(key, (int, Fraction)):
            return False
        p, q = key.numerator, key.denominator
        return 0 <= p <= self.reds and 0 <= q - p <= self.blues

    def __iter__(self):
        """The feasible ratios lazily, each once (in lowest terms), by
        growing denominator: a reducible p/q is met at its lowest terms."""
        for q in range(1, self.n + 1):
            for p in range(max(0, q - self.blues), min(q, self.reds) + 1):
                if gcd(p, q) == 1:
                    yield Fraction(p, q)

    @lru_cache(maxsize=8)
    def enumerate(self) -> tuple[Fraction, ...]:
        """The feasible ratios, ascending; built once per domain.

        The Farey sequence of order ``n`` lists every p/q in [0, 1] with
        q <= n ascending, in lowest terms, and the next term follows from
        the last two in integers; the feasible ones are those that pass the
        membership bounds, so no ``Fraction`` is compared."""
        n, reds, blues = self.n, self.reds, self.blues
        keys = []
        a, b, c, d = 0, 1, 1, n
        while True:
            if a <= reds and b - a <= blues:
                keys.append(Fraction(a, b))
            if c > n:
                return tuple(keys)
            k = (n + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b


class Completion(enum.Enum):
    """How a :class:`ComputedOrder` ranks keys outside its listed segment."""

    #: all unlisted keys tie in one class below everything listed
    BOTTOM = "bottom"
    #: unlisted keys are ranked strictly below the listed segment,
    #: smaller key preferred
    ASCENDING = "ascending"


class ComputedOrder:
    """Order given by listed top classes plus a completion rule, lazily.

    The listed classes are one :class:`WeakOrder`, ``prefix``.  Two computed
    orders are equal when their prefixes are equal over the same domain
    with the same rule.
    """

    __slots__ = ("prefix", "completion", "domain", "_tail")

    def __init__(self, listed_classes: Iterable[Iterable], domain, completion: Completion):
        prefix = WeakOrder(listed_classes)
        for key, _ in prefix._items():
            if key not in domain:
                raise GameDefinitionError(f"listed key {key!r} outside domain {domain!r}")
        self.prefix = prefix
        self.completion = completion
        self.domain = domain
        #: the class index every unlisted key shares: one past the listed
        self._tail = prefix._class_count()

    def __contains__(self, key) -> bool:
        return key in self.domain

    def rank(self, key) -> tuple:
        """``(class index, 0)`` for a listed key.  Unlisted keys rank below
        every listed class: all tied (bottom) or smaller key first
        (ascending)."""
        level = self.prefix._rank_of(key)
        if level is not None:
            return (level, 0)
        tie = 0 if self.completion is Completion.BOTTOM else key
        return (self._tail, tie)

    def ranks(self, keys) -> list:
        """The class index of each listed key.  Unlisted keys take ``_tail``
        (bottom), or ``_tail`` plus their place among the sorted unlisted
        keys (ascending)."""
        levels = list(map(self.prefix._rank_of, keys))
        tail = self._tail
        if self.completion is Completion.BOTTOM:
            return [tail if level is None else level for level in levels]
        unlisted = sorted(k for k, level in zip(keys, levels) if level is None)
        place = {k: tail + i for i, k in enumerate(unlisted)}
        return [place[k] if level is None else level for k, level in zip(keys, levels)]

    compare = _compare

    @property
    def is_strict(self) -> bool:
        if not self.prefix.is_strict:
            return False
        if self.completion is Completion.ASCENDING:
            return True
        # the tied tail is strict iff it holds at most one key; count the
        # domain no further than that, as it may be huge
        room = len(self.prefix.domain) + 1
        return sum(1 for _ in islice(self.domain, room + 1)) <= room

    def __eq__(self, other):
        return (
            isinstance(other, ComputedOrder)
            and self.prefix == other.prefix
            and self.completion is other.completion
            and self.domain == other.domain
        )

    def __hash__(self):
        return hash((self.prefix, self.completion, self.domain))

    def __repr__(self):
        return (
            f"ComputedOrder({self._tail} listed classes, "
            f"{self.completion.value} tail over {self.domain!r})"
        )


class AxisWalkOrder:
    """Strict order over a numeric domain, fixed by an interval-walk prefix.

    The listed keys are ranked first, and each one must extend the numeric
    interval spanned by its predecessors to one side; the keys skipped over
    by that extension slot in between, read towards the new entry.  Keys
    right of the whole span come next (ascending), then keys left of it
    (descending).  This ranks the full domain exactly the way
    :func:`complete_strict_on_axis` would on the sorted key list: ``ranks``
    runs the same index walk over the sorted domain.  ``rank`` costs
    O(len(listed)) and never enumerates the domain, which keeps huge ratio
    domains workable.
    """

    __slots__ = ("listed", "domain", "_spans")

    def __init__(self, listed: Sequence, domain):
        listed = tuple(listed)
        if not listed:
            raise GameDefinitionError("need at least a top entry")
        spans = []
        lo = hi = None
        for key in listed:
            if key not in domain:
                raise GameDefinitionError(f"listed key {key!r} outside domain {domain!r}")
            if lo is None:
                lo = hi = key
                went_left = False
            elif key > hi:
                hi = key
                went_left = False
            elif key < lo:
                lo = key
                went_left = True
            else:
                raise GameDefinitionError(
                    f"listed key {key!r} lies inside the already-ranked interval"
                )
            low, high = Fraction(lo), Fraction(hi)
            spans.append((low.numerator, low.denominator,
                          high.numerator, high.denominator, went_left))
        self.listed = listed
        self.domain = domain
        #: per walk step, the span it covers as integer bounds
        #: ``(lo_num, lo_den, hi_num, hi_den, went_left)``
        self._spans = tuple(spans)

    def __contains__(self, key) -> bool:
        return key in self.domain

    def rank(self, key) -> tuple:
        """``(walk step, signed key)``: the step whose span first covers the
        key, read towards that step's new end.  ``key`` is an int or a
        ``Fraction``; spans are tested by cross-multiplication."""
        num, den = key.numerator, key.denominator
        for step, (lo_num, lo_den, hi_num, hi_den, left) in enumerate(self._spans):
            if lo_num * den <= num * lo_den and num * hi_den <= hi_num * den:
                return (step, -key if left else key)
        _, _, hi_num, hi_den, _ = self._spans[-1]
        if num * hi_den > hi_num * den:
            return (len(self.listed), key)
        return (len(self.listed) + 1, -key)

    def ranks(self, keys) -> list:
        """The walk's rank of each key as an int, from one pass over the
        sorted domain: each listed key's index is found by bisection, and
        each step ranks the index range it covers.  A list other than the
        sorted domain is read back through each key's index in it."""
        axis = self.domain.enumerate()
        ranks = _walk_ranks(self.listed, partial(bisect_left, axis), len(axis))
        if keys == axis:
            return ranks
        index = {key: i for i, key in enumerate(axis)}
        try:
            return [ranks[index[key]] for key in keys]
        except KeyError as exc:
            raise GameDefinitionError(f"key {exc.args[0]!r} outside order domain") from None

    compare = _compare

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
    listed = [list(c) for c in order.prefix.classes]
    unlisted = sorted(k for k in keys if k not in order.prefix)
    if not unlisted:
        return WeakOrder(listed)
    if order.completion is Completion.BOTTOM:
        return WeakOrder(listed + [unlisted])
    return WeakOrder(listed + [[k] for k in unlisted])


# ---------------------------------------------------------------------------
# order completion helpers (used by instance builders)
# ---------------------------------------------------------------------------


def _walk_ranks(listed: Sequence, position, d: int) -> list:
    """The rank of each of the ``d`` axis indices under the walk that
    ``listed`` spells, where ``position`` maps a listed key to its index.

    The top entry ranks first.  The ranked indices always form an interval,
    and each further listed entry extends it to one side: the indices it
    passes over take the next ranks, read towards the new entry.  Once the
    prefix is exhausted the right remainder follows, ascending, then the
    left remainder, descending.
    """
    ranks = [0] * d  # the top entry's index keeps rank 0
    lo = hi = position(listed[0])
    rank = 1
    for key in listed[1:]:
        at = position(key)
        if at > hi:
            ranks[hi + 1 : at + 1] = range(rank, rank + at - hi)
            rank += at - hi
            hi = at
        elif at < lo:
            ranks[at:lo] = range(rank + lo - at - 1, rank - 1, -1)
            rank += lo - at
            lo = at
        else:
            raise GameDefinitionError(
                f"listed key {key!r} lies inside the already-ranked interval"
            )
    ranks[hi + 1 :] = range(rank, rank + d - hi - 1)
    rank += d - hi - 1
    ranks[:lo] = range(rank + lo - 1, rank - 1, -1)
    return ranks


def complete_strict_on_axis(listed: Sequence, axis: Sequence) -> WeakOrder:
    """Extend a strict listed prefix to a full strict order along ``axis``.

    The keys are ranked by the index walk of :func:`_walk_ranks`, the one
    :meth:`AxisWalkOrder.ranks` runs, so the result is single-peaked on
    ``axis`` by construction.
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
    emitted = [None] * len(axis)
    for key, rank in zip(axis, _walk_ranks(listed, pos.__getitem__, len(axis))):
        emitted[rank] = [key]
    return WeakOrder(emitted)


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


def distinct_orders(game) -> list:
    """Each order object of ``game`` once, in agent order: agents often
    share one object, and whatever is derived per order need not repeat."""
    return list({id(order): order for order in game.orders}.values())


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
        for order in distinct_orders(self):
            _check_order_domain(order, expected)

    def prefers(self, agent: int, a: Coalition, b: Coalition) -> int:
        return self.orders[agent].compare(len(a), len(b))


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
        for order in distinct_orders(self):
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

    def member_sum(self, agent: int, coalition_: Iterable[int]):
        row = self.weights[agent]
        return sum(row[j] for j in coalition_)

    def prefers(self, agent: int, a: Coalition, b: Coalition) -> int:
        sa = self.member_sum(agent, a)
        sb = self.member_sum(agent, b)
        delta = sa * len(b) - sb * len(a)
        return (delta > 0) - (delta < 0)


@dataclass(frozen=True)
class FhgTraits:
    """Structural flags of a fractional game's weight digraph."""

    symmetric: bool
    simple: bool
    simple_asymmetric: bool
    nonnegative: bool
    _acyclic: bool | None

    @property
    def acyclic(self) -> bool:
        if self._acyclic is None:
            raise AcyclicQueriedOnNonSimpleAsymmetric(
                "acyclicity is only defined for simple asymmetric games"
            )
        return self._acyclic


def arc_scores(game: FractionalGame) -> tuple[int, ...] | None:
    """Scores 1..n increasing along every arc, smallest agent id first
    (Kahn's algorithm), or ``None`` when the arcs close a cycle.

    Arc i→j (weight 1: agent i likes agent j) forces score(i) < score(j).
    """
    n = game.n
    w = game.weights
    indegree = [0] * n
    for i in range(n):
        for j in range(n):
            if w[i][j] == 1:
                indegree[j] += 1
    ready = [i for i in range(n) if indegree[i] == 0]
    heapq.heapify(ready)
    scores = [0] * n
    rank = 0
    while ready:
        node = heapq.heappop(ready)
        rank += 1
        scores[node] = rank
        for j in range(n):
            if w[node][j] == 1:
                indegree[j] -= 1
                if indegree[j] == 0:
                    heapq.heappush(ready, j)
    return tuple(scores) if rank == n else None


def is_simple_asymmetric(game: FractionalGame) -> bool:
    """Every weight is 0 or 1 and no two agents both like each other: the
    arcs (weight 1) form a simple one-directional digraph."""
    n = game.n
    w = game.weights
    return all(
        (w[i][j], w[j][i]) in ((0, 0), (0, 1), (1, 0))
        for i in range(n) for j in range(i + 1, n)
    )


def classify_fhg(game: FractionalGame) -> FhgTraits:
    """Compute the structural flags; acyclicity only when simple asymmetric."""
    n = game.n
    w = game.weights
    symmetric = all(w[i][j] == w[j][i] for i in range(n) for j in range(i + 1, n))
    simple = all(w[i][j] in (0, 1) for i in range(n) for j in range(n) if i != j)
    asym = is_simple_asymmetric(game)
    nonnegative = all(w[i][j] >= 0 for i in range(n) for j in range(n))
    acyclic = arc_scores(game) is not None if asym else None
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


def _axis_keys(order, axis) -> list:
    """The keys along ``axis``: the sorted domain for ``None``, else the
    axis itself, which must list every domain key exactly once."""
    domain = order.domain
    natural = sorted(domain) if isinstance(order, WeakOrder) else domain.enumerate()
    if axis is None:
        return natural
    try:
        keys = list(axis)
        fits = len(keys) == len(natural) and set(keys) == set(natural)
    except TypeError:  # not iterable, or unhashable keys
        fits = False
    if not fits:
        raise AxisDomainMismatch(
            f"axis {str(axis)[:40]} does not list the order domain of size {len(natural)}"
        )
    return keys


def single_peaked_check(order, axis=None) -> bool:
    """Whether the order is single-peaked on ``axis``: ``None`` for the
    natural (numeric) axis, else a sequence of the domain's keys.

    An order is single-peaked on an axis iff for every axis-ordered triple
    x, y, z (read in either direction) preferring x to y forces y to be
    weakly preferred to z.  Equivalently — and this is what we test, in one
    pass over the axis — the order's ranks first fall and then rise (both
    weakly): once a rank has gone up, none comes down again.  That is the
    same as every union of top indifference classes being contiguous.
    """
    ranks = order.ranks(_axis_keys(order, axis))
    rising = False
    for before, after in zip(ranks, ranks[1:]):
        if after > before:
            rising = True
        elif after < before and rising:
            return False
    return True


def single_peaked_brute(order, axis=None) -> bool:
    """O(d^3) reference check straight from the triple definition."""
    keys = _axis_keys(order, axis)
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
    return all(single_peaked_check(order) for order in distinct_orders(game))


def is_strict_game(game) -> bool:
    """Convenience: every agent's order is strict."""
    return all(order.is_strict for order in distinct_orders(game))
