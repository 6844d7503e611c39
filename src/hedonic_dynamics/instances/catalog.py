"""Bundled counterexample instances, their deviation scripts, and claims.

Every entry packages one hand-transcribed game together with named starting
partitions, named move scripts (cycles, reach paths, build schedules) and a
list of machine-checkable claims.  A claim never restates a proof; it names
a predicate that :mod:`hedonic_dynamics.core`, :mod:`..dynamics` or
:mod:`..search` can decide on the spot, so ``verify_instance`` re-derives
everything from scratch on each call.

Every builder, here and in the reductions, adds its scripts through the
instance: ``NamedInstance.walk`` stores a script of (agent, anchor) hops,
``loop`` also claims that it closes, and ``reach`` that it leads from one
named start to another.  Programmatic builds take their agent ids from a
``Roster``.

Agents are dense 0-based ids internally; the ``labels`` table keeps the
display names used by the sources the instances were transcribed from.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from ..core import (
    NEW_SINGLETON,
    DeviationMove,
    Partition,
    StabilityKind,
    apply,
    enumerate_deviations,
    is_stable,
)
from ..dynamics import Script, ScriptedMoveInvalid, passes_filter, replay
from ..games import (
    AcyclicQueriedOnNonSimpleAsymmetric,
    AnonymousGame,
    AxisDomainMismatch,
    AxisWalkOrder,
    Color,
    ComputedOrder,
    Completion,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    RatioDomain,
    classify_fhg,
    complete_strict_on_axis,
    complete_weak_interval_closure,
    dhg_is_symmetric,
    is_strict_game,
    naturally_single_peaked,
    single_peaked_check,
)
from .. import search

RED = Color.RED
BLUE = Color.BLUE


class UnknownId(KeyError):
    """No catalog entry under the requested id."""


class ClaimFailed(AssertionError):
    """A bundled claim did not hold when re-checked."""


@dataclass
class Claim:
    """One machine-checkable fact about a bundled instance.

    ``kind`` picks the checker, ``subject`` names the start or script the
    checker looks at, and ``params`` carries kind-specific extras (an axis,
    an expected length, a search strategy, ...).  ``holds`` lets an entry
    advertise a negative fact, e.g. that an instance is *not* single-peaked.
    """

    kind: str
    subject: str = ""
    holds: bool = True
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        bits = [self.kind]
        if self.subject:
            bits.append(self.subject)
        if not self.holds:
            bits.append("(negated)")
        for key, value in sorted(self.params.items()):
            bits.append(f"{key}={value}")
        return " ".join(bits)


@dataclass(eq=False)
class NamedInstance:
    """A game with named starts, named scripts and the claims made about them.

    Builders add scripted walks through :meth:`walk`, :meth:`loop` and
    :meth:`reach`; the last two also add the claims that the walk closes or
    that it leads from one named start to another.  ``labels`` defaults to
    ``"1"`` .. ``"n"``.
    """

    id: str
    game: object
    starts: dict[str, Partition]
    scripts: dict[str, Script] = field(default_factory=dict)
    expected: tuple[Claim, ...] = ()
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.labels is None:
            self.labels = tuple(str(i + 1) for i in range(self.game.n))

    def agent(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self):
        return f"NamedInstance({self.id!r}, n={self.game.n})"

    def walk(self, name: str, start: Partition, hops, note: str = "") -> Partition:
        """Store the (agent, anchor) ``hops`` from ``start`` as script ``name``
        (see :func:`walk_moves`); returns the state the walk ends in."""
        moves, end = walk_moves(start, hops)
        self.scripts[name] = Script(start, moves, note)
        return end

    def loop(self, name: str, start: Partition, hops, note: str = "") -> None:
        """A walk that returns to ``start``, claimed as a cycle."""
        end = self.walk(name, start, hops, note)
        assert end == start, f"{self.id}: script {name!r} does not close"
        self.expected += (Claim("cycle", name),)

    def reach(self, name: str, source: str, target: str, hops, note: str = "") -> None:
        """A walk from start ``source``, claimed to start there and to end at
        start ``target``.  The walk's end becomes ``target`` only when no such
        start is given, so a given one is a check written independently."""
        end = self.walk(name, self.starts[source], hops, note)
        self.starts.setdefault(target, end)
        self.expected += (
            Claim("starts-at", name, params={"state": source}),
            Claim("reaches", name, params={"state": target}),
        )


# ---------------------------------------------------------------------------
# script assembly
# ---------------------------------------------------------------------------


def walk_moves(start: Partition, hops) -> tuple[tuple[DeviationMove, ...], Partition]:
    """Turn (agent, anchor) hops into concrete moves.

    ``anchor`` is an agent id whose *current* coalition becomes the move's
    target (``None`` founds a fresh singleton).  Returns the move tuple and
    the final state; validity is the replayer's job, not ours.
    """
    state = start
    moves = []
    for agent, anchor in hops:
        target = NEW_SINGLETON if anchor is None else state.coalition_of(anchor)
        move = DeviationMove(agent, target)
        moves.append(move)
        state = apply(state, move)
    return tuple(moves), state


# ---------------------------------------------------------------------------
# claim checking
# ---------------------------------------------------------------------------
#
# Each claim kind is one predicate ``(instance, claim) -> (outcome, detail)``:
# the outcome decides the fact the claim states, and the detail explains a
# mismatch.  Only ``check_claim`` compares the outcome with ``claim.holds``.


class _NoVerdict(Exception):
    """The claim cannot be decided, so it fails whichever way ``holds`` points:
    its own inputs are broken or its search ran out of budget."""


def _lookup(table, key, what: str):
    try:
        return table[key]
    except (KeyError, TypeError):
        raise _NoVerdict(f"no {what} {key!r}") from None


def _typed(value, kind: type, what: str):
    # the exact type: a bool is no count, and 1 is no trait value
    if type(value) is not kind:
        raise _NoVerdict(f"{what} {value!r} is not a {kind.__name__}")
    return value


def _game(instance, classes):
    if not isinstance(instance.game, classes):
        raise _NoVerdict(f"does not apply to a {type(instance.game).__name__}")
    return instance.game


def _goal(instance, claim) -> Partition:
    return _lookup(instance.starts, _lookup(claim.params, "state", "param"), "start")


def _trace(instance, claim):
    # a script that does not replay raises ScriptedMoveInvalid
    script = _lookup(instance.scripts, claim.subject, "script")
    return replay(instance.game, script.start, script.moves)


def _answer(answer, wanted) -> tuple[bool, str]:
    if isinstance(answer, search.BudgetExhausted):
        raise _NoVerdict(f"search ran out of {answer.limit}")
    return isinstance(answer, wanted), f"got {type(answer).__name__}"


_ORDERED = (AnonymousGame, DiversityGame)


def _strict(instance, claim):
    return is_strict_game(_game(instance, _ORDERED)), "strictness mismatch"


def _natural_sp(instance, claim):
    return naturally_single_peaked(_game(instance, _ORDERED)), "single-peakedness mismatch"


def _sp_on_axis(instance, claim):
    game = _game(instance, _ORDERED)
    keys = _lookup(claim.params, "axis", "param")
    if keys is None:  # would ask for the natural axis, which is ``natural-sp``
        raise _NoVerdict("no axis given")
    try:
        ok = all(single_peaked_check(order, keys) for order in game.orders)
    except AxisDomainMismatch as exc:
        raise _NoVerdict(f"axis {keys!r}: {exc}") from None
    return ok, f"single-peakedness on axis {keys} mismatch"


def _fhg_traits(instance, claim):
    traits = classify_fhg(_game(instance, FractionalGame))
    for name, want in claim.params.items():
        try:
            got = getattr(traits, name)
        except (AttributeError, AcyclicQueriedOnNonSimpleAsymmetric) as exc:
            raise _NoVerdict(f"trait {name}: {exc}") from None
        if got != _typed(want, bool, f"trait {name}"):
            return False, f"trait {name} is {got}"
    return True, "every listed trait matches"


def _dhg_symmetric(instance, claim):
    return dhg_is_symmetric(_game(instance, DichotomousGame)), "approval symmetry mismatch"


def _replays(instance, claim):
    try:
        _trace(instance, claim)
    except ScriptedMoveInvalid as exc:
        return False, str(exc)
    return True, "the script replays"


def _cycle(instance, claim):
    trace = _trace(instance, claim)
    return trace.final == trace.start, "loop closure mismatch"


def _reaches(instance, claim):
    return _trace(instance, claim).final == _goal(instance, claim), "end state mismatch"


def _visits(instance, claim):
    return _goal(instance, claim) in _trace(instance, claim).states(), "visit mismatch"


def _starts_at(instance, claim):
    return _trace(instance, claim).start == _goal(instance, claim), "start state mismatch"


def _filtered(instance, claim):
    game = _game(instance, DiversityGame)
    failing = sum(not passes_filter(game, m) for m in _trace(instance, claim).moves)
    return failing == 0, f"{failing} move(s) fail the solitary-homogeneity filter"


def _forced(instance, claim):
    trace = _trace(instance, claim)
    for state, move in zip(trace.states(), trace.moves):
        available = enumerate_deviations(instance.game, state, StabilityKind.IS)
        if available != [move]:
            return False, f"expected only {move}, found {available}"
    return True, "each state admits only its scripted move"


def _script_length(instance, claim):
    moves = len(_trace(instance, claim))
    length = _typed(_lookup(claim.params, "length", "param"), int, "length")
    return moves == length, f"script has {moves} moves"


def _stable(instance, claim):
    start = _lookup(instance.starts, claim.subject, "start")
    return is_stable(instance.game, start, StabilityKind.IS), "stability mismatch"


def _unique_stable(instance, claim):
    want = _lookup(instance.starts, claim.subject, "start")
    stable, count = [], 0
    for count, part in enumerate(search.enumerate_partitions(instance.game.n), 1):
        if is_stable(instance.game, part, StabilityKind.IS):
            stable.append(part)
    total = _typed(claim.params.get("total", count), int, "total")
    if count != total:
        raise _NoVerdict(f"scanned {count} partitions, not {total}")
    return stable == [want], f"stable set has {len(stable)} member(s)"


def _no_is(instance, claim):
    strategy = _lookup(search.STRATEGIES, claim.params.get("strategy", "plain"), "strategy")
    try:
        answer = search.exists_is_partition(instance.game, strategy(), search.SearchBudget())
    except ValueError as exc:  # the strategy does not fit the game
        raise _NoVerdict(str(exc)) from None
    return _answer(answer, search.NoStablePartition)


def _path_claim(find: str, wanted):
    # ``find`` is looked up on ``search`` at call time, so a wrapped function
    # is the one run
    def predicate(instance, claim):
        start = _lookup(instance.starts, claim.subject, "start")
        answer = getattr(search, find)(instance.game, start, search.SearchBudget())
        return _answer(answer, wanted)

    return predicate


#: claim kind -> predicate ``(instance, claim) -> (outcome, detail)``
CLAIM_CHECKERS = {
    "strict": _strict,
    "natural-sp": _natural_sp,
    "sp-on-axis": _sp_on_axis,
    "fhg-traits": _fhg_traits,
    "dhg-symmetric": _dhg_symmetric,
    "replays": _replays,
    "cycle": _cycle,
    "reaches": _reaches,
    "visits": _visits,
    "starts-at": _starts_at,
    "filtered": _filtered,
    "forced": _forced,
    "script-length": _script_length,
    "stable": _stable,
    "unique-stable": _unique_stable,
    "no-is": _no_is,
    "no-path": _path_claim("exists_path_to_is", search.NoPath),
    "path-found": _path_claim("exists_path_to_is", search.PathFound),
    "cycle-reachable": _path_claim("all_paths_converge", search.CycleReachable),
    "converges": _path_claim("all_paths_converge", search.ConvergesAlways),
}


def check_claim(instance: NamedInstance, claim: Claim) -> str:
    """Re-verify one claim and return its description; raise :class:`ClaimFailed`
    if its outcome is not ``claim.holds``, or either way if it cannot be decided."""
    predicate = CLAIM_CHECKERS.get(claim.kind)
    if predicate is None:
        raise ClaimFailed(f"unknown claim kind {claim.kind!r}")
    try:
        outcome, detail = predicate(instance, claim)
    except (_NoVerdict, ScriptedMoveInvalid) as exc:
        outcome, detail = not claim.holds, str(exc)
    if outcome != claim.holds:
        raise ClaimFailed(f"claim '{claim.describe()}': {detail}")
    return claim.describe()


def verify_instance(instance: NamedInstance) -> list[str]:
    """Check every bundled claim; returns their descriptions in order."""
    return [check_claim(instance, claim) for claim in instance.expected]


# ---------------------------------------------------------------------------
# size-preference entries
# ---------------------------------------------------------------------------


def _build_ahg7() -> NamedInstance:
    # display labels 1..7; sizes are preferred along the axis 1 2 3 5 4 6 7
    axis = [1, 2, 3, 5, 4, 6, 7]
    order_1 = complete_strict_on_axis([2, 3, 5, 4, 1], axis)
    order_2 = complete_strict_on_axis([5, 3, 2, 1, 4], axis)
    order_34 = complete_strict_on_axis([3, 2, 1], axis)
    order_567 = complete_strict_on_axis([5, 4, 3, 2, 1], axis)
    game = AnonymousGame(
        [order_1, order_2, order_34, order_34, order_567, order_567, order_567]
    )
    cycle_start = Partition([[0, 1], [2, 3], [4, 5, 6]])
    starts = {
        "singletons": Partition.singletons(7),
        "grand": Partition.grand(7),
        "cycle-start": cycle_start,
        "is-witness": Partition([[0], [2, 4, 5], [1, 3, 6]]),
    }
    inst = NamedInstance(
        "ahg7", game, starts,
        expected=(Claim("strict"), Claim("sp-on-axis", params={"axis": axis})),
    )
    inst.loop("cycle", cycle_start, [(1, 2), (0, 4), (1, 0), (0, 2), (1, None), (0, 1)],
              note="six-step loop driven by agents 1 and 2")
    inst.reach("reach-from-singletons", "singletons", "cycle-start",
               [(1, 0), (3, 2), (5, 4), (6, 4)],
               note="assemble the three loop coalitions")
    inst.reach("reach-from-grand", "grand", "cycle-start",
               [(0, None), (1, None), (2, None), (3, 2), (1, 0)],
               note="the first four agents walk out, then regroup")
    inst.expected += (Claim("stable", "is-witness"),)
    return inst


def _build_ahg15() -> NamedInstance:
    axis = [1, 2, 3, 13, 12, 15, 14, 11, 10, 9, 8, 7, 6, 5, 4]
    order_1 = complete_strict_on_axis([2, 3, 13, 12, 1], axis)
    order_2 = complete_strict_on_axis([13, 3, 2, 1, 12], axis)
    order_34 = complete_strict_on_axis([3, 2, 1], axis)
    order_rest = complete_strict_on_axis(
        [13, 12, 15, 14, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1], axis
    )
    game = AnonymousGame(
        [order_1, order_2, order_34, order_34] + [order_rest] * 11
    )
    crowd = list(range(4, 15))
    cycle_start = Partition([[0], [1, 2, 3], crowd])
    starts = {
        "singletons": Partition.singletons(15),
        "grand": Partition.grand(15),
        "cycle-start": cycle_start,
    }
    inst = NamedInstance(
        "ahg15", game, starts,
        expected=(Claim("strict"), Claim("sp-on-axis", params={"axis": axis})),
    )
    inst.loop("cycle", cycle_start, [(0, 4), (1, 4), (0, 2), (1, None), (0, 1), (1, 2)],
              note="six-step loop driven by agents 1 and 2")
    inst.expected += (Claim("no-is", params={"strategy": "type-reduced"}),)
    return inst


# ---------------------------------------------------------------------------
# two-color entries
# ---------------------------------------------------------------------------


def _build_hdg12_no_sp() -> NamedInstance:
    dom = RatioDomain(3, 9)
    F = Fraction

    def asc(*keys):
        return ComputedOrder([[F(*k)] for k in keys], dom, Completion.ASCENDING)

    o_b1 = asc((1, 5), (1, 3), (1, 7), (1, 6), (1, 4), (0,))
    o_b2 = asc((1, 7), (1, 3), (1, 5), (1, 4), (1, 6), (0,))
    o_c1_red = asc((1, 5), (1, 4), (1, 3), (1, 2), (1,))
    o_c1_blue = asc((1, 5), (1, 4), (1, 3), (1, 2), (0,))
    o_c2_red = asc((1, 3), (1, 2), (1,))
    o_c2_blue = asc((1, 3), (1, 2), (0,))
    o_c3_red = asc((1, 7), (1, 6), (1, 5), (1, 4), (1, 3), (1, 2), (1,))
    o_c3_blue = asc((1, 7), (1, 6), (1, 5), (1, 4), (1, 3), (1, 2), (0,))

    # 0: b1, 1: b2; C1 = {2 r, 3 b, 4 b}; C2 = {5 r, 6 b}; C3 = {7 r, 8..11 b}
    colors = [BLUE, BLUE, RED, BLUE, BLUE, RED, BLUE, RED, BLUE, BLUE, BLUE, BLUE]
    orders = [
        o_b1, o_b2,
        o_c1_red, o_c1_blue, o_c1_blue,
        o_c2_red, o_c2_blue,
        o_c3_red, o_c3_blue, o_c3_blue, o_c3_blue, o_c3_blue,
    ]
    game = DiversityGame(colors, orders)
    c1, c2, c3 = [2, 3, 4], [5, 6], [7, 8, 9, 10, 11]
    cycle_start = Partition([c1 + [0], c2 + [1], c3])
    starts = {
        "singletons": Partition.singletons(12),
        "cycle-start": cycle_start,
    }
    labels = (
        "b1", "b2",
        "C1.r", "C1.b1", "C1.b2",
        "C2.r", "C2.b",
        "C3.r", "C3.b1", "C3.b2", "C3.b3", "C3.b4",
    )
    inst = NamedInstance(
        "hdg12-no-sp", game, starts,
        expected=(Claim("strict"), Claim("natural-sp", holds=False)), labels=labels,
    )
    inst.loop("cycle", cycle_start, [(0, 7), (1, 7), (0, 5), (1, 2), (0, 2), (1, 5)],
              note="the two loose blue agents chase better mixes")
    inst.expected += (Claim("filtered", "cycle"),)
    inst.reach(
        "reach-from-singletons", "singletons", "cycle-start",
        [(3, 2), (4, 2), (6, 5), (8, 7), (9, 7), (10, 7), (11, 7), (0, 2), (1, 5)],
        note="form the fixed coalitions, then seat the movers",
    )
    inst.expected += (Claim("filtered", "reach-from-singletons"),)
    return inst


#: shared roster for the three 10-agent two-color entries:
#: 0: r (red), 1: b; C1 = {2, 3} red; C2 = {4 red, 5..7 blue}; C3 = {8, 9} blue
_HDG10_COLORS = [RED, BLUE, RED, RED, RED, BLUE, BLUE, BLUE, BLUE, BLUE]
_HDG10_LABELS = (
    "r", "b", "C1.r1", "C1.r2", "C2.r", "C2.b1", "C2.b2", "C2.b3", "C3.b1", "C3.b2",
)
#: loop shared by the weak example and both forced variants
_HDG10_CYCLE_HOPS = [(0, 8), (1, 8), (0, 4), (1, 2), (0, 2), (1, 4)]


def _hdg10_entry(instance_id, orders, note=""):
    cycle_start = Partition([[2, 3, 0], [4, 5, 6, 7, 1], [8, 9]])
    starts = {
        "singletons": Partition.singletons(10),
        "cycle-start": cycle_start,
    }
    inst = NamedInstance(
        instance_id, DiversityGame(_HDG10_COLORS, orders), starts, labels=_HDG10_LABELS
    )
    inst.loop("cycle", cycle_start, _HDG10_CYCLE_HOPS, note)
    return inst


def _hdg10_weak_orders():
    dom = RatioDomain(4, 6)
    keys = sorted(dom.enumerate())
    F = Fraction

    def weak(classes):
        listed = [[F(*k) for k in cls] for cls in classes]
        return complete_weak_interval_closure(listed, keys)

    o_r = weak([[(3, 4)], [(2, 5)], [(1, 4), (1, 3)], [(1,)]])
    o_b = weak([[(1, 4)], [(1, 5)], [(1, 2), (2, 3), (3, 4)], [(0,)]])
    o_c1 = weak([[(3, 4)], [(2, 3)], [(1, 2), (1, 3)], [(1,)]])
    o_c2_red = weak([[(2, 5)], [(1, 3), (1, 4), (1, 5)], [(1, 2)], [(1,)]])
    o_c2_blue = weak([[(2, 5)], [(1, 3), (1, 4), (1, 5)], [(1, 2)], [(0,)]])
    o_c3 = weak([[(1, 4)], [(1, 3)], [(1, 2)], [(0,)]])
    return [o_r, o_b, o_c1, o_c1, o_c2_red, o_c2_blue, o_c2_blue, o_c2_blue, o_c3, o_c3]


def _build_hdg10_weak() -> NamedInstance:
    inst = _hdg10_entry(
        "hdg10-weak", _hdg10_weak_orders(),
        note="the loose red/blue pair chases better mixes",
    )
    inst.starts["reach-end"] = Partition([[2, 3, 1], [4, 5, 6, 7, 0], [8, 9]])
    reach_hops = [
        (1, 2),          # b sits down with one future C1 red
        (3, 8),          # the other C1 red pairs with a C3 blue
        (9, 8),          # the second C3 blue follows
        (3, 2),          # that red defects back to b's side, freeing C3
        (4, 5), (6, 5), (7, 5),  # C2 assembles around its red
        (0, 5),          # r joins C2
    ]
    inst.reach("reach-from-singletons", "singletons", "reach-end", reach_hops)
    inst.expected += (
        Claim("filtered", "reach-from-singletons"),
        Claim("visits", "cycle", params={"state": "reach-end"}),
        Claim("strict", holds=False),
        Claim("natural-sp"),
        Claim("filtered", "cycle"),
    )
    return inst


def _build_hdg10_forced_strict() -> NamedInstance:
    dom = RatioDomain(4, 6)
    F = Fraction

    def asc(*keys):
        return ComputedOrder([[F(*k)] for k in keys], dom, Completion.ASCENDING)

    o_r = asc((3, 4), (2, 5), (1, 4), (1, 3), (1,))
    o_b = asc((1, 4), (1, 5), (3, 4), (2, 3), (0,))
    o_c1 = asc((3, 4), (2, 3), (1,))
    o_c2 = asc((2, 5), (1, 5), (1, 4))
    o_c3 = asc((1, 4), (1, 3), (0,))
    orders = [o_r, o_b, o_c1, o_c1, o_c2, o_c2, o_c2, o_c2, o_c3, o_c3]
    inst = _hdg10_entry("hdg10-forced-strict", orders)
    inst.expected += (
        Claim("strict"),
        Claim("natural-sp", holds=False),
        Claim("forced", "cycle"),
        Claim("cycle-reachable", "cycle-start"),
    )
    return inst


def _build_hdg10_forced_weak_sp() -> NamedInstance:
    dom = RatioDomain(4, 6)
    keys = sorted(dom.enumerate())
    F = Fraction
    o_r = complete_weak_interval_closure(
        [[F(3, 4)], [F(2, 5)], [F(1, 4), F(1, 3)], [F(1)]], keys
    )
    o_b = complete_weak_interval_closure(
        [[F(1, 4)], [F(1, 5)], [F(3, 4), F(2, 3)], [F(0)]], keys
    )
    o_rest = complete_weak_interval_closure([keys], keys)  # fully indifferent
    orders = [o_r, o_b] + [o_rest] * 8
    inst = _hdg10_entry("hdg10-forced-weak-sp", orders)
    inst.expected += (
        Claim("strict", holds=False),
        Claim("natural-sp"),
        Claim("forced", "cycle"),
        Claim("cycle-reachable", "cycle-start"),
    )
    return inst


def _build_hdg26() -> NamedInstance:
    dom = RatioDomain(12, 14)
    axis = sorted(dom.enumerate())
    F = Fraction

    def sp(*keys):
        return complete_strict_on_axis([F(*k) for k in keys], axis)

    o_r1 = sp((4, 7), (1, 4), (1, 7), (2, 3))
    o_r2 = sp((1, 4), (3, 8), (3, 7), (1, 7))
    o_b1 = sp((3, 8), (5, 7), (5, 6), (2, 7))
    o_b2 = sp((5, 7), (4, 7), (1, 2), (5, 6))
    o_c1 = sp((3, 8), (3, 7), (1, 3))
    o_c2 = sp((5, 7), (5, 6), (1,))
    o_c3 = sp((4, 7), (1, 2), (3, 5))
    o_c4 = sp((1, 4), (1, 7), (0,))

    # 0: r1, 1: r2, 2: b1, 3: b2; C1 = 4,5 red + 6..9 blue; C2 = 10..14 red;
    # C3 = 15..17 red + 18,19 blue; C4 = 20..25 blue
    colors = (
        [RED, RED, BLUE, BLUE]
        + [RED] * 2 + [BLUE] * 4
        + [RED] * 5
        + [RED] * 3 + [BLUE] * 2
        + [BLUE] * 6
    )
    orders = (
        [o_r1, o_r2, o_b1, o_b2]
        + [o_c1] * 6
        + [o_c2] * 5
        + [o_c3] * 5
        + [o_c4] * 6
    )
    game = DiversityGame(colors, orders)
    c1 = list(range(4, 10))
    c2 = list(range(10, 15))
    c3 = list(range(15, 20))
    c4 = list(range(20, 26))
    cycle_start = Partition([c1 + [2, 1], c2, c3 + [3], c4 + [0]])
    starts = {
        "singletons": Partition.singletons(26),
        "cycle-start": cycle_start,
    }
    labels = (
        "r1", "r2", "b1", "b2",
        "C1.r1", "C1.r2", "C1.b1", "C1.b2", "C1.b3", "C1.b4",
        "C2.r1", "C2.r2", "C2.r3", "C2.r4", "C2.r5",
        "C3.r1", "C3.r2", "C3.r3", "C3.b1", "C3.b2",
        "C4.b1", "C4.b2", "C4.b3", "C4.b4", "C4.b5", "C4.b6",
    )
    inst = NamedInstance(
        "hdg26-sp-strict-solitary", game, starts,
        expected=(Claim("strict"), Claim("natural-sp")), labels=labels,
    )
    inst.loop(
        "cycle",
        cycle_start,
        [
            (1, 20),  # r2 regroups with r1's mixed coalition
            (0, 15),  # r1 chases the ratio it likes best
            (2, 10),  # b1 softens the all-red block
            (1, 4),   # r2 returns to the big mixed coalition
            (3, 10),  # b2 joins b1
            (0, 20),  # r1 dilutes the all-blue block
            (2, 4),   # b1 comes back to the top mix
            (3, 15),  # b2 closes the loop
        ],
        note="eight-step loop of the four movers",
    )
    inst.expected += (Claim("filtered", "cycle"),)
    return inst


# -- the assembled large entry ----------------------------------------------


class Roster:
    """Incremental agent table for programmatic builds."""

    def __init__(self):
        self.labels = []
        self.colors = []
        self.orders = []

    def add(self, label, color=None, order=None) -> int:
        self.labels.append(label)
        self.colors.append(color)
        self.orders.append(order)
        return len(self.labels) - 1

    def many(self, prefix, count, color=None, order=None) -> list[int]:
        return [self.add(f"{prefix}{i + 1}", color, order) for i in range(count)]


def _homogeneous_build_hops(targets, first_aux, second_aux, aux_pool):
    """Assembly loop for one homogeneous block of ``len(targets)`` agents.

    ``aux_pool`` holds len(targets)+1 helpers of the targets' color;
    ``first_aux``/``second_aux`` are two helpers of the opposite color.  The
    last target seeds the block and never moves; every other target is
    ferried in through a short-lived mixed pair.  Helpers end up parked in a
    throwaway coalition around ``second_aux``.
    """
    k = len(targets)
    hops = [(aux_pool[k - 1], second_aux), (aux_pool[k], second_aux)]
    for i in range(k - 1):
        hops.append((aux_pool[i], first_aux))
        hops.append((targets[i], first_aux))
        hops.append((aux_pool[i], aux_pool[k - 1]))
        hops.append((targets[i], targets[k - 1]))
    return hops


def _build_hdg_assembled() -> NamedInstance:
    F = Fraction
    dom = RatioDomain(66, 162)

    def walk(*keys):
        return AxisWalkOrder([F(*k) for k in keys], dom)

    # the four movers and the four fixed-coalition rows, with enough extra
    # listed entries to cover both the assembly and the loop itself
    o_r1 = walk((4, 7), (1, 4), (1, 7), (2, 3), (1,))
    o_r2 = walk((1, 4), (3, 8), (3, 7), (1, 7), (1,))
    o_b1 = walk((3, 8), (5, 7), (5, 6), (2, 7), (0,))
    o_b2 = walk((5, 7), (4, 7), (1, 2), (5, 6), (0,))
    o_c1 = walk((3, 8), (3, 7), (1, 3), (1, 5), (0,), (1, 2), (1,))
    o_c2 = walk((2, 3), (5, 7), (5, 6), (1,), (1, 2))
    o_c3 = walk(
        (4, 7), (1, 2), (3, 5), (3, 4), (3, 10), (2, 9), (1, 8), (1,), (0,)
    )
    o_c4 = walk((1, 3), (1, 4), (1, 7), (0,), (1, 2))
    # helper rows: peak right next to an end of the ratio axis, end itself last
    o_low = walk((1, 163), (1,), (0,))
    o_high = walk((66, 67), (0,), (1,))
    # annex row: happiest at 4/13, and fine with founding all-blue blocks
    o_annex = walk((4, 13), (1, 3), (3, 11), (0,), (1, 2), (1,))

    roster = Roster()
    r1 = roster.add("r1", RED, o_r1)
    r2 = roster.add("r2", RED, o_r2)
    b1 = roster.add("b1", BLUE, o_b1)
    b2 = roster.add("b2", BLUE, o_b2)
    c1_reds = roster.many("C1.r", 2, RED, o_c1)
    c1_blues = roster.many("C1.b", 4, BLUE, o_c1)
    c2_reds = roster.many("C2.r", 5, RED, o_c2)
    c3_reds = roster.many("C3.r", 3, RED, o_c3)
    c3_blues = roster.many("C3.b", 2, BLUE, o_c3)
    c4_blues = roster.many("C4.b", 6, BLUE, o_c4)

    hops = []

    def blue_block(tag, targets):
        helpers = roster.many(f"{tag}.h", 2, RED, o_low)
        pool = roster.many(f"{tag}.x", len(targets) + 1, BLUE, o_low)
        hops.extend(_homogeneous_build_hops(targets, helpers[0], helpers[1], pool))

    def red_block(tag, targets):
        helpers = roster.many(f"{tag}.h", 2, BLUE, o_high)
        pool = roster.many(f"{tag}.x", len(targets) + 1, RED, o_high)
        hops.extend(_homogeneous_build_hops(targets, helpers[0], helpers[1], pool))

    # C1: four blues gathered, then both reds join (1/5, then 1/3)
    blue_block("C1", c1_blues)
    hops.append((c1_reds[0], c1_blues[0]))
    hops.append((c1_reds[1], c1_blues[0]))
    # C2: five reds gathered (the loop only ever adds blue visitors)
    red_block("C2", c2_reds)
    # C4: six blues, done
    blue_block("C4", c4_blues)
    # C3 takes a detour: a temporary 7-blue block lets the three reds enter
    # at ratios they like (1/8, 2/9, 3/10); once annex coalitions exist the
    # temporaries defect to them, and the two real C3 blues walk in.
    temps = roster.many("C3.t", 7, BLUE, o_annex)
    blue_block("C3", temps)
    for red in c3_reds:
        hops.append((red, temps[-1]))
    annex_seats = []
    for v in range(7):
        annex = roster.many(f"A{v + 1}.b", 8, BLUE, o_annex)
        blue_block(f"A{v + 1}", annex)
        for red in roster.many(f"A{v + 1}.r", 4, RED, o_annex):
            hops.append((red, annex[-1]))
        annex_seats.append(annex[-1])
    for temp, seat in zip(temps, annex_seats):
        hops.append((temp, seat))
    hops.append((c3_blues[0], c3_reds[0]))
    hops.append((c3_blues[1], c3_reds[0]))
    # seat the four movers: this is a state the eight-step loop passes through
    hops.append((r2, c1_reds[0]))
    hops.append((b1, c2_reds[0]))
    hops.append((b2, c3_reds[0]))
    hops.append((r1, c3_reds[0]))

    game = DiversityGame(roster.colors, roster.orders)
    assert game.n == 228 and game.reds == 66 and game.blues == 162
    inst = NamedInstance(
        "hdg-assembled", game, {"singletons": Partition.singletons(game.n)},
        expected=(Claim("strict"), Claim("natural-sp")), labels=tuple(roster.labels),
    )
    inst.reach("build", "singletons", "after-build", hops,
               note="full assembly from singletons")
    inst.expected += (Claim("filtered", "build", holds=False),)
    inst.loop(
        "cycle",
        inst.starts["after-build"],
        [
            (b2, c2_reds[0]),
            (r1, c4_blues[0]),
            (b1, c1_reds[0]),
            (b2, c3_reds[0]),
            (r2, c4_blues[0]),
            (r1, c3_reds[0]),
            (b1, c2_reds[0]),
            (r2, c1_reds[0]),
        ],
        note="the eight-step loop, entered mid-phase",
    )
    inst.expected += (Claim("filtered", "cycle"),)
    return inst


# ---------------------------------------------------------------------------
# weighted-average entries
# ---------------------------------------------------------------------------

#: forward weights between consecutive triangles, keyed by (role, role)
_TRIANGLE_FORWARD = {
    ("a", "a"): 436, ("a", "b"): 228, ("a", "c"): 248,
    ("b", "a"): 223, ("b", "b"): 171, ("b", "c"): 236,
    ("c", "a"): 223, ("c", "b"): 171, ("c", "c"): 188,
}
_TRIANGLE_INTRA = 228
_TRIANGLE_FAR = -2251


def triangle_ring_weights(far=_TRIANGLE_FAR):
    """Symmetric 15-agent weight matrix: five triangles in a ring.

    Agent ``3*(i-1) + role`` is role a/b/c (0/1/2) of triangle i.  Pairs
    inside a triangle weigh 228; pairs of consecutive triangles use the
    forward table; everything else weighs ``far``.
    """
    n = 15
    rows = [[far] * n for _ in range(n)]
    roles = "abc"
    for i in range(5):
        base = 3 * i
        nxt = 3 * ((i + 1) % 5)
        for p in range(3):
            rows[base + p][base + p] = 0
            for q in range(p + 1, 3):
                rows[base + p][base + q] = rows[base + q][base + p] = _TRIANGLE_INTRA
            for q in range(3):
                w = _TRIANGLE_FORWARD[(roles[p], roles[q])]
                rows[base + p][nxt + q] = rows[nxt + q][base + p] = w
    return rows


def _build_fhg15() -> NamedInstance:
    game = FractionalGame(triangle_ring_weights())
    tri = [tuple(range(3 * i, 3 * i + 3)) for i in range(5)]
    rotation_start = Partition([tri[4] + tri[0], tri[1], tri[2], tri[3]])
    starts = {
        "singletons": Partition.singletons(15),
        "rotation-start": rotation_start,
    }
    hops = []
    for i in range(5):
        anchor = tri[(i + 1) % 5][0]
        hops.extend([(tri[i][0], anchor), (tri[i][1], anchor), (tri[i][2], anchor)])
    inst = NamedInstance(
        "fhg15", game, starts,
        expected=(Claim("fhg-traits", params={"symmetric": True, "simple": False}),),
        labels=tuple(f"{role}{i + 1}" for i in range(5) for role in "abc"),
    )
    inst.loop("rotation", rotation_start, hops, note="each triangle migrates into the next")
    inst.expected += (Claim("no-is", params={"strategy": "pruned-fhg"}),)
    return inst


def _build_fhg_triangle() -> NamedInstance:
    game = FractionalGame.from_arcs(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    cycle_start = Partition([[0, 1], [2]])
    starts = {
        "singletons": Partition.singletons(3),
        "cycle-start": cycle_start,
        "grand": Partition.grand(3),
    }
    traits = {"simple": True, "simple_asymmetric": True, "acyclic": False}
    inst = NamedInstance(
        "fhg-triangle", game, starts,
        expected=(Claim("fhg-traits", params=traits),), labels=("b1", "b2", "b3"),
    )
    inst.loop("cycle", cycle_start, [(1, 2), (2, 0), (0, 1)],
              note="a pair chases its tail around the directed triangle")
    inst.walk("reach-from-singletons", starts["singletons"], [(0, 1)])
    inst.expected += (
        Claim("reaches", "reach-from-singletons", params={"state": "cycle-start"}),
        Claim("cycle-reachable", "singletons"),
        Claim("stable", "grand"),
    )
    return inst


def clique_blocks(k: int) -> list[list[int]]:
    """Consecutive id blocks of sizes 1..k over n = k(k+1)/2 agents."""
    blocks, base = [], 0
    for j in range(1, k + 1):
        blocks.append(list(range(base, base + j)))
        base += j
    return blocks


def _build_fhg_clique(k: int) -> NamedInstance:
    if k < 2:
        raise UnknownId(f"fhg-clique({k}): block count must be at least 2")
    n = k * (k + 1) // 2
    game = FractionalGame([[int(i != j) for j in range(n)] for i in range(n)])
    blocks = clique_blocks(k)
    inst = NamedInstance(
        f"fhg-clique({k})", game,
        {"singletons": Partition.singletons(n), "grand": Partition.grand(n)},
        expected=(Claim("fhg-traits", params={"symmetric": True, "simple": True}),),
        labels=tuple(f"v{i + 1}" for i in range(n)),
    )
    inst.reach("build", "singletons", "blocks",
               [(a, block[0]) for block in blocks for a in block[1:]],
               note="form blocks of sizes 1..k")
    tour_hops = []
    for j in range(k - 1):  # step j empties block j into the chain's end
        for agent in blocks[j]:
            for target in range(j + 1, k):
                tour_hops.append((agent, blocks[target][0]))
    inst.walk("tour", inst.starts["blocks"], tour_hops,
              note="every agent rides the block chain up")
    inst.expected += (
        Claim("script-length", "build", params={"length": n - k}),
        Claim("reaches", "tour", params={"state": "grand"}),
        Claim("script-length", "tour", params={"length": (k - 1) * k * (k + 1) // 6}),
        Claim("stable", "grand"),
    )
    return inst


# ---------------------------------------------------------------------------
# approval entry
# ---------------------------------------------------------------------------


def _build_dhg3() -> NamedInstance:
    game = DichotomousGame(3, [[(0, 1)], [(1, 2)], [(0, 2)]])
    a = Partition([[0, 1], [2]])
    starts = {
        "singletons": Partition.singletons(3),
        "grand": Partition.grand(3),
        "pair-12": a,
    }
    inst = NamedInstance("dhg3", game, starts, expected=(Claim("dhg-symmetric", holds=False),))
    inst.loop("cycle", a, [(1, 2), (2, 0), (0, 1)],
              note="each agent drags her approved partner off")
    inst.walk("reach-from-singletons", starts["singletons"], [(0, 1)])
    inst.expected += (
        Claim("reaches", "reach-from-singletons", params={"state": "pair-12"}),
        Claim("stable", "grand"),
        Claim("unique-stable", "grand", params={"total": 5}),
        Claim("no-path", "singletons"),
        Claim("cycle-reachable", "singletons"),
    )
    return inst


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_BUILDERS = {
    "ahg7": _build_ahg7,
    "ahg15": _build_ahg15,
    "hdg12-no-sp": _build_hdg12_no_sp,
    "hdg10-weak": _build_hdg10_weak,
    "hdg10-forced-strict": _build_hdg10_forced_strict,
    "hdg10-forced-weak-sp": _build_hdg10_forced_weak_sp,
    "hdg26-sp-strict-solitary": _build_hdg26,
    "hdg-assembled": _build_hdg_assembled,
    "fhg15": _build_fhg15,
    "fhg-triangle": _build_fhg_triangle,
    "dhg3": _build_dhg3,
}

_CLIQUE_ID = re.compile(r"fhg-clique\((\d+)\)$")


def catalog_ids() -> tuple[str, ...]:
    """The listed ids (stable across versions); fhg-clique(k) builds for any
    k >= 2 but only the three standard sizes are listed."""
    return tuple(_BUILDERS) + tuple(f"fhg-clique({k})" for k in (3, 4, 5))


def build(instance_id: str) -> NamedInstance:
    """Construct the named instance from scratch (no caching)."""
    m = _CLIQUE_ID.match(instance_id)
    if m:
        return _build_fhg_clique(int(m.group(1)))
    try:
        builder = _BUILDERS[instance_id]
    except KeyError:
        raise UnknownId(instance_id) from None
    return builder()

