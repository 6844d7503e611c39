"""Exhaustive decision procedures for desk-scale games.

Three questions are answered exactly, by enumeration:

- does an individually stable partition exist at all;
- from a given start, can some sequence of deviations reach one;
- from a given start, does every sequence of deviations reach one.

Everything here is exponential in the worst case — the point is certified
answers on instances small enough to settle by brute force, with symmetry
reduction (interchangeable agents), domain pruning (coalitions no member
would stay in) and, for weight games, a block-pair clash test (IS
deviations depend only on the mover's block and the target block, so a
partial cover with one clashing pair never completes to a stable
partition) to push "small enough" a bit further.  Answers are
deterministic; ``BudgetExhausted`` is returned rather than ever guessing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice, product

from .core import Partition, apply, canonicalize
from .dynamics import MoveFinder, Trace, replay
from .games import AnonymousGame, DiversityGame, FractionalGame

#: enumerating all partitions of more agents than this is refused outright
#: (Bell(13) is about 2.8e7; Bell(14) is an order of magnitude worse)
PARTITION_CAP = 13


class CapExceeded(ValueError):
    """Asked to enumerate a partition lattice too large to walk."""


@dataclass(frozen=True)
class SearchBudget:
    max_states: int = 50_000_000
    max_seconds: int = 600

    def __post_init__(self):
        for name in ("max_states", "max_seconds"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


# --- strategies -------------------------------------------------------------


@dataclass(frozen=True)
class Plain:
    """Enumerate every labeled partition."""


@dataclass(frozen=True)
class TypeReduced:
    """Enumerate per-type count vectors instead of labeled partitions.

    Agents with identical preferences (and identical color, for two-color
    games) are interchangeable, so stability depends only on how many of
    each type sit in each coalition.
    """


@dataclass(frozen=True)
class PrunedFHG:
    """Assemble stable partitions from coalitions every member tolerates.

    In a weighted-average game an agent with negative utility always walks
    out (going solo needs nobody's consent and pays zero), so a stable
    partition only ever uses coalitions where every member sum is
    nonnegative.  A pair pruning step discards any coalition containing two
    agents whose mutual weight is so low that one of them is negative no
    matter who else joins.

    Covers are built one block at a time, always the block holding the
    lowest free agent.  A block is rejected when it clashes with a block
    already placed: a member of either strictly gains by joining the other
    and every member there weakly approves.  Each pair's verdict is computed
    once per search, and only clash-free complete covers, which are exactly
    the stable partitions, reach the stability check.
    """


Strategy = Plain | TypeReduced | PrunedFHG


# --- answers ----------------------------------------------------------------


@dataclass(frozen=True)
class StableExists:
    witness: Partition


@dataclass(frozen=True)
class NoStablePartition:
    """The whole space was scanned without finding a stable partition.

    ``states_checked`` counts the candidates scanned; for ``PrunedFHG`` it
    counts pool-enumeration states plus placed blocks plus complete covers.
    """

    states_checked: int


@dataclass(frozen=True)
class PathFound:
    trace: Trace


@dataclass(frozen=True)
class NoPath:
    states_explored: int


@dataclass(frozen=True)
class ConvergesAlways:
    states_explored: int


@dataclass(frozen=True)
class CycleReachable:
    trace: Trace
    prefix_len: int
    cycle_len: int


@dataclass(frozen=True)
class BudgetExhausted:
    limit: str  # "states" or "seconds"
    states_explored: int


ExistenceAnswer = StableExists | NoStablePartition | BudgetExhausted
ReachabilityAnswer = (
    PathFound | NoPath | ConvergesAlways | CycleReachable | BudgetExhausted
)


class _BudgetOver(Exception):
    """Internal control flow: a candidate generator ran out of budget."""

    def __init__(self, limit: str, states: int):
        self.limit = limit
        self.states = states


class _Meter:
    """Budget bookkeeping: counts states and watches the clock."""

    def __init__(self, budget: SearchBudget, clock=time.monotonic):
        self.budget = budget
        self.clock = clock
        self.deadline = clock() + budget.max_seconds
        self.states = 0

    def tick(self) -> str | None:
        """Account for one explored state; the limit name when over budget."""
        self.states += 1
        if self.states > self.budget.max_states:
            return "states"
        if self.states % 1024 == 0 and self.clock() > self.deadline:
            return "seconds"
        return None

    def tick_or_raise(self) -> None:
        over = self.tick()
        if over is not None:
            raise _BudgetOver(over, self.states - 1)


# --- partition enumeration --------------------------------------------------


def enumerate_partitions(n: int, cap: int = PARTITION_CAP):
    """All partitions of agents 0..n-1, by restricted growth strings."""
    if n < 1:
        raise ValueError("need at least one agent")
    if n > cap:
        raise CapExceeded(f"enumerating partitions of {n} agents exceeds the cap {cap}")
    labels = [0] * n
    ceiling = [1] * n  # ceiling[i] = 1 + max(labels[:i]); labels[i] may reach it
    while True:
        blocks: dict[int, list[int]] = {}
        for agent, lab in enumerate(labels):
            blocks.setdefault(lab, []).append(agent)
        yield Partition(blocks.values())
        i = n - 1
        while i > 0 and labels[i] >= ceiling[i]:
            i -= 1
        if i == 0:
            return
        labels[i] += 1
        tail_ceiling = max(ceiling[i], labels[i] + 1)
        for j in range(i + 1, n):
            labels[j] = 0
            ceiling[j] = tail_ceiling


# --- existence of a stable partition ----------------------------------------


def exists_is_partition(
    game, strategy: Strategy = Plain(), budget: SearchBudget = SearchBudget()
) -> ExistenceAnswer:
    """Scan the whole partition space for an individually stable partition.

    Completed scans return the witness with the smallest canonical encoding;
    if the budget runs out after at least one witness was seen, that witness
    is still returned (existence is settled even though the scan is not).
    """
    meter = _Meter(budget)
    if isinstance(strategy, TypeReduced):
        candidates = _type_reduced_candidates(game)
    elif isinstance(strategy, PrunedFHG):
        candidates = _pruned_fhg_candidates(game, meter)
    else:
        candidates = enumerate_partitions(game.n)

    finder = MoveFinder(game)
    best: Partition | None = None
    best_key: bytes | None = None
    try:
        for partition in candidates:
            meter.tick_or_raise()
            if not finder.has_move(partition):
                key = canonicalize(partition)
                if best_key is None or key < best_key:
                    best, best_key = partition, key
    except _BudgetOver as over:
        if best is not None:
            return StableExists(best)
        return BudgetExhausted(over.limit, over.states)
    if best is not None:
        return StableExists(best)
    return NoStablePartition(meter.states)


def _agent_types(game) -> list[list[int]]:
    """Groups of interchangeable agents, each listed ascending; groups
    ordered by their smallest member."""
    if isinstance(game, AnonymousGame):
        key = lambda a: game.orders[a]
    elif isinstance(game, DiversityGame):
        key = lambda a: (game.colors[a].value, game.orders[a])
    else:
        raise ValueError(
            "type reduction needs a size-based or two-color game "
            "(interchangeability of equal-preference agents)"
        )
    groups: dict = {}
    for agent in range(game.n):
        groups.setdefault(key(agent), []).append(agent)
    return sorted(groups.values(), key=lambda agents: agents[0])


def _vector_partitions(counts: tuple[int, ...]):
    """Multiset partitions of a count vector: every way of splitting
    ``counts`` into unordered nonzero parts, parts emitted non-increasing."""

    def parts_upto(remaining, bound):
        for vec in product(*(range(c, -1, -1) for c in remaining)):
            if any(vec) and vec <= bound:
                yield vec

    def rec(remaining, bound, acc):
        if not any(remaining):
            yield list(acc)
            return
        for vec in parts_upto(remaining, bound):
            acc.append(vec)
            rest = tuple(r - v for r, v in zip(remaining, vec))
            yield from rec(rest, vec, acc)
            acc.pop()

    yield from rec(counts, counts, [])


def _fill_shape(types: list[list[int]], shape) -> Partition:
    """A concrete labeled partition realizing a per-type count shape."""
    pools = [iter(group) for group in types]
    blocks = []
    for vec in sorted(shape, reverse=True):
        members: list[int] = []
        for pool, count in zip(pools, vec):
            members.extend(islice(pool, count))
        blocks.append(members)
    return Partition(blocks)


def _type_reduced_candidates(game):
    types = _agent_types(game)
    counts = tuple(len(group) for group in types)
    for shape in _vector_partitions(counts):
        yield _fill_shape(types, shape)


def forbidden_pairs(game: FractionalGame) -> set[tuple[int, int]]:
    """Pairs that can never share a coalition anyone would stay in: the
    mutual weight is too low to be offset even by every positive weight the
    losing agent has."""
    n = game.n
    w = game.weights
    positive_total = [
        sum(max(w[i][m], 0) for m in range(n) if m != i) for i in range(n)
    ]
    bad = set()
    for i in range(n):
        for j in range(i + 1, n):
            hurt_i = w[i][j] + positive_total[i] - max(w[i][j], 0)
            hurt_j = w[j][i] + positive_total[j] - max(w[j][i], 0)
            if hurt_i < 0 or hurt_j < 0:
                bad.add((i, j))
    return bad


def tolerable_coalitions(game: FractionalGame, meter: _Meter | None = None):
    """All coalitions in which every member's weight sum is nonnegative.

    Coalitions containing a forbidden pair are cut off before expansion;
    the nonnegativity test itself is not monotone (a negative member may be
    rescued by a later joiner), so it only filters emission.
    """
    n = game.n
    w = game.weights
    bad = forbidden_pairs(game)
    out: list[tuple[int, ...]] = []

    def extend(members: list[int], sums: list[int]):
        if meter is not None:
            meter.tick_or_raise()
        if members and all(s >= 0 for s in sums):
            out.append(tuple(members))
        last = members[-1] if members else -1
        for j in range(last + 1, n):
            if any((min(i, j), max(i, j)) in bad for i in members):
                continue
            extend(members + [j], [s + w[i][j] for i, s in zip(members, sums)] + [
                sum(w[j][i] for i in members)
            ])

    extend([], [])
    return out


def _pruned_fhg_candidates(game, meter: _Meter):
    """The IS-stable partitions, as covers by tolerable coalitions in which
    no two blocks clash (see ``PrunedFHG``).

    A clash is an IS deviation between two blocks, and a tolerable block has
    no member who would rather be alone, so a complete clash-free cover has
    no deviation at all.
    """
    if not isinstance(game, FractionalGame):
        raise ValueError("coalition pruning needs a weighted-average game")
    pool = tolerable_coalitions(game, meter)
    by_agent: dict[int, list[tuple[int, ...]]] = {a: [] for a in range(game.n)}
    for coalition in pool:
        by_agent[coalition[0]].append(coalition)
    prefers = game.prefers

    def joins(movers, welcoming) -> bool:
        """Some member of ``movers`` strictly gains by joining ``welcoming``,
        and every member there weakly approves."""
        for agent in movers:
            post = welcoming + (agent,)
            if prefers(agent, post, movers) > 0 and all(
                prefers(m, post, welcoming) >= 0 for m in welcoming
            ):
                return True
        return False

    # keyed (placed, candidate): the placed block always holds the lower
    # lowest agent, so each unordered pair has one key
    clashes: dict[tuple, bool] = {}

    def clash(placed, candidate) -> bool:
        key = (placed, candidate)
        verdict = clashes.get(key)
        if verdict is None:
            verdict = clashes[key] = joins(placed, candidate) or joins(candidate, placed)
        return verdict

    def cover(lowest: int, used: list, free: set):
        if not free:
            yield Partition(list(used))
            return
        while lowest not in free:
            lowest += 1
        for coalition in by_agent[lowest]:
            if all(a in free for a in coalition) and not any(
                clash(block, coalition) for block in used
            ):
                meter.tick_or_raise()
                used.append(coalition)
                yield from cover(lowest + 1, used, free - set(coalition))
                used.pop()

    yield from cover(0, [], set(range(game.n)))


# --- reachability -----------------------------------------------------------


def exists_path_to_is(
    game, start: Partition, budget: SearchBudget = SearchBudget()
) -> ReachabilityAnswer:
    """Breadth-first search of the reachable deviation graph; the first
    stable partition dequeued yields a shortest witness path."""
    finder = MoveFinder(game)
    meter = _Meter(budget)
    start_key = canonicalize(start)
    parents: dict[bytes, tuple[bytes, object] | None] = {start_key: None}
    queue: list[tuple[bytes, Partition]] = [(start_key, start)]
    over = meter.tick()
    if over is not None:
        return BudgetExhausted(over, 0)
    head = 0
    while head < len(queue):
        key, partition = queue[head]
        head += 1
        moves = list(finder.iter_moves(partition))
        if not moves:
            steps = []
            walk = key
            while parents[walk] is not None:
                walk, move = parents[walk]
                steps.append(move)
            steps.reverse()
            return PathFound(replay(game, start, steps))
        for move in moves:
            post = apply(partition, move)
            post_key = canonicalize(post)
            if post_key in parents:
                continue
            over = meter.tick()
            if over is not None:
                return BudgetExhausted(over, len(parents))
            parents[post_key] = (key, move)
            queue.append((post_key, post))
    return NoPath(len(parents))


def all_paths_converge(
    game, start: Partition, budget: SearchBudget = SearchBudget()
) -> ReachabilityAnswer:
    """Depth-first search for a directed cycle among reachable partitions.

    Every partition has finitely many deviations, so some run fails to
    terminate exactly when a cycle is reachable; the answer then carries a
    lasso: a path from the start followed by one loop around the cycle.
    """
    finder = MoveFinder(game)
    meter = _Meter(budget)
    GRAY, BLACK = 1, 2
    color: dict[bytes, int] = {}
    start_key = canonicalize(start)
    over = meter.tick()
    if over is not None:
        return BudgetExhausted(over, 0)
    color[start_key] = GRAY
    # stack frames: (key, partition, move iterator, move that entered here)
    stack = [(start_key, start, iter(finder.iter_moves(start)), None)]
    while stack:
        key, partition, moves, _ = stack[-1]
        advanced = False
        for move in moves:
            post = apply(partition, move)
            post_key = canonicalize(post)
            state = color.get(post_key)
            if state == BLACK:
                continue
            if state == GRAY:
                # lasso: the stack up to post_key is the prefix, the rest
                # plus this move closes the cycle
                path_moves = [f[3] for f in stack[1:]] + [move]
                keys = [f[0] for f in stack]
                cycle_start = keys.index(post_key)
                trace = replay(game, start, path_moves)
                return CycleReachable(
                    trace, cycle_start, len(path_moves) - cycle_start
                )
            over = meter.tick()
            if over is not None:
                return BudgetExhausted(over, len(color))
            color[post_key] = GRAY
            stack.append((post_key, post, iter(finder.iter_moves(post)), move))
            advanced = True
            break
        if not advanced:
            color[key] = BLACK
            stack.pop()
    return ConvergesAlways(len(color))
