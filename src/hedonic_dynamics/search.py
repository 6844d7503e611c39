"""Exhaustive decision procedures for desk-scale games.

Three questions are answered exactly, by enumeration:

- does an individually stable partition exist at all;
- from a given start, can some sequence of deviations reach one;
- from a given start, does every sequence of deviations reach one.

Everything here is exponential in the worst case — the point is certified
answers on instances small enough to settle by brute force.  Every
existence strategy builds only stable partitions, by one cover search over
blocks no member would leave (labelled coalitions, or per-type count
vectors for size and two-color games): IS deviations depend only on the
mover's block and the target block, so a block that clashes with one
already placed is rejected.  Every move question, the clash included, is
put to the one move engine, ``dynamics.MoveFinder``; ``core`` is only the
reference oracle the tests check it against.  Answers are deterministic;
``BudgetExhausted`` is returned rather than ever guessing.
"""

from __future__ import annotations

import time
from copy import copy
from dataclasses import dataclass
from itertools import islice, product, tee
from operator import add

from .core import DeviationMove, Partition, canonicalize, successor
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
    """Assemble stable partitions from every block no member would leave.

    Each lowest agent's blocks are listed depth-first, in the order of the
    block's text plus ``"|"``, only as far as the cover search reads them;
    each block is tested once, when it is first reached, and kept when no
    member would rather be alone (``MoveFinder.clash(block, ())``). The
    stable partitions are the clash-free covers by the kept blocks, found
    by ``PrunedFHG``'s search, which stops at its first cover. Games of
    more than ``PARTITION_CAP`` agents are refused before any block is
    tested.
    """


@dataclass(frozen=True)
class TypeReduced:
    """Assemble stable shapes from per-type count vectors (parts) instead
    of labeled partitions.

    Agents with identical preferences (and identical color, for two-color
    games) are interchangeable, so stability depends only on how many of
    each type sit in each coalition.  Shapes are built by ``PrunedFHG``'s
    clash-free cover search over the parts no member would leave, listed
    non-increasing; two parts clash when ``MoveFinder.clash`` finds a move
    between two disjoint blocks of their shapes.  ``states_checked`` counts
    placed parts plus covers.
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
    lowest free agent, tried in text order, so the first cover has the least
    canonical encoding.  Each lowest agent's pool is listed depth-first in
    that order, a forbidden pair cutting off every coalition that holds it,
    and is read only as far as the search needs it.  The free agents are an
    integer bitmask and each pool block is kept as its mask, so a block
    fits when its mask lies inside the free one.  A block is rejected when
    it clashes with a block already placed: a member of either strictly
    gains by joining the other and every member there weakly approves.  The
    move engine (``MoveFinder.clash``) gives each pair's verdict, once per
    pair of blocks in a search, and the clash-free complete covers are
    exactly the stable partitions.
    """


Strategy = Plain | TypeReduced | PrunedFHG

#: strategy classes by the names the CLI and the catalog claims use
STRATEGIES = {
    "plain": Plain,
    "type-reduced": TypeReduced,
    "pruned-fhg": PrunedFHG,
}


# --- answers ----------------------------------------------------------------


@dataclass(frozen=True)
class StableExists:
    witness: Partition


@dataclass(frozen=True)
class NoStablePartition:
    """The whole space was scanned without finding a stable partition.

    ``states_checked`` counts the candidates scanned: for ``Plain`` the
    pool blocks tested plus placed blocks plus complete covers, for
    ``PrunedFHG`` the coalitions its pool listings reached (those with no
    forbidden pair) plus placed blocks plus complete covers, for
    ``TypeReduced`` placed parts plus complete covers.  A pool listing is
    only read as far as some node of the cover search reads it, so a
    block no node reaches is not counted.
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
    """Internal control flow: a search ran out of budget; ``states`` is how
    many states it had accounted for within the budget."""

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

    def tick(self) -> None:
        """Account for one explored state; raise :class:`_BudgetOver` past the budget."""
        self.states += 1
        if self.states > self.budget.max_states:
            raise _BudgetOver("states", self.states - 1)
        if self.states % 1024 == 0 and self.clock() > self.deadline:
            raise _BudgetOver("seconds", self.states - 1)


# --- partition enumeration --------------------------------------------------


def _check_cap(n: int) -> None:
    if n > PARTITION_CAP:
        raise CapExceeded(
            f"enumerating partitions of {n} agents exceeds the cap {PARTITION_CAP}")


def enumerate_partitions(n: int):
    """All partitions of agents 0..n-1, by placement: agent i joins each
    block of agents 0..i-1 in turn, then opens a new one.

    The blocks stay in the order they were opened, that is by lowest member,
    and each grows in agent order, so every partition comes out canonical.
    The order is that of restricted growth strings (agent i's label being
    the index of the block it joins), the grand coalition first.
    """
    if n < 1:
        raise ValueError("need at least one agent")
    _check_cap(n)
    blocks: list[tuple] = []
    last = n - 1

    def place(agent):
        for i in range(len(blocks)):
            block = blocks[i]
            blocks[i] = block + (agent,)
            if agent == last:
                yield Partition._trusted(tuple(blocks), n)
            else:
                yield from place(agent + 1)
            blocks[i] = block
        blocks.append((agent,))
        if agent == last:
            yield Partition._trusted(tuple(blocks), n)
        else:
            yield from place(agent + 1)
        blocks.pop()

    yield from place(0)


# --- existence of a stable partition ----------------------------------------


def exists_is_partition(
    game, strategy: Strategy = Plain(), budget: SearchBudget = SearchBudget()
) -> ExistenceAnswer:
    """Search the partition space for an individually stable partition.

    The witness is the stable partition with the least canonical encoding.
    ``Plain`` and ``PrunedFHG`` return their first cover, which is that one,
    or ``BudgetExhausted``, whatever the budget; ``TypeReduced`` keeps the
    least of its covers and, if the budget runs out after one, returns the
    least seen. The witness is put to ``MoveFinder.has_move`` before it is
    returned, a check that does not rest on the clash rule the covers were
    built by; a witness with a move raises ``RuntimeError``.
    """
    meter = _Meter(budget)
    finder = MoveFinder(game)
    best: Partition | None = None
    try:
        if isinstance(strategy, TypeReduced):
            types = _agent_types(game)
            for shape in _type_reduced_shapes(game, types, finder, meter):
                partition = Partition(_fill_shape(types, shape))
                if best is None or canonicalize(partition) < canonicalize(best):
                    best = partition
        else:
            covers = (_pruned_fhg_candidates if isinstance(strategy, PrunedFHG)
                      else _plain_candidates)
            best = next(covers(game, finder, meter), None)
    except _BudgetOver as over:
        if best is None:
            return BudgetExhausted(over.limit, over.states)
    if best is None:
        return NoStablePartition(meter.states)
    if finder.has_move(best):
        raise RuntimeError(f"internal error: the search's witness {best} has a move")
    return StableExists(best)


def _plain_candidates(game, finder: MoveFinder, meter: _Meter):
    """The IS-stable partitions, as clash-free covers by the blocks no
    member would leave (see ``Plain``)."""
    _check_cap(game.n)
    listings = _plain_listings(game, finder, meter)
    yield from _labelled_covers(game.n, listings, finder, meter)


def _plain_listings(game, finder: MoveFinder, meter: _Meter) -> list:
    """The ``_pool_listings`` of the blocks no member would leave; each
    block tested ticks ``meter``."""

    def grow(_, block, mask):
        return None, not finder.clash(block, ())

    return _pool_listings(game.n, grow, None, meter)


def _covers(width: int, first, options, clash, meter: _Meter):
    """Covers by blocks no two of which clash (Knuth's Algorithm X with the
    clash test as its pruning rule), as tuples of the blocks' ids.

    ``options(rest)`` lists the ids, integers below ``width``, of the
    blocks that may be placed while ``rest`` is left to cover, each with
    what is left after it (``None`` once covered).  ``clash(a, b)`` is
    asked of the ids of two blocks, ``a`` placed first, once per pair.
    Each placed block and each complete cover ticks ``meter``.
    """
    known: dict[int, bool] = {}  # by `earlier * width + later`
    placed: list[int] = []
    # per depth, the options not yet tried there; a loop rather than
    # recursion, so that no closure refers to itself and the search's
    # state is freed as soon as it is dropped, not at the next collection
    stack = [options(first)]
    while stack:
        for at, left in stack[-1]:
            for other in placed:
                pair = other * width + at
                hit = known.get(pair)
                if hit is None:
                    hit = known[pair] = clash(other, at)
                if hit:
                    break
            else:
                meter.tick()
                placed.append(at)
                if left is not None:
                    stack.append(options(left))
                    break
                meter.tick()
                yield tuple(placed)
                placed.pop()
        else:
            stack.pop()
            if placed:
                placed.pop()


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


def _fill_shape(types: list[list[int]], parts) -> list[tuple[int, ...]]:
    """Disjoint labeled blocks realizing per-type count vectors: each part
    takes the lowest agents of every type that no earlier part took."""
    pools = [iter(group) for group in types]
    blocks = []
    for part in parts:
        members: list[int] = []
        for pool, count in zip(pools, part):
            members.extend(islice(pool, count))
        blocks.append(tuple(sorted(members)))
    return blocks


def _type_reduced_shapes(game, types: list[list[int]], finder: MoveFinder,
                         meter: _Meter):
    """The IS-stable shapes (see ``TypeReduced``).  Agents of one type are
    interchangeable, so a part is tested on the block ``_fill_shape`` gives
    it and a pair of parts on two disjoint such blocks."""
    counts = tuple(len(group) for group in types)
    parts = product(*(range(c, -1, -1) for c in counts))  # decreasing
    alone = lambda part: finder.clash(*_fill_shape(types, [part]), ())
    pool = [part for part in parts if any(part) and not alone(part)]

    def options(rest):
        # parts no larger than the last one placed (pool order from
        # ``start``) that hold the first type left: every later part is no
        # larger, so none of them could hold it
        left, start = rest
        first = next(t for t, c in enumerate(left) if c)
        for at in range(start, len(pool)):
            part = pool[at]
            if part[first] and all(p <= c for p, c in zip(part, left)):
                after = tuple(c - p for c, p in zip(left, part))
                yield at, ((after, at) if any(after) else None)

    clash = lambda p, q: finder.clash(*_fill_shape(types, (pool[p], pool[q])))
    for cover in _covers(len(pool), (counts, 0), options, clash, meter):
        yield tuple(map(pool.__getitem__, cover))


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


def tolerable_coalitions(game: FractionalGame, meter: _Meter):
    """All coalitions in which every member's weight sum is nonnegative, as
    sorted member tuples in increasing order (a coalition before its
    extensions); each state of the enumeration ticks ``meter``."""
    listings = _tolerable_listings(game, meter)
    return sorted(_members(mask) for listing in listings for mask in listing)


def _tolerable_listings(game: FractionalGame, meter: _Meter) -> list:
    """The ``_pool_listings`` of the tolerable coalitions.

    A coalition holding a forbidden pair is cut off with every coalition it
    extends to; the nonnegativity test itself is not monotone (a negative
    member may be rescued by a later joiner), so it only decides whether a
    coalition is listed.  The sums are one vector over all agents, each
    joiner's column added to its block's.
    """
    n = game.n
    columns = tuple(zip(*game.weights))  # [x][a]: a's weight toward x
    forbid = [0] * n  # per agent, the agents it may not share a coalition with
    for i, j in forbidden_pairs(game):
        forbid[i] |= 1 << j
        forbid[j] |= 1 << i

    def grow(toward, block, mask):
        joiner = block[-1]
        if forbid[joiner] & mask:
            return None
        toward = list(map(add, toward, columns[joiner]))
        return toward, min(map(toward.__getitem__, block)) >= 0

    return _pool_listings(n, grow, [0] * n, meter)


def _pruned_fhg_candidates(game, finder: MoveFinder, meter: _Meter):
    """The IS-stable partitions, as clash-free covers by tolerable
    coalitions (see ``PrunedFHG``)."""
    if not isinstance(game, FractionalGame):
        raise ValueError("coalition pruning needs a weighted-average game")
    listings = _tolerable_listings(game, meter)
    yield from _labelled_covers(game.n, listings, finder, meter)


def _members(mask: int) -> tuple[int, ...]:
    """The agents of the bitmask ``mask``, ascending."""
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def _pool_listings(n: int, grow, root, meter: _Meter) -> list:
    """Per lowest agent, an iterator of its pool blocks, as agent bitmasks,
    in the order of their text plus ``"|"`` (see ``_labelled_covers``).

    Each is listed depth-first.  Below a block whose highest agent is x,
    each agent y above x gives two steps: a descent into the blocks that
    extend the block plus y, keyed ``str(y) + ","``, and the block plus y
    itself, keyed ``str(y) + "|"``, taken in key order.  The keys are
    prefix-free, and ``","`` sorts below the digits and ``"|"`` above them,
    so "0,1,10" comes before "0,1,2" and every extension of a block before
    the block.  A descent into ``block`` asks ``grow(state, block, mask)``
    of the state of the block it extends by one agent (``root`` for the
    empty one): ``None`` cuts ``block`` off with every block it extends to,
    else it gives ``block``'s state and whether ``block`` is in the pool,
    and the descent ticks ``meter``.
    """
    keys = sorted((str(y) + sep, y, sep == "|") for y in range(n) for sep in ",|")
    orders: dict[int, list] = {}  # per agent x, the steps above it

    def above(x):
        order = orders.get(x)
        if order is None:
            order = orders[x] = [(y, emit) for _, y, emit in keys if y > x]
        return order

    def listing(low):
        # frames: (block, its mask, its state, the agents y for which the
        # block plus y is kept, the steps left); the empty block's only
        # steps are to `low`
        stack = [((), 0, root, set(), iter(((low, False), (low, True))))]
        while stack:
            block, mask, state, kept, todo = stack[-1]
            for y, emit in todo:
                if emit:
                    if y in kept:
                        yield mask | 1 << y
                    continue
                bigger, more = block + (y,), mask | 1 << y
                grown = grow(state, bigger, more)
                if grown is not None:
                    meter.tick()
                    if grown[1]:
                        kept.add(y)
                    stack.append((bigger, more, grown[0], set(), iter(above(y))))
                    break
            else:
                stack.pop()

    return [listing(low) for low in range(n)]


def _labelled_covers(n: int, listings, finder: MoveFinder, meter: _Meter):
    """The clash-free covers of agents ``0..n-1`` by the pool blocks of
    ``listings`` (per lowest agent, an iterator of its blocks as agent
    bitmasks, in the order of their text plus ``"|"``), as partitions, in
    increasing ``canonicalize`` order: each block placed holds the lowest
    agent left, and is tried in the order of its text plus ``"|"``, as in
    the encoding.  A cover's last block has no ``"|"`` after it (``"|"``
    sorts above ``","`` and the digits), but it holds every agent left, so
    no sibling option's text extends its own.

    Each agent's listing is read only as far as the search reads it: a
    ``tee`` whose first copy is never advanced keeps every block any copy
    has read, one list per agent, grown by its furthest reader and read
    from the start by every node.  A block fits when its mask lies inside
    the free agents' mask; member tuples are made only for clash tests and
    covers.
    """
    pools = [tee(listing, 1)[0] for listing in listings]

    def options(free):
        for mask in copy(pools[(free & -free).bit_length() - 1]):
            if mask & free == mask:
                yield mask, free ^ mask or None

    clash = lambda a, b: finder.clash(_members(a), _members(b))
    for cover in _covers(1 << n, (1 << n) - 1, options, clash, meter):
        yield Partition._trusted(tuple(map(_members, cover)), n)


# --- reachability -----------------------------------------------------------


def _expansion(table, mover: int, made: tuple):
    """The successors of ``table``'s partition a search builds, as ``(blocks
    after, agent, target, blocks the move made)``, in the canonical order of
    their moves: ascending agent, then row order.  The state was entered by
    ``mover``'s move (``-1``: the start), which made the blocks ``made``.

    A move by an agent below ``mover`` that touches neither made block
    (``()`` is none) is left out, a sleep set one level deep (Godefroid
    1996).  It was a move at the parent too, listed before ``mover``'s, and
    commutes with it, so the state it leads to was reached first: the BFS
    expanded the parent's successor by it before this state (and there
    ``mover``'s move was built, or left out by the same rule), and the DFS
    finished that successor's subtree (a state on the stack there would
    have ended the search).  No visited state, count, witness or lasso
    changes.
    """
    blocks, rows = table.partition.blocks, table.rows
    # each agent's block, kept only while the state is listed
    home = [()] * len(rows)
    for block in blocks:
        for agent in block:
            home[agent] = block
    for agent, row in enumerate(rows):
        cur = home[agent]
        asleep = agent < mover and cur not in made
        for target in row:
            if not asleep or target in made:
                post, remainder, joined = successor(blocks, cur, agent, target)
                yield (post, agent, target,
                       (remainder, joined) if remainder else (joined,))


def _moves_to(links: dict, blocks: tuple) -> list:
    """The moves from the start to ``blocks``, read back through ``links``."""
    steps = []
    while links[blocks] is not None:
        blocks, agent, target = links[blocks]
        steps.append(DeviationMove(agent, target))
    steps.reverse()
    return steps


def exists_path_to_is(
    game, start: Partition, budget: SearchBudget = SearchBudget()
) -> ReachabilityAnswer:
    """Breadth-first search of the reachable deviation graph; the first
    stable partition dequeued yields a shortest witness path.

    States are keyed by their block tuple, which ``core.successor`` keeps
    canonical, and linked to the state they were first reached from; a new
    one is queued with its parent's move table, from which its own is
    patched when it is dequeued, and its successors are made by
    :func:`_expansion`.  ``DeviationMove``s are built only for the witness.
    """
    if start.n != game.n:
        raise ValueError(f"the start has {start.n} agents, the game {game.n}")
    finder = MoveFinder(game)
    meter = _Meter(budget)
    # per state, the link it was first reached by: (parent's blocks, agent,
    # target), or None for the start
    links: dict[tuple, tuple | None] = {start.blocks: None}
    # (blocks, the parent's move table, the agent that moved there, the
    # blocks its move made); the start was entered by no agent
    queue: list[tuple | None] = [(start.blocks, None, -1, ())]
    try:
        meter.tick()
        # the loop reads the states appended while it runs
        for head, (blocks, base, mover, made) in enumerate(queue):
            # the path is rebuilt from `links` alone, and a table is
            # freed once the last of its children has been dequeued
            queue[head] = None
            table = finder.table(Partition._trusted(blocks, start.n), base)
            if not table.count:
                return PathFound(replay(game, start, _moves_to(links, blocks)))
            for post, agent, target, post_made in _expansion(table, mover, made):
                if post in links:
                    continue
                meter.tick()
                links[post] = (blocks, agent, target)
                queue.append((post, table, agent, post_made))
    except _BudgetOver as over:
        return BudgetExhausted(over.limit, over.states)
    return NoPath(len(links))


def all_paths_converge(
    game, start: Partition, budget: SearchBudget = SearchBudget()
) -> ReachabilityAnswer:
    """Depth-first search for a directed cycle among reachable partitions.

    Every partition has finitely many deviations, so some run fails to
    terminate exactly when a cycle is reachable; the answer then carries a
    lasso: a path from the start followed by one loop around the cycle.
    States are keyed by block tuple and linked as in
    :func:`exists_path_to_is`; a finished state's link is set to ``None``.  A
    new state's move table is patched from its parent's, and its successors
    are made by :func:`_expansion`, suspended on the stack while its
    subtree is searched.  ``DeviationMove``s are built only for a lasso.
    """
    if start.n != game.n:
        raise ValueError(f"the start has {start.n} agents, the game {game.n}")
    finder = MoveFinder(game)
    meter = _Meter(budget)
    links: dict[tuple, tuple | None] = {start.blocks: None}
    depth = {start.blocks: 0}  # the states on the stack
    try:
        meter.tick()
        table = finder.table(start)
        # stack frames: (blocks, move table, its expansion)
        stack = [(start.blocks, table, _expansion(table, -1, ()))]
        while stack:
            blocks, table, moves = stack[-1]
            for post, agent, target, made in moves:
                if post in depth:
                    # lasso: the path to `post` is the prefix, the rest of
                    # the stack plus this move closes the cycle
                    steps = _moves_to(links, blocks) + [DeviationMove(agent, target)]
                    return CycleReachable(replay(game, start, steps),
                                          depth[post], len(steps) - depth[post])
                if post in links:
                    continue
                meter.tick()
                links[post] = (blocks, agent, target)
                depth[post] = len(stack)
                child = finder.table(Partition._trusted(post, start.n), table)
                stack.append((post, child, _expansion(child, agent, made)))
                break
            else:
                # finished: only a lasso reads links, and only on the stack
                links[blocks] = None
                del depth[blocks]
                stack.pop()
    except _BudgetOver as over:
        return BudgetExhausted(over.limit, over.states)
    return ConvergesAlways(len(links))
