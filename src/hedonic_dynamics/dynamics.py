"""Deviation dynamics: schedulers, traces, replay, and the solitary filter.

A run repeatedly picks an individually-stable deviation (strict improvement
for the mover, weak approval from everyone being joined) and applies it.
The scheduler is pluggable; every move is checked with the plain
predicates from :mod:`hedonic_dynamics.core` before it is applied, so a bug
in the fast move enumeration below cannot silently corrupt a trace.  Runs,
replays and trace validation share that one checked step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import add, and_, countOf, ge, gt, mul
from typing import Iterator, Sequence

from . import core
from .core import (
    DeviationMove,
    Partition,
    StabilityKind,
    apply,
    deviation_failure,
)
from .games import (
    AnonymousGame,
    Color,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    distinct_orders,
)
from .prng import SplitMix64


class DynamicsError(RuntimeError):
    pass


class ScriptedMoveInvalid(DynamicsError):
    """A scripted move is not an individually-stable deviation where it occurs."""

    def __init__(self, step_index: int, reason: str):
        super().__init__(f"scripted move at step {step_index} is invalid: {reason}")
        self.step_index = step_index
        self.reason = reason


class FilterStarvation(DynamicsError):
    """Deviations exist but the active filter rejects all of them.

    Deliberately distinct from convergence: the state is *not* stable.
    """

    def __init__(self, step_index: int):
        super().__init__(
            f"at step {step_index} every available deviation is rejected by the filter"
        )
        self.step_index = step_index


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lexicographic:
    """First deviation in the fixed enumeration order.

    The order (ascending mover id, then target coalitions as listed in the
    canonical partition, then the fresh singleton) is an arbitrary but frozen
    convention; nothing downstream may depend on which admissible deviation
    gets picked, only on the choice being reproducible.
    """


@dataclass(frozen=True)
class SeededRandom:
    """Uniform choice among admissible deviations, driven by splitmix64."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class Scripted:
    """Play back a fixed move list, validating each move where it occurs."""

    moves: tuple[DeviationMove, ...]

    def __init__(self, moves: Sequence[DeviationMove]):
        object.__setattr__(self, "moves", tuple(moves))


@dataclass(frozen=True)
class Filtered:
    """The solitary-homogeneity filter over a base policy: it rejects any move
    whose target coalition would be single-colored after the join; founding a
    fresh singleton is always allowed."""

    base: "Policy"


Policy = Lexicographic | SeededRandom | Scripted | Filtered


@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 1_000_000
    #: monitor factories (see hedonic_dynamics.potentials); each is called
    #: as factory(game, start) and consulted read-only after every step
    monitors: tuple = ()

    def __post_init__(self):
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")


# ---------------------------------------------------------------------------
# traces and outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    move: DeviationMove
    result: Partition
    readings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Trace:
    start: Partition
    steps: tuple[TraceStep, ...]
    start_readings: dict = field(default_factory=dict)

    @property
    def final(self) -> Partition:
        return self.steps[-1].result if self.steps else self.start

    @property
    def moves(self) -> tuple[DeviationMove, ...]:
        return tuple(s.move for s in self.steps)

    def states(self) -> list[Partition]:
        return [self.start] + [s.result for s in self.steps]

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class Converged:
    final: Partition
    steps: int
    trace: Trace


@dataclass(frozen=True)
class CycleDetected:
    prefix_len: int
    cycle_len: int
    witness: Trace


@dataclass(frozen=True)
class StepLimitReached:
    trace: Trace


RunOutcome = Converged | CycleDetected | StepLimitReached


@dataclass(frozen=True)
class Script:
    """A stored move sequence together with the partition it starts from."""

    start: Partition
    moves: tuple[DeviationMove, ...]
    note: str = ""


# ---------------------------------------------------------------------------
# fast enumeration of individually-stable deviations
# ---------------------------------------------------------------------------


class _Memo(dict):
    """Dict that fills a missing entry with ``fn(key)``, once per key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _PerAgentRules:
    """The table queries of ``MoveFinder._patch``, answered by the rule
    set's per-agent target test: a born block is put to every agent whose
    own block stayed, one agent at a time.

    ``holders`` is the one column query on the base table: it must name
    every agent whose base row may hold a vanished block (a superset is
    fine, and may include agents whose own block vanished too). It is asked
    after ``rebase`` and before ``settle``, while the rule set still
    describes the base. Here it names every agent.
    """

    def rebase(self, blocks):
        """The finder is patching from a table other than its last one,
        whose partition has the blocks ``blocks``."""

    def holders(self, blocks, gone):
        """Agents whose row in the base table, of the blocks ``blocks``,
        may hold a block of ``gone``."""
        return (agent for block in blocks for agent in block)

    def settle(self, gone, fresh):
        """The finder's table is moving to a partition that lost the blocks
        ``gone`` and gained the blocks ``fresh`` (``{block: key}``)."""

    def row(self, agent, cur, here, blocks, keys):
        """The blocks of ``blocks`` that ``agent`` may join, in order."""
        return tuple(self.targets(agent, cur, here, blocks, keys))

    def joiners(self, blocks, keys, fresh):
        """Per block of ``fresh``, in order, the agents outside the blocks of
        ``fresh`` that may join it; asked only when some block of
        ``blocks`` is not in ``fresh``."""
        found = {block: [] for block in fresh}
        new, new_keys = list(fresh), list(fresh.values())
        targets = self.targets
        for cur, here in zip(blocks, keys):
            if cur not in fresh:
                for agent in cur:
                    for block in targets(agent, cur, here, new, new_keys):
                        found[block].append(agent)
        return found.values()


class _Keyless:
    """The keys of a rule set whose blocks have none: ``keys[block]`` is
    ``None``."""

    __slots__ = ()

    def __getitem__(self, block):
        return None


class _SummaryRules(_PerAgentRules):
    """Anonymous and diversity games rank a coalition only by a summary of
    it, its block key: the mover's gain is evaluated once per own key and
    target key, the members' welcome once per block and mover colour (0
    or 1).

    ``ranks[agent](key)`` is the agent's rank of a block key (lower means
    preferred), and ``joined(key, colour)`` the key once an agent of that
    colour joins; the fresh singleton ``()`` is keyed like any block. Keys
    and welcome flags are memos: ``settle`` drops those of the blocks that
    leave the base table, so they follow the table, not the run's length.

    Rows and joiners are asked by key, not per block. Per table and mover
    colour, ``row`` takes once the candidates that welcome that colour;
    the agents of the colour whose gains agree on those candidates' keys
    (their signature) share one row, built once and cut at each agent's
    own block, so a first table from singletons, with a handful of keys,
    costs O(n) lookups plus one scan per signature. ``joiners`` looks up
    each staying agent's gains once and puts each born block to it as a
    welcome flag and a key. No gain or welcome is asked for a join that
    cannot happen: a block holding every agent of the mover's colour is
    left out of that colour's candidates.
    """

    def __init__(self, game, colour, key, ranks, joined):
        self.ranks = ranks
        self.colour = colour
        self.joined = joined
        self.keys = _Memo(key)
        # `welcome` is static, so no memo refers back to the rule set: its
        # memos are freed with the finder, not at the next cycle collection
        self.welcomed = tuple(
            _Memo(partial(self.welcome, self.keys, ranks, joined, colour=c)) for c in (0, 1))
        #: per agent, per own block key it has had: its gains by target
        #: key. An agent's own key comes back, over a search's partitions
        #: above all, so a memo is kept when the key changes; at most n per
        #: agent, as many as a size game has own keys, so ratio keys, of
        #: which there are O(n²), cannot make them grow along a long run.
        self.gains = tuple({} for _ in range(game.n))
        #: the number of agents of each colour
        self.total = (game.n - sum(colour), sum(colour))
        #: per mover colour, the current table's welcoming candidates and
        #: shared rows (see `row`); emptied by `settle`
        self.shared = {}

    def settle(self, gone, fresh):
        # keys and welcome flags are pure memos, remade on demand should a
        # block come back; a block may be missing here, if a table patched
        # from another base dropped it already
        keys, welcomed = self.keys, self.welcomed
        for block in gone:
            keys.pop(block, None)
            for memo in welcomed:
                memo.pop(block, None)
        self.shared.clear()

    @staticmethod
    def welcome(keys, ranks, joined, block, colour):
        key = keys[block]
        post = joined(key, colour)
        return all(ranks[m](post) <= ranks[m](key) for m in block)

    def _gains(self, agent, here):
        """``gains[agent][here]``, made: whether ``agent``, in a block keyed
        ``here``, gains by joining a block, by that block's key.  An agent
        that has n memos already starts afresh."""
        rank, colour, joined = self.ranks[agent], self.colour[agent], self.joined
        now = rank(here)
        mine = self.gains[agent]
        if len(mine) == len(self.gains):
            mine.clear()
        # lazy, and asked only of keys that an agent of the mover's colour
        # can join (see `_welcoming`): any other key plus one member can
        # fall outside the order's domain (size n + 1)
        gains = mine[here] = _Memo(lambda key: rank(joined(key, colour)) < now)
        return gains

    def targets(self, agent, cur, here, blocks, keys):
        try:
            gains = self.gains[agent][here]
        except KeyError:
            gains = self._gains(agent, here)
        welcomed = self.welcomed[self.colour[agent]]
        return (
            b for b, key in zip(blocks, keys)
            if b is not cur and welcomed[b] and gains[key]
        )

    def _welcoming(self, c, cur, blocks, keys):
        """The table's view for the agents of colour ``c``: the candidates
        of ``blocks`` (keyed ``keys``) that welcome such an agent, their
        keys, those keys once each, in order, and an empty dict for the
        shared rows. ``cur``, the own block of such an agent, is left out
        if it holds them all, as no agent can then join it; any other
        candidate's key joined by colour ``c`` is that of a coalition, so
        its gains and welcome are in the orders' domain."""
        reds = sum(map(self.colour.__getitem__, cur))
        if (reds if c else len(cur) - reds) == self.total[c]:
            at = blocks.index(cur)
            blocks, keys = blocks[:at] + blocks[at + 1:], keys[:at] + keys[at + 1:]
        flags = list(map(self.welcomed[c].__getitem__, blocks))
        keys = list(compress(keys, flags))
        return list(compress(blocks, flags)), keys, list(dict.fromkeys(keys)), {}

    @staticmethod
    def _shared_row(signature, blocks, keys, distinct):
        """The blocks of ``blocks``, keyed ``keys``, whose key gains by
        ``signature``: a flag per key of ``distinct``."""
        gains = dict(zip(distinct, signature))
        return tuple(compress(blocks, map(gains.__getitem__, keys)))

    def row(self, agent, cur, here, blocks, keys):
        # `blocks` and `keys` are the table's candidates, the same for every
        # row asked between two `settle`s
        c = self.colour[agent]
        try:
            welcoming, their_keys, distinct, rows = self.shared[c]
        except KeyError:
            welcoming, their_keys, distinct, rows = self.shared[c] = self._welcoming(
                c, cur, blocks, keys)
        try:
            gains = self.gains[agent][here]
        except KeyError:
            gains = self._gains(agent, here)
        # a byte per key: a bytes object caches its hash, and a tuple built
        # from an iterator would be resized, which fills the tuple free lists
        signature = bytes(map(gains.__getitem__, distinct))
        try:
            row = rows[signature]
        except KeyError:
            row = rows[signature] = self._shared_row(signature, welcoming, their_keys, distinct)
        # `()` sorts before every block: the bisect stops before a closing `()`
        end = len(row) - (not row[-1]) if row else 0
        at = bisect_left(row, cur, 0, end)
        if at < end and row[at] == cur:
            # one copy to cut from, not two slices: as many large tuples made
            # and dropped per row left the heap measurably larger
            row = list(row)
            del row[at]
            return tuple(row)
        return row

    def joiners(self, blocks, keys, fresh):
        found = {block: [] for block in fresh}
        gains, colour, welcomed = self.gains, self.colour, self.welcomed
        # per mover colour, the born blocks that welcome it, asked for the
        # first staying agent of the colour, which is outside all of them
        welcoming = {}
        for cur, here in zip(blocks, keys):
            if cur in fresh:
                continue
            for agent in cur:
                c = colour[agent]
                try:
                    born = welcoming[c]
                except KeyError:
                    flags = welcomed[c]
                    born = welcoming[c] = [(b, key) for b, key in fresh.items() if flags[b]]
                try:
                    mine = gains[agent][here]
                except KeyError:
                    mine = self._gains(agent, here)
                for block, key in born:
                    if mine[key]:
                        found[block].append(agent)
        return found.values()


def _size_rules(game):
    return _SummaryRules(
        game,
        colour=(0,) * game.n,  # sizes ignore colour
        key=len,
        ranks=tuple(order.rank for order in game.orders),
        joined=lambda size, colour: size + 1,
    )


def _ratio_rules(game):
    """Ratio keys are integer ``(reds, size)`` pairs; each order object ranks
    a pair's ``Fraction`` once, through one memo shared by its agents."""
    red = tuple(int(c is Color.RED) for c in game.colors)
    memos = {
        id(order): _Memo(lambda key, rank=order.rank: rank(Fraction(*key)))
        for order in distinct_orders(game)
    }
    return _SummaryRules(
        game,
        colour=red,
        key=lambda block: (sum(map(red.__getitem__, block)), len(block)),
        ranks=tuple(memos[id(order)].__getitem__ for order in game.orders),
        joined=lambda key, colour: (key[0] + colour, key[1] + 1),
    )


class _AverageRules(_PerAgentRules):
    """Fractional games: a block's key is its record ``(sums, flags)``,
    indexed by agent: ``sums[a]`` is agent a's weight sum toward the block,
    and ``flags[a]`` (a ``bytes`` flag) whether every member keeps its
    average when a joins. ``has_move`` and the finder's table read the same
    records, so an (agent, block) pair is one lookup in each vector; the
    records of blocks that leave the base table are dropped by ``settle``;
    the fresh singleton ``()`` has a constant record (no weight, everyone
    welcome), which is never dropped. In a run the base is always the last
    table, so the records are those of the live blocks. In a search the
    base is a parent's table: the records of blocks seen in other states
    stay, so they grow with the blocks the search meets, and a dropped
    record that a later base still holds is made again by ``rebase``.

    Per agent it also keeps the size of its own block and its weight sum
    toward it, so a block is tested against all agents at once, column by
    column: a born block for its joiners, a vanished one for its holders.
    Those vectors follow the table the finder patches from: ``rebase``
    re-derives them when that is not the last one built.
    """

    def __init__(self, game):
        weights = game.weights
        #: columns[x][a] is agent a's weight toward agent x
        columns = tuple(zip(*weights))
        whole = tuple({int}.issuperset(map(type, row)) for row in weights)
        # `record` is static, so the memo does not refer back to the rule set
        self.keys = _Memo(partial(self.record, weights, columns, whole))
        self.keys[()] = (0,) * game.n, b"\1" * game.n
        # filled by `settle` for every agent the first time the table is
        # built, and by `rebase`
        self.size = [0] * game.n
        self.have = [0] * game.n

    @staticmethod
    def record(weights, columns, whole, block):
        s = len(block)
        sums = columns[block[0]]
        for x in block[1:]:
            sums = list(map(add, sums, columns[x]))
        # member m keeps its average iff w(m, agent) >= sum / s: one
        # threshold per member, ⌈sum / s⌉ if m's whole row is int (the sum
        # may be an int on a row that is not), else the exact fraction.
        # The flags of the members are and-ed as integers, a byte per agent
        flags = -1
        for m in block:
            total = sums[m]
            least = -(-total // s) if whole[m] else Fraction(total, s)
            flags &= int.from_bytes(bytes(map(ge, weights[m], repeat(least))), "little")
        return sums, flags.to_bytes(len(sums), "little")

    def targets(self, agent, cur, here, blocks, keys):
        size, have = len(cur), here[0][agent]
        # strict gain: sum over b / (len(b) + 1) > have / size
        return (
            b for b, (sums, flags) in zip(blocks, keys)
            if b is not cur
            and flags[agent]
            and sums[agent] * size > have * (len(b) + 1)
        )

    def column(self, block, sums, flags):
        """The agents, ascending, that ``block``'s members welcome and that
        gain by joining it, by the ``size`` and ``have`` vectors; a member
        of ``block`` may be among them."""
        # strict gain, for every agent at once: sum * size > have * (len + 1)
        gains = map(gt, map(mul, sums, self.size),
                    map(mul, self.have, repeat(len(block) + 1)))
        return compress(range(len(flags)), map(and_, flags, gains))

    def rebase(self, blocks):
        keys, size, have = self.keys, self.size, self.have
        for block in blocks:
            sums, s = keys[block][0], len(block)
            for agent in block:
                size[agent], have[agent] = s, sums[agent]

    def holders(self, blocks, gone):
        # asked before `settle`: `size`, `have` and the gone records are
        # still the base's, so the agents that may join a gone block are its
        # column, which may name some of its own members too
        keys, column = self.keys, self.column
        return {agent for block in gone for agent in column(block, *keys[block])}

    def settle(self, gone, fresh):
        # every gone block has its record: it is a block of the base table,
        # which is the last one built or has been through `rebase`
        for block in gone:
            del self.keys[block]
        for block, (sums, _) in fresh.items():
            for agent in block:
                self.size[agent], self.have[agent] = len(block), sums[agent]

    def joiners(self, blocks, keys, fresh):
        moved = {agent for block in fresh for agent in block}
        return [
            [agent for agent in self.column(block, *key) if agent not in moved]
            for block, key in fresh.items()
        ]


class _ApprovalRules(_PerAgentRules):
    """Dichotomous games: the block key is the members who approve the block,
    the only ones who can object to a newcomer.

    Both questions are lookups in two indexes built once: ``wanted[agent]``
    maps each block the agent would approve once it joins it (an approved
    coalition minus the agent; ``()`` if it approves its singleton) to that
    coalition, and ``wanting[block]`` lists, ascending, the agents that want
    the block. No wanted block holds its agent, so an agent never wants its
    own block.
    """

    def __init__(self, game):
        self.approvals = game.approvals
        # `key` is static, so the memo does not refer back to the rule set
        self.keys = _Memo(partial(self.key, game.approvals))
        self.wanted = tuple(
            {tuple(m for m in c if m != agent): c for c in family}
            for agent, family in enumerate(game.approvals)
        )
        wanting: dict = {}
        for agent, wanted in enumerate(self.wanted):
            for block in wanted:
                wanting.setdefault(block, []).append(agent)
        self.wanting = wanting

    @staticmethod
    def key(approvals, block):
        return tuple(m for m in block if block in approvals[m])

    def holders(self, blocks, gone):
        # only an agent that wants a block may join it
        wanting = self.wanting
        return {agent for block in gone for agent in wanting.get(block, ())}

    def targets(self, agent, cur, here, blocks, keys):
        wanted = self.wanted[agent]
        if not wanted or agent in here:
            return ()  # approves nothing, or already at top utility
        approvals = self.approvals
        return (
            b for b, key in zip(blocks, keys)
            if b in wanted and all(wanted[b] in approvals[m] for m in key)
        )

    def joiners(self, blocks, keys, fresh):
        # the agents that approve their own block, who cannot gain: read off
        # the `keys` given, never kept across calls, so that it holds for
        # whichever table the finder patches from
        content = {m for key in keys for m in key}
        moved = {agent for block in fresh for agent in block}
        approvals, wanted, wanting = self.approvals, self.wanted, self.wanting
        return [
            [
                agent for agent in wanting.get(block, ())
                if agent not in moved and agent not in content
                and all(wanted[agent][block] in approvals[m] for m in key)
            ]
            for block, key in fresh.items()
        ]


class _VerdictRules(_PerAgentRules):
    """Any other game type, a subclass included (it may override ``prefers``):
    each (agent, block) pair is put to ``core.deviation_verdict``."""

    keys = _Keyless()

    def __init__(self, game):
        self.verdict = partial(core.deviation_verdict, game, kind=StabilityKind.IS)

    def targets(self, agent, cur, here, blocks, keys):
        return (b for b in blocks if b is not cur and self.verdict(agent, cur, b) is None)


_RULES = {
    AnonymousGame: _size_rules,
    DiversityGame: _ratio_rules,
    FractionalGame: _AverageRules,
    DichotomousGame: _ApprovalRules,
}


class MoveTable:
    """The IS moves of one partition, in the canonical order: ``rows[agent]``
    holds the blocks the agent may join, in the partition's order, then
    ``()`` if it may found a fresh singleton.

    A table is never changed once built (the finder copies the rows it
    updates), so an iterator over it stays valid after the finder has moved
    on to other partitions.
    """

    __slots__ = ("partition", "rows", "count")

    def __init__(self, partition: Partition, rows: list):
        self.partition = partition
        self.rows = rows
        self.count = sum(map(len, rows))

    def __iter__(self) -> Iterator[DeviationMove]:
        for agent, row in enumerate(self.rows):
            for block in row:
                yield DeviationMove._trusted(agent, block)

    def nth(self, k: int) -> DeviationMove:
        """``list(self)[k]``, without building the other moves."""
        if not 0 <= k < self.count:
            raise IndexError(f"move {k} of a table of {self.count}")
        for agent, row in enumerate(self.rows):
            if k < len(row):
                return DeviationMove._trusted(agent, row[k])
            k -= len(row)


class MoveFinder:
    """Lists IS deviations in the canonical order: ascending agent, then
    target blocks as the partition lists them, then the fresh singleton.

    The fresh singleton is the empty block ``()``, which welcomes everyone;
    it is every agent's last candidate target, so one question, whether an
    agent may join a candidate, serves the table and ``has_move`` alike (a
    singleton never gains by it: its fresh singleton is the block it is in).
    One engine serves every game through a rule set, one per game class
    (exact type; any other type asks ``core.deviation_verdict``): a block
    key cached across steps, and the candidates a mover gains by joining
    and whose members welcome it. A weight game's key is the block's record
    of weight sums and welcome flags over all agents, read alike by
    ``has_move`` and the table. Since preferences are hedonic,
    whether an agent may join a block depends on its own block and that
    block only. So a table is patched from a base table, by default the
    last one the finder built (a search passes each state's parent's): only
    the rows of agents whose block is new are rebuilt. The vanished blocks
    leave the rows of the agents the rule set names as their holders, a
    superset of those whose base row holds one (the column of a weight
    game's record, the agents an approval game's index says want the
    block, every agent otherwise); each row gains each new block the rule
    set admits it to, the rule set being asked once per new block which
    agents outside the new blocks may join it. A partition with no block
    in common with the base has every row rebuilt, which is a fresh build
    from empty rows: no base row is kept and no agent is outside the new
    blocks, so the rule set is asked for neither holders nor joiners.
    The output must equal ``core.iter_deviations(game, partition, IS)``; a
    property test checks it.
    """

    def __init__(self, game):
        self.game = game
        # exact-type dispatch: a subclass may override `prefers`, so only
        # the verdict rules are sure to agree with it
        self._rules = _RULES.get(type(game), _VerdictRules)(game)
        self._last: MoveTable | None = None

    def iter_moves(self, partition: Partition) -> Iterator[DeviationMove]:
        """The moves of ``partition`` in order, built one at a time from
        its :meth:`table`; the searches read the table's rows instead."""
        yield from self.table(partition)

    def has_move(self, partition: Partition) -> bool:
        """Whether ``partition`` has a move; stops at the first mover found."""
        targets, key_of = self._rules.targets, self._rules.keys
        # one candidate tuple, the fresh singleton `()` first
        candidates = ((),) + partition.blocks
        keys = [key_of[b] for b in candidates]
        blocks = zip(candidates, keys)
        next(blocks)  # no agent is in `()`
        for cur, here in blocks:
            for agent in cur:
                # targets are lazy: stop at the first candidate the agent may
                # join (a loop, since `()` is falsy)
                for _ in targets(agent, cur, here, candidates, keys):
                    return True
        return False

    def clash(self, a: core.Coalition, b: core.Coalition) -> bool:
        """Whether an IS move runs between the disjoint blocks ``a`` and
        ``b``, in either direction: a member of one gains by joining the
        other and is welcomed there. ``b = ()``: a member of ``a`` would
        rather be alone. Each member is asked, as in :meth:`has_move`,
        about the one-block candidate tuple of the other block."""
        targets, key_of = self._rules.targets, self._rules.keys
        key_a, key_b = key_of[a], key_of[b]
        for cur, here, other, keys in ((a, key_a, (b,), (key_b,)),
                                       (b, key_b, (a,), (key_a,))):
            for agent in cur:
                # a loop, since the target may be `()`, which is falsy
                for _ in targets(agent, cur, here, other, keys):
                    return True
        return False

    def table(self, partition: Partition, base: MoveTable | None = None) -> MoveTable:
        """The moves of ``partition``, patched from the table ``base`` of
        another partition of the game, by default the last one built."""
        last, blocks = self._last, partition.blocks
        if base is None:
            base = last
        if base is not None and base.partition.blocks == blocks:
            return base
        if base is not last:
            self._rules.rebase(base.partition.blocks)
        new = set(blocks)
        old = set(base.partition.blocks) if base is not None else set()
        self._last = self._patch(partition, base, old - new, new - old)
        return self._last

    def _patch(self, p, base, gone, born) -> MoveTable:
        """``base`` (``None``: an empty table) brought to ``p``, whose blocks
        differ from ``base``'s by the blocks ``gone`` and ``born``."""
        rules = self._rules
        key_of = rules.keys
        blocks = p.blocks
        candidates = blocks + ((),)
        keys = [key_of[b] for b in candidates]
        fresh = {b: key_of[b] for b in born}
        # a table that keeps no block of its base (or has none) rebuilds
        # every row: it starts from empty rows and asks neither `holders`
        # nor `joiners`, as no row outside the new blocks is left
        kept = len(fresh) < len(blocks)
        rows = list(base.rows) if kept else [()] * p.n
        # asked before `settle`, while the rule set still describes the base
        holders = rules.holders(base.partition.blocks, gone) if kept else ()
        rules.settle(gone, fresh)
        # the agents whose block is new get their whole row
        for cur, here in fresh.items():
            for agent in cur:
                rows[agent] = rules.row(agent, cur, here, candidates, keys)
        # the vanished blocks leave the other rows that may hold them (a
        # row just rebuilt holds none, so its bisects find nothing to cut):
        # a run step drops and adds at most two, so each is bisected out
        # and the row re-sliced (a whole-row filter or re-sort was twice as
        # slow). `()` sorts before every block, so the bisects stop before
        # a row's closing `()`; the bound is inline, as a helper call per
        # bisect was measurably slower
        for agent in holders:
            row = rows[agent]
            if not row:
                continue
            end = len(row) - (not row[-1])
            for block in gone:
                at = bisect_left(row, block, 0, end)
                if at < end and row[at] == block:
                    row = row[:at] + row[at + 1:]
                    end -= 1
            rows[agent] = row
        # every other row gains a born block only where the rules admit it
        joiners = rules.joiners(blocks, keys, fresh) if kept else ()
        for block, agents in zip(fresh, joiners):
            for agent in agents:
                row = rows[agent]
                at = bisect_left(row, block, 0, len(row) - (not row[-1]) if row else 0)
                rows[agent] = row[:at] + (block,) + row[at:]
        return MoveTable(p, rows)


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


def passes_filter(game, move: DeviationMove) -> bool:
    """The solitary-homogeneity filter's verdict on a move."""
    colors = _filter_colours(game)
    return _single_colour(colors, move.target) is not colors[move.agent]


def _filter_colours(game):
    """The agents' colours the filter reads, or :class:`DynamicsError` if
    ``game`` has none."""
    if not isinstance(game, DiversityGame):
        raise DynamicsError("the solitary-homogeneity filter needs a two-color game")
    return game.colors


def _single_colour(colors, block):
    """The colour of every member of ``block``, or ``None`` if it has both
    or is the fresh singleton ``()``. The filter lets an agent join
    ``block`` iff this is not the agent's colour: the joined block would
    be single-coloured."""
    if not block:
        return None
    first = colors[block[0]]
    return None if any(colors[m] is not first for m in block) else first


def _pick_admissible(table, colors, rng) -> DeviationMove | None:
    """Among the table's moves that pass the filter, the first, or with
    ``rng`` a uniform one: the index a full listing of them would be drawn
    at, found by counting each row's admissible moves. Only the picked
    move is built."""
    # each block's single colour, once per table
    colour_of = _Memo(partial(_single_colour, colors))
    rows = table.rows
    if rng is None:
        k, agents = 0, range(len(rows))
    else:
        # a row's admissible moves: all but the blocks of the mover's colour
        counts = [
            len(row) - countOf(map(colour_of.__getitem__, row), colors[agent])
            for agent, row in enumerate(rows)
        ]
        total = sum(counts)
        if not total:
            return None
        k = rng.below(total)
        for agent, count in enumerate(counts):
            if k < count:
                break
            k -= count
        agents = (agent,)
    for agent in agents:
        mine = colors[agent]
        for block in rows[agent]:
            if colour_of[block] is not mine:
                if not k:
                    return DeviationMove._trusted(agent, block)
                k -= 1
    return None


def _unwrap_policy(game, policy):
    """The base policy, and the agents' colours if ``policy`` is filtered."""
    base, colors = policy, None
    if isinstance(policy, Filtered):
        base, colors = policy.base, _filter_colours(game)
    if not isinstance(base, (Lexicographic, SeededRandom, Scripted)):
        raise DynamicsError(f"unknown policy {policy!r}")  # a nested filter too
    return base, colors


def _step(game, state, move, step_index, monitors=(), filtered=False,
          scheduled=False) -> TraceStep:
    """``move`` applied to ``state``, with each monitor's reading, once the
    ``core`` predicates find it an IS deviation and, if ``filtered``, the
    filter lets it through; else :class:`ScriptedMoveInvalid`, or, for a
    ``scheduled`` move, a :class:`DynamicsError` naming the scheduler."""
    try:
        fail = deviation_failure(game, state, move, StabilityKind.IS)
    except core.CoreError as exc:
        fail = str(exc)
    if fail is None and filtered and not passes_filter(game, move):
        fail = ("rejected by the solitary-homogeneity filter: the joined "
                "coalition would be single-colored")
    if fail is not None and scheduled:
        raise DynamicsError(f"scheduler produced an invalid move at step {step_index}: {fail}")
    if fail is not None:
        raise ScriptedMoveInvalid(step_index, fail)
    post = apply(state, move)
    return TraceStep(move, post, {m.name: m.on_step(state, move, post) for m in monitors})


def _check_start(game, start: Partition) -> None:
    """Raise ``ValueError`` unless ``start`` partitions the game's agents."""
    if start.n != game.n:
        raise ValueError(f"the start has {start.n} agents, the game {game.n}")


def run(game, start: Partition, policy: Policy, config: RunConfig = RunConfig()) -> RunOutcome:
    """Drive the dynamics from ``start`` until convergence, a revisited state,
    or the step budget; see the policy classes for how moves get picked."""
    _check_start(game, start)
    base, colors = _unwrap_policy(game, policy)
    finder = MoveFinder(game)
    rng = SplitMix64(base.seed) if isinstance(base, SeededRandom) else None
    script = iter(base.moves) if isinstance(base, Scripted) else None

    monitors = [factory(game, start) for factory in config.monitors]
    start_readings = {m.name: m.initial_reading() for m in monitors}
    steps: list[TraceStep] = []
    state = start
    # keyed by the block tuple, which hashes and compares without encoding
    visited = {start.blocks: 0}

    def trace():
        return Trace(start, tuple(steps), start_readings)

    for step_index in range(config.max_steps):
        if script is not None:
            move = next(script, None)
            if move is None:
                break  # script exhausted; classified below
        else:
            table = finder.table(state)
            if not table.count:
                return Converged(state, len(steps), trace())
            if colors is None:
                # the index into the canonical order a listed draw would use
                move = table.nth(rng.below(table.count) if rng else 0)
            else:
                move = _pick_admissible(table, colors, rng)
                if move is None:
                    raise FilterStarvation(step_index)

        step = _step(game, state, move, step_index, monitors,
                     filtered=colors is not None, scheduled=script is None)
        steps.append(step)
        state = step.result
        seen_at = visited.get(state.blocks)
        if seen_at is not None:
            return CycleDetected(seen_at, len(steps) - seen_at, trace())
        visited[state.blocks] = len(steps)

    if finder.has_move(state):
        return StepLimitReached(trace())
    return Converged(state, len(steps), trace())


def replay(game, start: Partition, moves: Sequence[DeviationMove]) -> Trace:
    """Validate and apply a move list; raises :class:`ScriptedMoveInvalid`
    at the first move that is not an IS deviation, naming the violated
    condition and the agent it fails for."""
    _check_start(game, start)
    state = start
    steps = []
    for step_index, move in enumerate(moves):
        steps.append(_step(game, state, move, step_index))
        state = steps[-1].result
    return Trace(start, tuple(steps))


def validate_trace(game, trace: Trace) -> None:
    """Post-hoc check of a finished trace using only core predicates; fails
    like :func:`replay`, with :class:`ScriptedMoveInvalid`."""
    _check_start(game, trace.start)
    state = trace.start
    for step_index, recorded in enumerate(trace.steps):
        state = _step(game, state, recorded.move, step_index).result
        if state != recorded.result:
            raise ScriptedMoveInvalid(
                step_index, "recorded result does not match applying the move"
            )
