"""Deviation dynamics: schedulers, traces, replay, and the solitary filter.

A run repeatedly picks an individually-stable deviation (strict improvement
for the mover, weak approval from everyone being joined) and applies it.
The scheduler is pluggable; every applied move is re-validated after the
fact with the plain predicates from :mod:`hedonic_dynamics.core`, so a bug
in the fast move enumeration below cannot silently corrupt a trace.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterator, Sequence

from . import core
from .core import (
    NEW_SINGLETON,
    DeviationMove,
    Partition,
    StabilityKind,
    apply,
    canonicalize,
    deviation_failure,
    join,
)
from .games import (
    AnonymousGame,
    Color,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    is_homogeneous,
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


class DeviationFilter(enum.Enum):
    #: reject any move whose target coalition would be single-colored after
    #: the join; founding a fresh singleton is always allowed
    SOLITARY_HOMOGENEITY = "solitary-homogeneity"


@dataclass(frozen=True)
class Filtered:
    base: "Policy"
    criterion: DeviationFilter = DeviationFilter.SOLITARY_HOMOGENEITY


Policy = Lexicographic | SeededRandom | Scripted | Filtered


@dataclass(frozen=True)
class RunConfig:
    max_steps: int = 1_000_000
    detect_cycles: bool = True
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


class _SummaryRules:
    """Anonymous and diversity games rank a coalition only by a summary of
    it, its block key: the mover's gain is evaluated once per distinct key,
    the members' welcome once per block and mover colour (0 or 1).

    ``value(key)`` is what the orders rank, ``joined(key, colour)`` the value
    once an agent of that colour joins, and going alone is joining ``empty``.
    """

    def __init__(self, game, colour, key, value, joined, empty):
        self.orders = game.orders
        self.colour = colour
        self.value = value
        self.joined = joined
        self.alone_values = (joined(empty, 0), joined(empty, 1))
        self.keys = _Memo(key)
        self.welcomed = tuple(_Memo(partial(self.welcome, colour=c)) for c in (0, 1))

    def welcome(self, block, colour):
        key = self.keys[block]
        post, pre = self.joined(key, colour), self.value(key)
        return all(self.orders[m].compare(post, pre) >= 0 for m in block)

    def targets(self, agent, cur, here, blocks, keys):
        order = self.orders[agent]
        colour = self.colour[agent]
        now = self.value(here)
        # lazy, and never asked about `cur` itself: the mover's own key plus
        # one member can fall outside the order's domain (size n + 1)
        gains = _Memo(lambda key: order.compare(self.joined(key, colour), now) > 0)
        welcomed = self.welcomed[colour]
        return (
            b for b, key in zip(blocks, keys)
            if b is not cur and welcomed[b] and gains[key]
        )

    def alone(self, agent, cur, here):
        alone = self.alone_values[self.colour[agent]]
        return self.orders[agent].compare(alone, self.value(here)) > 0


def _size_rules(game):
    return _SummaryRules(
        game,
        colour=(0,) * game.n,  # sizes ignore colour
        key=len,
        value=lambda size: size,
        joined=lambda size, colour: size + 1,
        empty=0,
    )


def _ratio_rules(game):
    red = tuple(int(c is Color.RED) for c in game.colors)
    return _SummaryRules(
        game,
        colour=red,
        key=lambda block: (sum(map(red.__getitem__, block)), len(block)),
        value=lambda key: Fraction(key[0], key[1]),
        joined=lambda key, colour: Fraction(key[0] + colour, key[1] + 1),
        empty=(0, 0),
    )


class _AverageRules:
    """Fractional games: the block key is each member's weight sum toward the
    block. Gains hang on the mover's own weights, so they are tested inline."""

    def __init__(self, game):
        self.weights = game.weights
        self.keys = _Memo(self.key)

    def key(self, block):
        return tuple(sum(map(self.weights[m].__getitem__, block)) for m in block)

    def welcome(self, agent, block, key):
        # member m keeps its average iff len(block) * w(m, agent) >= its sum
        s = len(block)
        weights = self.weights
        for m, base in zip(block, key):
            if s * weights[m][agent] < base:
                return False
        return True

    def targets(self, agent, cur, here, blocks, keys):
        row = self.weights[agent].__getitem__
        size, have = len(cur), here[bisect_left(cur, agent)]
        welcome = self.welcome
        # strict gain: sum over b / (len(b) + 1) > have / size
        return (
            b for b, key in zip(blocks, keys)
            if b is not cur
            and sum(map(row, b)) * size > have * (len(b) + 1)
            and welcome(agent, b, key)
        )

    def alone(self, agent, cur, here):
        return here[bisect_left(cur, agent)] < 0


class _ApprovalRules:
    """Dichotomous games: the block key is the members who approve the block,
    the only ones who can object to a newcomer."""

    def __init__(self, game):
        self.approvals = game.approvals
        self.keys = _Memo(self.key)

    def key(self, block):
        return tuple(m for m in block if block in self.approvals[m])

    def welcome(self, agent, block, key):
        post = join(block, agent)
        return all(post in self.approvals[m] for m in key)

    def targets(self, agent, cur, here, blocks, keys):
        mine = self.approvals[agent]
        if not mine or agent in here:
            return ()  # approves nothing, or already at top utility
        welcome = self.welcome
        return (
            b for b, key in zip(blocks, keys)
            if b is not cur
            and join(b, agent) in mine
            and welcome(agent, b, key)
        )

    def alone(self, agent, cur, here):
        return (agent,) in self.approvals[agent] and agent not in here


_RULES = {
    AnonymousGame: _size_rules,
    DiversityGame: _ratio_rules,
    FractionalGame: _AverageRules,
    DichotomousGame: _ApprovalRules,
}


class MoveFinder:
    """Enumerates IS deviations in the canonical order: ascending agent, then
    target blocks as the partition lists them, then the fresh singleton.

    One loop serves the four game classes through their rule sets: a block
    key cached across steps (a move makes new blocks only where it acts),
    the blocks a mover gains by joining and whose members welcome it, and
    the go-alone test. The output must equal
    ``core.iter_deviations(game, partition, IS)``; a property test checks it.
    """

    def __init__(self, game):
        self.game = game
        # exact-type dispatch: a subclass may override `prefers`, in which
        # case only the generic path is guaranteed to agree with it
        rules = _RULES.get(type(game))
        self._rules = rules(game) if rules else None
        self._iter = self._iter_rules if rules else self._iter_generic

    def iter_moves(self, partition: Partition) -> Iterator[DeviationMove]:
        return self._iter(partition)

    def has_move(self, partition: Partition) -> bool:
        for _ in self._iter(partition):
            return True
        return False

    def _iter_generic(self, p):
        return core.iter_deviations(self.game, p, StabilityKind.IS)

    def _iter_rules(self, p):
        targets, alone, key_of = self._rules.targets, self._rules.alone, self._rules.keys
        blocks = p.blocks
        keys = [key_of[b] for b in blocks]
        # `coalition_of` returns the partition's own block objects, so the
        # mover's key is found by identity instead of rehashing its block
        key_by_id = dict(zip(map(id, blocks), keys))
        for agent in range(p.n):
            cur = p.coalition_of(agent)
            here = key_by_id[id(cur)]
            for b in targets(agent, cur, here, blocks, keys):
                yield DeviationMove(agent, b)
            if len(cur) > 1 and alone(agent, cur, here):
                yield DeviationMove(agent, NEW_SINGLETON)


# ---------------------------------------------------------------------------
# the run loop
# ---------------------------------------------------------------------------


def passes_filter(game, move: DeviationMove, criterion: DeviationFilter) -> bool:
    """Filter predicate on a move (independent of scheduler state)."""
    if criterion is not DeviationFilter.SOLITARY_HOMOGENEITY:
        raise DynamicsError(f"unknown filter {criterion!r}")
    if move.joins_new_singleton():
        return True
    return not is_homogeneous(join(move.target, move.agent), game.colors)


def _unwrap_policy(game, policy):
    if isinstance(policy, Filtered):
        base, criterion = policy.base, policy.criterion
        if isinstance(base, Filtered):
            raise DynamicsError("nested filters are not supported")
        if not isinstance(game, DiversityGame):
            raise DynamicsError(
                "the solitary-homogeneity filter needs a two-color game"
            )
        return base, criterion
    return policy, None


def run(game, start: Partition, policy: Policy, config: RunConfig = RunConfig()) -> RunOutcome:
    """Drive the dynamics from ``start`` until convergence, a revisited state,
    or the step budget; see the policy classes for how moves get picked."""
    base, criterion = _unwrap_policy(game, policy)
    finder = MoveFinder(game)
    rng = SplitMix64(base.seed) if isinstance(base, SeededRandom) else None
    script = iter(base.moves) if isinstance(base, Scripted) else None

    monitors = [factory(game, start) for factory in config.monitors]
    start_readings = {m.name: m.initial_reading() for m in monitors}
    steps: list[TraceStep] = []
    state = start
    visited = {canonicalize(start): 0} if config.detect_cycles else None

    def trace():
        return Trace(start, tuple(steps), start_readings)

    for step_index in range(config.max_steps):
        move = None
        if script is not None:
            move = next(script, None)
            if move is None:
                break  # script exhausted; classified below
            fail = _scripted_failure(game, state, move)
            if fail is not None:
                raise ScriptedMoveInvalid(step_index, fail)
            if criterion is not None and not passes_filter(game, move, criterion):
                raise ScriptedMoveInvalid(
                    step_index,
                    "rejected by the solitary-homogeneity filter: the joined "
                    "coalition would be single-colored",
                )
        elif isinstance(base, Lexicographic):
            saw_unfiltered = False
            for cand in finder.iter_moves(state):
                saw_unfiltered = True
                if criterion is None or passes_filter(game, cand, criterion):
                    move = cand
                    break
            if move is None:
                if saw_unfiltered:
                    raise FilterStarvation(step_index)
                return Converged(state, len(steps), trace())
        elif isinstance(base, SeededRandom):
            candidates = list(finder.iter_moves(state))
            if criterion is not None:
                admissible = [
                    c for c in candidates if passes_filter(game, c, criterion)
                ]
            else:
                admissible = candidates
            if not admissible:
                if candidates:
                    raise FilterStarvation(step_index)
                return Converged(state, len(steps), trace())
            move = admissible[rng.below(len(admissible))]
        else:
            raise DynamicsError(f"unknown policy {base!r}")

        post = apply(state, move)
        if script is None:
            # independent re-check with the plain core predicates
            fail = deviation_failure(game, state, move, StabilityKind.IS)
            if fail is not None:
                raise DynamicsError(
                    f"scheduler produced a non-IS move at step {step_index}: {fail}"
                )
        readings = {m.name: m.on_step(state, move, post) for m in monitors}
        steps.append(TraceStep(move, post, readings))
        if visited is not None:
            key = canonicalize(post)
            seen_at = visited.get(key)
            if seen_at is not None:
                return CycleDetected(seen_at, len(steps) - seen_at, trace())
            visited[key] = len(steps)
        state = post

    if finder.has_move(state):
        return StepLimitReached(trace())
    return Converged(state, len(steps), trace())


def _scripted_failure(game, state, move) -> str | None:
    try:
        return deviation_failure(game, state, move, StabilityKind.IS)
    except core.CoreError as exc:
        return str(exc)


def replay(game, start: Partition, moves: Sequence[DeviationMove], monitors=()) -> Trace:
    """Validate and apply a move list; raises :class:`ScriptedMoveInvalid`
    at the first move that is not an IS deviation, naming the violated
    condition and the agent it fails for."""
    mons = [factory(game, start) for factory in monitors]
    start_readings = {m.name: m.initial_reading() for m in mons}
    state = start
    steps = []
    for step_index, move in enumerate(moves):
        fail = _scripted_failure(game, state, move)
        if fail is not None:
            raise ScriptedMoveInvalid(step_index, fail)
        post = apply(state, move)
        readings = {m.name: m.on_step(state, move, post) for m in mons}
        steps.append(TraceStep(move, post, readings))
        state = post
    return Trace(start, tuple(steps), start_readings)


def validate_trace(game, trace: Trace) -> None:
    """Post-hoc check of a finished trace using only core predicates; fails
    like :func:`replay`, with :class:`ScriptedMoveInvalid`."""
    state = trace.start
    for step_index, step in enumerate(trace.steps):
        fail = _scripted_failure(game, state, step.move)
        if fail is not None:
            raise ScriptedMoveInvalid(step_index, fail)
        post = apply(state, step.move)
        if post != step.result:
            raise ScriptedMoveInvalid(
                step_index, "recorded result does not match applying the move"
            )
        state = post
