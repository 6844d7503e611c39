"""Coalition structures and unilateral-deviation primitives.

Agents are dense 0-based integers ``0..n-1``.  Instances transcribed from
1-based sources keep a name table mapping display labels to internal ids
(see :mod:`hedonic_dynamics.instances`).

A *game* object only has to provide two things to work with this module:
an agent count ``n`` and a method ``prefers(agent, a, b) -> int`` returning
the sign of the agent's preference between two coalitions she belongs to
(positive: ``a`` strictly better, zero: indifferent, negative: worse).
Everything here is immutable and side-effect free.

This module is the plain reference oracle that the fast move engine in
:mod:`hedonic_dynamics.dynamics` and the searches are checked against.  The
deviation rule is written once, in :func:`deviation_verdict`: the mover
strictly gains, no member of the joined block is worse off (IS), and no
member left behind is worse off (CIS).  A mover may join any block of the
partition or the empty block ``()``, named :data:`NEW_SINGLETON`: founding
a fresh singleton is joining the empty coalition, which welcomes her
vacuously.  :func:`iter_deviations` asks the rule about every (agent,
block) pair, the empty block included; :func:`deviation_failure` validates
a given move and words the verdict as a reason.  Blocks grow by
:func:`join`, which inserts the mover into a canonical block, and
:func:`successor` gives the blocks after a move, which :func:`apply` and
the searches build on.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

#: Hard cap on supported instance sizes; enough for every bundled instance
#: and generated gadget while keeping id arithmetic obviously safe.
MAX_AGENTS = 10**6

Coalition = tuple[int, ...]


class CoreError(ValueError):
    """Base class for structural errors raised by this module."""


class InvalidTarget(CoreError):
    """A deviation names a target that does not exist in the partition,
    or a target already containing the deviator."""


class StabilityKind(enum.Enum):
    NASH = "nash"
    IS = "is"
    CIS = "cis"


#: The empty block: the target of a move that founds a fresh singleton.
NEW_SINGLETON: Coalition = ()


def coalition(members: Iterable[int]) -> Coalition:
    """Normalize ``members`` into a coalition tuple (sorted, distinct, nonempty)."""
    out = tuple(sorted(members))
    if not out:
        raise CoreError("a coalition must be nonempty")
    for a, b in zip(out, out[1:]):
        if a == b:
            raise CoreError(f"duplicate agent {a} in coalition")
    if out[0] < 0 or out[-1] >= MAX_AGENTS:
        raise CoreError("agent ids must lie in [0, MAX_AGENTS)")
    return out


def join(block: Coalition, agent: int) -> Coalition:
    """The canonical ``block`` with ``agent`` (not a member) inserted, in
    linear time; ``join((), agent)`` is the fresh singleton."""
    at = bisect_left(block, agent)
    return block[:at] + (agent,) + block[at:]


@dataclass(frozen=True)
class DeviationMove:
    """Unilateral move of ``agent`` into a coalition of the partition or a
    fresh singleton.

    ``target`` is the welcoming coalition *before* the move (canonical member
    tuple); the empty block, always the object :data:`NEW_SINGLETON`, founds
    a fresh singleton.
    """

    agent: int
    target: Coalition

    def __post_init__(self):
        target = coalition(self.target) if self.target else NEW_SINGLETON
        if self.agent in target:
            raise InvalidTarget(f"agent {self.agent} already belongs to target {target}")
        object.__setattr__(self, "target", target)

    @classmethod
    def _trusted(cls, agent: int, target: Coalition) -> "DeviationMove":
        """A move whose ``target`` is already a canonical block without
        ``agent`` (or :data:`NEW_SINGLETON`), built without re-checking."""
        move = object.__new__(cls)
        move.__dict__.update(agent=agent, target=target)
        return move

    def __repr__(self):
        return f"Move({self.agent} -> {set(self.target) if self.target else 'new'})"


class Partition:
    """Disjoint cover of ``0..n-1`` by coalitions, stored in canonical order.

    Blocks are internally sorted and listed lexicographically, so two equal
    partitions are structurally identical and hash alike.
    """

    __slots__ = ("blocks", "n", "_home")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = sorted(coalition(b) for b in blocks)
        self.blocks: tuple[Coalition, ...] = tuple(normalized)
        total = 0
        seen = set()
        for b in self.blocks:
            total += len(b)
            seen.update(b)
        self.n = total
        if len(seen) != total or (total and (min(seen) != 0 or max(seen) != total - 1)):
            raise CoreError("blocks must disjointly cover 0..n-1")
        self._home = None

    @classmethod
    def _trusted(cls, blocks: tuple, n: int, home=None) -> "Partition":
        """A partition of ``n`` agents whose ``blocks`` are already canonical
        and listed in canonical order, built without re-checking; ``home``
        is its agent-to-block table, if known."""
        partition = object.__new__(cls)
        partition.blocks = blocks
        partition.n = n
        partition._home = home
        return partition

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition([(i,) for i in range(n)])

    @staticmethod
    def grand(n: int) -> "Partition":
        return Partition([range(n)])

    def _home_table(self):
        if self._home is None:
            home = [None] * self.n
            for b in self.blocks:
                for a in b:
                    home[a] = b
            self._home = home
        return self._home

    def coalition_of(self, agent: int) -> Coalition:
        if not 0 <= agent < self.n:
            raise CoreError(f"agent {agent} out of range for n={self.n}")
        return self._home_table()[agent]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition[{inner}]"


@lru_cache(maxsize=1024)
def _block_text(block: Coalition) -> str:
    return ",".join(map(str, block))


def canonicalize(partition: Partition) -> bytes:
    """Byte encoding that is equal iff the partitions are equal: the blocks'
    member ids, comma-separated, joined by ``|``.  A search revisits the same
    few blocks in many states, so each block's text is cached."""
    return "|".join(map(_block_text, partition.blocks)).encode()


def _target_block(partition: Partition, move: DeviationMove) -> Coalition:
    """The block the move joins, ``()`` for a fresh singleton; raises
    :class:`InvalidTarget` if the target is not a block of the partition."""
    if move.target and move.target not in partition.blocks:
        raise InvalidTarget(f"target {move.target} is not a coalition of the partition")
    return move.target


def successor(blocks: tuple, cur: Coalition, agent: int, target: Coalition):
    """The blocks after ``agent`` leaves its block ``cur`` of ``blocks`` (a
    canonical block tuple) for its block ``target`` (``()``: a fresh
    singleton), with what is left of ``cur`` (``()`` if emptied) and the
    joined block: ``(blocks, remainder, joined)``.

    The untouched block tuples are kept, in order: only the remainder and
    the joined block are made and inserted.  Nothing is checked.
    """
    out = list(blocks)
    del out[bisect_left(out, cur)]
    if target:
        del out[bisect_left(out, target)]
    at = bisect_left(cur, agent)
    remainder = cur[:at] + cur[at + 1:]
    joined = join(target, agent)
    if remainder:
        insort(out, remainder)
    insort(out, joined)
    return tuple(out), remainder, joined


def apply(partition: Partition, move: DeviationMove) -> Partition:
    """Apply a deviation mechanically; the abandoned coalition is dropped if emptied.

    Raises :class:`InvalidTarget` if the target coalition is not part of the
    partition.  Moving from a singleton to a new singleton reproduces the
    input partition (such a move is never an improvement, see the deviation
    predicates).  The blocks come from :func:`successor`.
    """
    agent = move.agent
    cur = partition.coalition_of(agent)
    target = _target_block(partition, move)
    blocks, remainder, joined = successor(partition.blocks, cur, agent, target)
    home = partition._home
    if home is not None:
        home = home.copy()
        for block in (remainder, joined):
            for member in block:
                home[member] = block
    return Partition._trusted(blocks, partition.n, home)


def deviation_verdict(
    game, agent: int, cur: Coalition, target: Coalition, kind: StabilityKind
) -> tuple[str, int] | None:
    """Individual stability's rule, for ``agent`` leaving its block ``cur``
    for the block ``target`` (``()``: a fresh singleton).

    ``None`` if the move is a deviation of ``kind``, else the first failing
    condition and the agent it fails for: ``("gain", agent)`` if the mover
    is not strictly better off, ``("welcome", member)`` (IS and CIS) if a
    member of ``target`` is worse off, ``("consent", member)`` (CIS) if a
    member left behind is worse off.
    """
    prefers = game.prefers
    post = join(target, agent)
    if prefers(agent, post, cur) <= 0:
        return ("gain", agent)
    if kind is StabilityKind.NASH:
        return None
    for member in target:
        if prefers(member, post, target) < 0:
            return ("welcome", member)
    if kind is StabilityKind.IS:
        return None
    remainder = tuple(x for x in cur if x != agent)
    for member in remainder:
        if prefers(member, remainder, cur) < 0:
            return ("consent", member)
    return None


def deviation_failure(game, partition, move, kind: StabilityKind) -> str | None:
    """``None`` if the move is a deviation of the requested kind, else a
    human-readable reason naming the failing condition and agent."""
    agent = move.agent
    cur = partition.coalition_of(agent)
    target = _target_block(partition, move)
    failed = deviation_verdict(game, agent, cur, target, kind)
    if failed is None:
        return None
    condition, member = failed
    if condition == "gain":
        return (
            f"agent {agent} does not strictly improve by moving to "
            f"{set(join(target, agent))} (current {set(cur)})"
        )
    if condition == "welcome":
        return (
            f"member {member} of the welcoming coalition {set(target)} "
            f"is strictly worse off after agent {agent} joins"
        )
    return (
        f"member {member} of the abandoned coalition {set(cur)} does not "
        f"consent to agent {agent} leaving"
    )


def iter_deviations(
    game, partition: Partition, kind: StabilityKind
) -> Iterator[DeviationMove]:
    """Deviations in deterministic order: ascending agent, then target
    blocks in canonical partition order, then the empty block
    :data:`NEW_SINGLETON`.  A singleton never gains by joining ``()``, since
    the joined block equals her own."""
    candidates = partition.blocks + (NEW_SINGLETON,)
    for agent in range(partition.n):
        cur = partition.coalition_of(agent)
        for block in candidates:
            if block is not cur and deviation_verdict(game, agent, cur, block, kind) is None:
                yield DeviationMove(agent, block)


def enumerate_deviations(game, partition, kind: StabilityKind) -> list[DeviationMove]:
    return list(iter_deviations(game, partition, kind))


def is_stable(game, partition, kind: StabilityKind) -> bool:
    """True iff no deviation of the requested kind exists."""
    for _ in iter_deviations(game, partition, kind):
        return False
    return True
