"""Potential functions as run monitors and standalone evaluators.

Three potentials are implemented:

- pair count: Σ over coalitions of |C|·(|C|-1)/2, a plain function of the
  partition;
- ascent credit: a history-dependent account of per-agent and per-coalition
  credit values for size-based games with strict single-peaked preferences;
  it never decreases along a run and strictly increases whenever someone
  moves into a larger coalition, which bounds those moves by n²;
- lexicographic pair: for acyclic one-directional simple games, the pair
  (decreasing sorted top scores per coalition, increasing sorted sizes)
  drops in a combined lexicographic order on every deviation.

Monitors are attached to runs through ``RunConfig.monitors`` and assert
their monotonicity claims after every step; a violation raises
:class:`MonitorInvariantViolation` naming the broken invariant.  The ascent
credit deliberately lives in a monitor and never gets computed from a bare
partition: it depends on the starting partition and the whole move history.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import DeviationMove, Partition
from .games import (
    AnonymousGame,
    Color,
    DiversityGame,
    FractionalGame,
    arc_scores,
    is_simple_asymmetric,
    is_strict_game,
    naturally_single_peaked,
)


class PreconditionViolated(ValueError):
    """The game does not satisfy what this potential needs."""


class MonitorInvariantViolation(RuntimeError):
    """A potential's monotonicity or bookkeeping invariant broke during a run."""


class NotTopological(ValueError):
    """The supplied score assignment is not a topological order of the digraph."""


# ---------------------------------------------------------------------------
# pair count
# ---------------------------------------------------------------------------


def count_internal_pairs(partition: Partition) -> int:
    """Number of agent pairs sharing a coalition: Σ |C|(|C|-1)/2."""
    return sum(len(c) * (len(c) - 1) // 2 for c in partition.blocks)


class PairCountMonitor:
    """Reports the pair count each step; on size-based games it also asserts
    the accounting bounds: a move into a larger coalition raises the count by
     1..n-1, a move into a smaller one lowers it by at least 1."""

    name = "gamma"

    def __init__(self, game, start: Partition):
        self.game = game
        self.value = count_internal_pairs(start)
        self._check_bounds = isinstance(game, AnonymousGame)

    def initial_reading(self):
        return self.value

    def on_step(self, pre: Partition, move: DeviationMove, post: Partition):
        new_value = count_internal_pairs(post)
        if self._check_bounds:
            delta = new_value - self.value
            old_size = len(pre.coalition_of(move.agent))
            new_size = len(post.coalition_of(move.agent))
            if new_size > old_size:
                if not 1 <= delta <= post.n - 1:
                    raise MonitorInvariantViolation(
                        f"pair count must rise by 1..n-1 on a growth move, got {delta}"
                    )
            elif delta > -1:
                raise MonitorInvariantViolation(
                    f"pair count must drop by at least 1 on a shrink move, got {delta}"
                )
        self.value = new_value
        return new_value


# ---------------------------------------------------------------------------
# ascent credit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AscentCreditState:
    """Credit account after some number of steps.

    ``agent_values[j]`` is agent j's credit, ``coalition_values``/
    ``last_entrants`` are keyed by the live coalitions of the current
    partition.  ``last_case`` records which update rule fired on the most
    recent step ("i".."vi", or "solo-r"/"solo-l" when the mover left a
    singleton and there was no remainder to update).
    """

    agent_values: tuple[int, ...]
    coalition_values: dict
    last_entrants: dict
    last_case: str | None = None
    last_growth: bool | None = None

    @property
    def value(self) -> int:
        return sum(self.agent_values) + sum(self.coalition_values.values())


def require_strict_natural_sp(game) -> None:
    if not isinstance(game, AnonymousGame):
        raise PreconditionViolated("ascent credit is defined for size-based games")
    if not is_strict_game(game):
        raise PreconditionViolated("ascent credit needs strict preferences")
    if not naturally_single_peaked(game):
        raise PreconditionViolated(
            "ascent credit needs naturally single-peaked preferences"
        )


def ascent_credit_init(start: Partition) -> AscentCreditState:
    """All-zero account; no coalition has a recorded last entrant yet."""
    return AscentCreditState(
        agent_values=(0,) * start.n,
        coalition_values={c: 0 for c in start.blocks},
        last_entrants={c: None for c in start.blocks},
    )


def ascent_credit_step(
    state: AscentCreditState,
    game: AnonymousGame,
    pre: Partition,
    move: DeviationMove,
    post: Partition,
) -> AscentCreditState:
    """Advance the account over one deviation and assert all its invariants.

    A move counts as growth when the coalition joined ends up strictly larger
    than the one abandoned (ties are impossible here: with size-based
    preferences an equal-size move is never an improvement).
    """
    mover = move.agent
    abandoned = pre.coalition_of(mover)
    joined = post.coalition_of(mover)
    remainder = tuple(a for a in abandoned if a != mover)
    last = state.last_entrants[abandoned]
    growth = len(joined) > len(abandoned)

    agent_values = list(state.agent_values)
    coalition_values = dict(state.coalition_values)
    last_entrants = dict(state.last_entrants)

    old_coalition_value = coalition_values.pop(abandoned)
    del last_entrants[abandoned]
    if move.target:
        del coalition_values[move.target]
        del last_entrants[move.target]

    # updates independent of the move's direction
    last_entrants[joined] = mover
    if remainder:
        last_entrants[remainder] = None if last == mover else last
    if growth:
        agent_values[mover] = len(abandoned)  # size of the abandoned coalition
    for j in joined:
        if j != mover:
            agent_values[j] = len(joined) - 1

    # the remainder's values: one rule for shrink moves, four for growth
    if remainder:
        size_rem = len(remainder)
        if not growth:
            case = "i"
            coalition_values[remainder] = 0
        elif all(state.agent_values[j] == 0 for j in remainder):
            case = "ii"
            coalition_values[remainder] = 0
        elif last == mover:
            case = "iii"
            coalition_values[remainder] = 0
        elif last is None:
            case = "iv"
            for j in remainder:
                agent_values[j] = size_rem
            coalition_values[remainder] = 0
            last_entrants[remainder] = None
        elif state.agent_values[last] == size_rem:
            # everyone in the remainder now plays the same role, so the
            # recorded last entrant is cleared even though one exists
            case = "v"
            for j in remainder:
                agent_values[j] = size_rem
            coalition_values[remainder] = 0
            last_entrants[remainder] = None
        else:
            case = "vi"
            for j in remainder:
                if j != last:
                    agent_values[j] = size_rem - 1
            coalition_values[remainder] = old_coalition_value
    else:
        case = "solo-r" if growth else "solo-l"

    coalition_values[joined] = agent_values[mover]

    new_state = AscentCreditState(
        tuple(agent_values), coalition_values, last_entrants, case, growth
    )
    _assert_credit_invariants(new_state, game, post)
    fresh_departure = (
        old_coalition_value == 0
        and state.agent_values[mover] == 0
        and all(state.agent_values[j] == 0 for j in remainder)
    )
    _assert_credit_monotone(
        state, new_state, growth, fresh_departure, len(remainder), post.n
    )
    return new_state


def _assert_credit_invariants(state: AscentCreditState, game, partition: Partition):
    av = state.agent_values
    for c in partition.blocks:
        vc = state.coalition_values[c]
        lc = state.last_entrants[c]
        if vc > len(c) - 1:
            raise MonitorInvariantViolation(
                f"invariant (1) broke: coalition {set(c)} has value {vc} > {len(c) - 1}"
            )
        if vc > 0:
            if lc is None:
                raise MonitorInvariantViolation(
                    f"invariant (2) broke: coalition {set(c)} has positive value "
                    "but no last entrant"
                )
            for j in c:
                if av[j] > len(c) - 1:
                    raise MonitorInvariantViolation(
                        f"invariant (2) broke: agent {j} has value {av[j]} inside "
                        f"positively-valued coalition {set(c)}"
                    )
        if lc is not None:
            if vc not in (0, av[lc]):
                raise MonitorInvariantViolation(
                    f"invariant (4) broke: coalition {set(c)} value {vc} matches "
                    f"neither 0 nor its last entrant's value {av[lc]}"
                )
            if av[lc] > len(c) - 1:
                raise MonitorInvariantViolation(
                    f"invariant (4) broke: last entrant {lc} of {set(c)} has value "
                    f"{av[lc]} > {len(c) - 1}"
                )
        else:
            member_values = {av[j] for j in c}
            if member_values not in ({0}, {len(c)}):
                raise MonitorInvariantViolation(
                    f"invariant (5) broke: coalition {set(c)} without last entrant "
                    f"has member values {sorted(member_values)}"
                )
            if vc != 0:
                raise MonitorInvariantViolation(
                    f"invariant (5) broke: coalition {set(c)} without last entrant "
                    f"has value {vc}"
                )
    for j, vj in enumerate(av):
        if vj > 0:
            order = game.orders[j]
            size = len(partition.coalition_of(j))
            if order.compare(vj, size) > 0:
                raise MonitorInvariantViolation(
                    f"invariant (3) broke: agent {j} strictly prefers her credit "
                    f"size {vj} to her coalition size {size}"
                )
            # strict and naturally single-peaked: vj lies below the peak
            # iff size vj + 1 is preferred to vj
            if vj >= game.n or order.compare(vj + 1, vj) <= 0:
                peak = min(range(1, game.n + 1), key=order.rank)
                raise MonitorInvariantViolation(
                    f"invariant (3) broke: agent {j} has credit {vj} not strictly "
                    f"below her peak {peak}"
                )


def _assert_credit_monotone(old, new, growth, fresh_departure, remainder_size, n):
    delta = new.value - old.value
    if delta < 0:
        raise MonitorInvariantViolation(f"credit total decreased by {-delta}")
    if growth and delta <= 0:
        raise MonitorInvariantViolation("credit total did not rise on a growth move")
    if growth and fresh_departure and delta < 2 * (remainder_size + 1):
        # leaving a coalition whose whole credit account is zero banks the
        # mover's new value twice: once for her, once on the joined coalition
        raise MonitorInvariantViolation(
            f"growth move from a zero-credit coalition must add at least "
            f"{2 * (remainder_size + 1)}, added {delta}"
        )
    if new.value > n * n:
        raise MonitorInvariantViolation(f"credit total {new.value} exceeds n² = {n * n}")


class AscentCreditMonitor:
    name = "lambda"

    def __init__(self, game, start: Partition):
        require_strict_natural_sp(game)
        self.game = game
        self.state = ascent_credit_init(start)

    def initial_reading(self):
        return {"value": 0}

    def on_step(self, pre, move, post):
        self.state = ascent_credit_step(self.state, self.game, pre, move, post)
        return {
            "value": self.state.value,
            "growth": self.state.last_growth,
            "case": self.state.last_case,
        }


# ---------------------------------------------------------------------------
# lexicographic pair for acyclic simple one-directional games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LexPotential:
    #: per-coalition maximum score, sorted decreasing
    top_scores: tuple[int, ...]
    #: coalition sizes, sorted increasing
    sizes: tuple[int, ...]


def lex_potential(partition: Partition, sigma: Sequence[int]) -> LexPotential:
    if sorted(sigma) != list(range(1, partition.n + 1)):
        raise NotTopological("scores must be a bijection onto 1..n")
    tops = sorted((max(sigma[a] for a in c) for c in partition.blocks), reverse=True)
    sizes = sorted(len(c) for c in partition.blocks)
    return LexPotential(tuple(tops), tuple(sizes))


def lex_pair_decreased(pre: LexPotential, post: LexPotential) -> bool:
    """The combined order in which every deviation must make progress:
    top scores drop, or stay equal while the size vector rises.  Both are
    tuple comparisons, where a proper prefix is the smaller vector."""
    return (post.top_scores, pre.sizes) < (pre.top_scores, post.sizes)


class LexPotentialMonitor:
    name = "lex"

    def __init__(self, game, start: Partition):
        if not isinstance(game, FractionalGame):
            raise PreconditionViolated("lex potential is for weighted-average games")
        # arc_scores orders every arc, so its scores need no re-check
        scores = arc_scores(game) if is_simple_asymmetric(game) else None
        if scores is None:
            raise PreconditionViolated(
                "lex potential needs a simple, one-directional, acyclic digraph"
            )
        self.sigma = scores
        self.current = lex_potential(start, self.sigma)

    def _reading(self):
        return {
            "top_scores": list(self.current.top_scores),
            "sizes": list(self.current.sizes),
        }

    def initial_reading(self):
        return self._reading()

    def on_step(self, pre, move, post):
        nxt = lex_potential(post, self.sigma)
        if not lex_pair_decreased(self.current, nxt):
            raise MonitorInvariantViolation(
                f"lex pair failed to decrease: {self.current} -> {nxt}"
            )
        self.current = nxt
        return self._reading()


# ---------------------------------------------------------------------------
# per-agent anchor level for two-color runs (diagnostic only)
# ---------------------------------------------------------------------------


def minority_anchor_level(game: DiversityGame, partition: Partition, agent: int) -> int:
    """Integer level in [2, reds+1] tracking a red agent through the phases
    the filtered dynamics walks her coalition's red fraction through.

    Defined when that fraction is at most 1/2, exactly 1, or of the form
    m/(m+1); anything else raises ``ValueError``.
    """
    if game.colors[agent] is not Color.RED:
        raise ValueError("anchor level is defined for red agents")
    f = game.ratio_of(partition.coalition_of(agent))
    if f <= Fraction(1, 2) or f == 1:
        return game.reds + 1
    if f.numerator + 1 == f.denominator and 2 <= f.numerator <= game.reds:
        return f.numerator
    raise ValueError(f"red fraction {f} is not of the tracked shape")


class MinorityAnchorMonitor:
    """Reads the anchor level of every red agent each step; purely
    diagnostic, asserts nothing."""

    name = "anchor"

    def __init__(self, game, start: Partition):
        if not isinstance(game, DiversityGame):
            raise PreconditionViolated("anchor levels are for two-color games")
        self.game = game
        self._start = start

    def _levels(self, partition):
        out = {}
        for agent in range(self.game.n):
            if self.game.colors[agent] is Color.RED:
                try:
                    out[agent] = minority_anchor_level(self.game, partition, agent)
                except ValueError:
                    out[agent] = None
        return out

    def initial_reading(self):
        return self._levels(self._start)

    def on_step(self, pre, move, post):
        return self._levels(post)


MONITORS_BY_NAME = {
    "gamma": PairCountMonitor,
    "lambda": AscentCreditMonitor,
    "lex": LexPotentialMonitor,
    "anchor": MinorityAnchorMonitor,
}
