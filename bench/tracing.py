"""Spans and counters for the traced benchmark run.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces
public functions and methods of the library with timing wrappers, in every
module that holds them: ``dynamics``, ``search`` and ``instances.catalog``
import ``apply``, ``canonicalize`` and friends by name, so each of those
bindings is swapped too.  ``uninstall`` puts the originals back.

Every span records its calls, its inclusive time and the time spent in
wrapped callees, so self time is inclusive minus child time.  Spans are
aggregated by name (and by parent name for call counts) rather than kept
one by one: the hot leaves (order compares, ``Partition`` construction) run
millions of times per pass.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from hedonic_dynamics import cli, core, dynamics, games, potentials, search
from hedonic_dynamics import instances
from hedonic_dynamics.instances import catalog, randgen, reductions

MODULES = (core, games, dynamics, potentials, search, cli, instances, catalog,
           randgen, reductions)

CLAIM_KINDS = tuple(sorted(catalog.CLAIM_CHECKERS))

#: (span name, owner, attribute, is a generator); owner is a module when
#: the attribute is a function, a class when it is a method
_FUNCTIONS = (
    ("core.apply", core, "apply", False),
    ("core.canonicalize", core, "canonicalize", False),
    ("core.deviation_failure", core, "deviation_failure", False),
    ("core.iter_deviations", core, "iter_deviations", True),
    ("core.enumerate_deviations", core, "enumerate_deviations", False),
    ("core.is_stable", core, "is_stable", False),
    ("games.single_peaked", games, "single_peaked_check", False),
    ("dynamics.run", dynamics, "run", False),
    ("dynamics.replay", dynamics, "replay", False),
    ("search.exists_path_to_is", search, "exists_path_to_is", False),
    ("search.all_paths_converge", search, "all_paths_converge", False),
    ("search.tolerable_coalitions", search, "tolerable_coalitions", False),
    ("search.exists", search, "exists_is_partition", False),
    ("instances.check_claim", catalog, "check_claim", False),
    ("instances.random", randgen, "random", False),
    ("instances.build", catalog, "build", False),
    ("instances.reduce", reductions, "reduce", False),
    ("cli.main", cli, "main", False),
    ("cli.loads_instance", cli, "doc_to_instance", False),
    ("cli.trace_to_doc", cli, "trace_to_doc", False),
)

_METHODS = (
    ("core.partition", core.Partition, "__init__", False),
    ("dynamics.iter_moves", dynamics.MoveFinder, "iter_moves", True),
    ("dynamics.has_move", dynamics.MoveFinder, "has_move", False),
    *(("games.prefers", cls, "prefers", False)
      for cls in (games.AnonymousGame, games.DiversityGame,
                  games.FractionalGame, games.DichotomousGame)),
    *(("games.order_compare", cls, "compare", False)
      for cls in (games.WeakOrder, games.ComputedOrder, games.AxisWalkOrder)),
    *(("potentials.on_step", cls, "on_step", False)
      for cls in dict.fromkeys(potentials.MONITORS_BY_NAME.values())),
)


def _exists_name(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy")
    kind = "pruned" if isinstance(strategy, search.PrunedFHG) else (
        "type_reduced" if isinstance(strategy, search.TypeReduced) else "plain")
    return f"search.exists_{kind}"


def _claim_name(args, kwargs):
    claim = args[1] if len(args) > 1 else kwargs["claim"]
    return f"instances.check_claim.{claim.kind}"


class Stat:
    __slots__ = ("calls", "incl", "child", "parents")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.child = 0.0
        self.parents = defaultdict(int)

    @property
    def self_time(self):
        return self.incl - self.child


class Tracer:
    """Aggregated spans plus the few counters a span table cannot give."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = defaultdict(Stat)
        # frames are [name, child seconds]; the root frame collects top spans
        self.stack = [["<root>", 0.0]]
        self.moves_yielded = 0
        self.step_ms: list[float] = []
        self.reach_keys: list[set] = []  # one key set per BFS call
        self.tolerable = 0
        self.trace_out_s = 0.0
        self._trace_doc_at: float | None = None
        self._step_marks: list[float] | None = None
        self._saved: list = []

    # -- wrapping -----------------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _leave(self, name, frame, elapsed):
        stack = self.stack
        stack.pop()
        parent = stack[-1]
        parent[1] += elapsed
        stat = self.stats[name]
        stat.calls += 1
        stat.incl += elapsed
        stat.child += frame[1]
        stat.parents[parent[0]] += 1

    def _wrap(self, name, fn, naming=None, before=None, after=None):
        clock, enter, leave = self.clock, self._enter, self._leave

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            span = naming(args, kwargs) if naming else name
            frame = enter(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span, frame, clock() - start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn, on_item=None, on_call=None):
        """Time spent inside the generator's ``next`` calls, one call per
        generator created; the consumer's loop body is not counted."""
        clock, stack, stats = self.clock, self.stack, self.stats

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call()
            inner = fn(*args, **kwargs)
            stat = stats[name]
            stat.calls += 1
            stat.parents[stack[-1][0]] += 1

            def timed():
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        stack.pop()
                        stack[-1][1] += elapsed
                        stat.incl += elapsed
                        stat.child += frame[1]
                    if on_item is not None:
                        on_item()
                    yield item

            return timed()

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for name, owner, attr, is_gen in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self._make(name, original, is_gen)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        for name, cls, attr, is_gen in _METHODS:
            self._replace(cls, attr, self._make(name, vars(cls)[attr], is_gen))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _make(self, name, fn, is_gen):
        if name == "dynamics.iter_moves":
            return self._wrap_generator(name, fn, on_item=self._count_move,
                                        on_call=self._mark_step)
        if is_gen:
            return self._wrap_generator(name, fn)
        hooks = {
            "dynamics.has_move": {"before": self._mark_step},
            "cli.trace_to_doc": {"before": self._trace_doc_start},
            "search.exists_path_to_is": {"before": self._reach_start},
            "core.canonicalize": {"after": self._reach_key},
            "search.tolerable_coalitions": {"after": self._count_tolerable},
            "search.exists": {"naming": _exists_name},
            "instances.check_claim": {"naming": _claim_name},
        }
        if name == "dynamics.run":
            fn = self._run_steps(fn)
        elif name == "cli.main":
            fn = self._trace_out(fn)
        return self._wrap(name, fn, **hooks.get(name, {}))

    # -- counters -----------------------------------------------------------

    def _count_move(self):
        self.moves_yielded += 1

    def _mark_step(self):
        if self._step_marks is not None:
            self._step_marks.append(self.clock())

    def _run_steps(self, fn):
        """Step durations: the time between successive move queries of one
        run; a run that ends on a repeated state closes its last step on
        return."""

        def run(*args, **kwargs):
            outer, self._step_marks = self._step_marks, []
            try:
                outcome = fn(*args, **kwargs)
            finally:
                marks, self._step_marks = self._step_marks, outer
            if isinstance(outcome, dynamics.CycleDetected):
                marks.append(self.clock())
            self.step_ms.extend(
                (b - a) * 1000.0 for a, b in zip(marks, marks[1:]))
            return outcome

        return run

    def _trace_out(self, fn):
        """Trace output cost of one command: from the ``trace_to_doc`` call
        to the command's return, i.e. building the document plus the JSON
        dump to the ``--out`` file."""

        def main(*args, **kwargs):
            self._trace_doc_at = None
            try:
                return fn(*args, **kwargs)
            finally:
                if self._trace_doc_at is not None:
                    self.trace_out_s += self.clock() - self._trace_doc_at
                self._trace_doc_at = None

        return main

    def _trace_doc_start(self):
        if self._trace_doc_at is None:
            self._trace_doc_at = self.clock()

    def _reach_start(self):
        # canonical keys encode only the partition, not the game, so each
        # search gets its own set: states of two games never merge
        self.reach_keys.append(set())

    def _reach_key(self, key):
        # the span has been popped already, so the top frame is the caller
        if self.stack[-1][0] == "search.exists_path_to_is":
            self.reach_keys[-1].add(key)

    def _count_tolerable(self, pool):
        self.tolerable += len(pool)

    # -- report -------------------------------------------------------------

    def table(self) -> dict:
        """Every span: calls, inclusive and self seconds, callers."""
        return {
            name: {
                "calls": stat.calls,
                "incl_s": stat.incl,
                "self_s": stat.self_time,
                "callers": dict(stat.parents),
            }
            for name, stat in sorted(self.stats.items())
        }

    def layer_metrics(self) -> dict:
        s = self.stats

        def calls(name):
            return s[name].calls if name in s else 0

        def incl(name):
            return s[name].incl if name in s else 0.0

        def own(name):
            return s[name].self_time if name in s else 0.0

        def under(name, parent):
            return s[name].parents.get(parent, 0) if name in s else 0

        exists_s = incl("search.exists_pruned") + incl("search.exists_plain")
        candidates = (under("dynamics.has_move", "search.exists_pruned")
                      + under("dynamics.has_move", "search.exists_plain"))
        applied = under("core.apply", "search.exists_path_to_is")
        states = sum(map(len, self.reach_keys))
        new_states = states - calls("search.exists_path_to_is")  # minus starts
        steps = sorted(self.step_ms)
        claim_total = sum(incl(f"instances.check_claim.{k}") for k in CLAIM_KINDS)
        m = {
            "dynamics.iter_moves_s": (own("dynamics.iter_moves"), "s"),
            "dynamics.iter_moves_calls": (calls("dynamics.iter_moves"), "count"),
            "dynamics.moves_yielded": (self.moves_yielded, "count"),
            "dynamics.has_move_s": (own("dynamics.has_move"), "s"),
            "dynamics.has_move_calls": (calls("dynamics.has_move"), "count"),
            "dynamics.step_ms_p50": (_median(steps), "ms"),
            "dynamics.step_ms_tail": (tail_percentile(steps)[1], "ms"),
            "dynamics.step_samples": (len(steps), "count"),
            "dynamics.replay_s": (incl("dynamics.replay"), "s"),
            "core.apply_s": (own("core.apply"), "s"),
            "core.apply_calls": (calls("core.apply"), "count"),
            "core.partition_new": (calls("core.partition"), "count"),
            "core.partition_s": (own("core.partition"), "s"),
            "core.canonicalize_s": (own("core.canonicalize"), "s"),
            "core.canonicalize_calls": (calls("core.canonicalize"), "count"),
            "core.deviation_failure_s": (own("core.deviation_failure"), "s"),
            "core.deviation_failure_calls": (calls("core.deviation_failure"), "count"),
            "core.iter_deviations_s": (own("core.iter_deviations"), "s"),
            "games.prefers_calls": (calls("games.prefers"), "count"),
            "games.prefers_s": (own("games.prefers"), "s"),
            "games.order_compare_calls": (calls("games.order_compare"), "count"),
            "games.single_peaked_s": (incl("games.single_peaked"), "s"),
            "potentials.on_step_s": (own("potentials.on_step"), "s"),
            "potentials.on_step_calls": (calls("potentials.on_step"), "count"),
            "search.exists_pruned_s": (incl("search.exists_pruned"), "s"),
            "search.exists_plain_s": (incl("search.exists_plain"), "s"),
            "search.candidates": (candidates, "count"),
            "search.candidates_per_s": (
                candidates / exists_s if exists_s else 0.0, "1/s"),
            "search.tolerable_coalitions_s": (
                incl("search.tolerable_coalitions"), "s"),
            "search.tolerable_coalitions": (self.tolerable, "count"),
            "search.reach_states": (states, "count"),
            "search.reach_dup_ratio": (
                (applied - new_states) / applied if applied else 0.0, "ratio"),
            "instances.random_s": (incl("instances.random"), "s"),
            "instances.build_s": (incl("instances.build"), "s"),
            "instances.reduce_s": (incl("instances.reduce"), "s"),
            "instances.check_claim_s": (claim_total, "s"),
            "cli.loads_instance_s": (incl("cli.loads_instance"), "s"),
            "cli.trace_out_s": (self.trace_out_s, "s"),
        }
        for kind in CLAIM_KINDS:
            m[f"instances.check_claim_s.{kind}"] = (
                incl(f"instances.check_claim.{kind}"), "s")
        return m


def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(sorted_values) -> tuple[float, float]:
    """(percentile, value) for the highest percentile among 90, 99, 99.9...
    that still leaves at least ten samples above it; the median when there
    are too few samples for any of them."""
    n = len(sorted_values)
    if not n:
        return 50.0, 0.0
    best = (50.0, _median(sorted_values))
    pct = 90.0
    while n * (1 - pct / 100.0) >= 10:
        index = min(n - 1, int(pct / 100.0 * n))
        best = (pct, sorted_values[index])
        pct = 100.0 - (100.0 - pct) / 10.0
    return best
