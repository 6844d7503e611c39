"""The three benchmark workloads: inputs, timed operations and output checks.

Every input that is not a fixed catalog instance or toy formula comes from a
generator seed derived from the workload seed, so one seed always gives the
same games, the same policy seeds, and therefore the same step counts and
search answers.  See README.md for why each workload looks the way it does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

from hedonic_dynamics import cli, core, dynamics, search
from hedonic_dynamics import instances
from hedonic_dynamics.core import StabilityKind
from hedonic_dynamics.dynamics import Filtered, RunConfig, SeededRandom

#: step caps: every seed runs the same number of steps (none of these games
#: converges earlier), so the time of a run is comparable across seeds
AHG_STEPS = 10
FHG_STEPS = 20
HDG_STEPS = 2
LONG_STEPS = 500
#: random games per class in run-enum: their cost per step differs by 10 to
#: 20 % from game to game, so several short runs average that out
ENUM_GAMES = 3

#: PrunedFHG inputs are the first pair of fhg(n=14) games drawn from the
#: seed whose cover counts (the candidates the scan tests) each lie in
#: COVER_BAND and together in PAIR_BAND; the scan cost is about
#: proportional to the count, and unbanded draws differ a hundredfold
COVER_BAND = (20_000, 35_000)
PAIR_BAND = (52_000, 58_000)

TOY_FORMULAS = ("two-clause-chain", "two-clause-opposed")
#: fhg15's no-is claim takes minutes per run (PrunedFHG scans ~2.8M covers);
#: the banded PrunedFHG games above run the same scan at a size that fits
SKIPPED_CLAIMS = {("fhg15", "no-is")}


def derive(seed: int, label: str) -> int:
    """A 64-bit seed for one input, independent of the library's own PRNG."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def move_digest(moves) -> str:
    text = ";".join(
        f"{m.agent}>{'new' if m.target is core.NEW_SINGLETON else ','.join(map(str, m.target))}"
        for m in moves
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Op:
    """One timed call.  ``fingerprint`` condenses its result (outcome type,
    step count, digest) so repetitions and the stored expectations can be
    compared; ``check`` runs the oracle checks and returns failures."""

    name: str
    kind: str
    call: Callable[[], object]
    fingerprint: Callable[[object], dict]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    setup: Callable[[], dict]
    ops: Callable[[dict], list]
    cleanup: Callable[[], None] = field(default=lambda: None)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _trace_of(outcome):
    return outcome.witness if isinstance(outcome, dynamics.CycleDetected) else outcome.trace


def _oracle_failures(game, states, label) -> list:
    """MoveFinder against the core reference enumeration."""
    out = []
    finder = dynamics.MoveFinder(game)
    for index, state in states:
        fast = list(finder.iter_moves(state))
        slow = core.enumerate_deviations(game, state, StabilityKind.IS)
        if fast != slow:
            out.append(f"{label}: MoveFinder disagrees with core at state {index}")
    return out


def _sampled(states, seed, label, count=2):
    """``count`` states of a run for the oracle check: the final state, then
    a seeded earlier one."""
    last = len(states) - 1
    picks = [last, derive(seed, label) % max(last, 1)][:count]
    return [(i, states[i]) for i in sorted(set(picks))]


def _run_checks(game, seed, label, oracle_states):
    def check(outcome):
        trace = _trace_of(outcome)
        try:
            dynamics.validate_trace(game, trace)
        except dynamics.DynamicsError as exc:
            return [f"{label}: trace fails validate_trace: {exc}"]
        states = _sampled(trace.states(), seed, label, oracle_states)
        return _oracle_failures(game, states, label)

    return check


def _run_fingerprint(outcome) -> dict:
    trace = _trace_of(outcome)
    return {"outcome": type(outcome).__name__, "steps": len(trace),
            "digest": move_digest(trace.moves)}


# ---------------------------------------------------------------------------
# run-enum
# ---------------------------------------------------------------------------


def _enum_setup(seed):
    def setup():
        inputs = {"hdg-0": instances.build("hdg-assembled")}
        for i in range(ENUM_GAMES):
            inputs[f"ahg-{i}"] = instances.random("ahg", 400, derive(seed, f"ahg-{i}"))
            inputs[f"fhg-{i}"] = instances.random("fhg", 200, derive(seed, f"fhg-{i}"))
        return inputs

    return setup


def _enum_ops(seed):
    caps = {"ahg": AHG_STEPS, "fhg": FHG_STEPS, "hdg": HDG_STEPS}

    def ops(inputs):
        out = []
        for name, instance in sorted(inputs.items()):
            kind = name.split("-")[0]
            game = instance.game
            start = instance.starts["singletons"]
            policy = SeededRandom(derive(seed, f"{name}-policy"))
            if kind == "hdg":
                policy = Filtered(policy)
            config = RunConfig(max_steps=caps[kind])
            # two oracle states per class: one per run of a random class
            # (the core enumeration takes ~2.5 s per ahg n=400 state)
            oracle_states = 2 if kind == "hdg" else 1
            out.append(Op(
                name=name,
                kind=kind,
                call=lambda g=game, st=start, p=policy, c=config: dynamics.run(g, st, p, c),
                fingerprint=_run_fingerprint,
                check=_run_checks(game, seed, name, oracle_states),
            ))
        return out

    return ops


# ---------------------------------------------------------------------------
# run-long
# ---------------------------------------------------------------------------


def _long_workload(seed, workdir):
    instance_path = os.path.join(workdir, f"long-{seed}.json")
    trace_path = os.path.join(workdir, f"long-{seed}.trace.json")

    def setup():
        instance = instances.random("fhg", 300, derive(seed, "long"))
        with open(instance_path, "w", encoding="utf-8") as handle:
            handle.write(cli.dumps_instance(instance))
        return {"instance": instance}

    argv = ["run", instance_path, "--policy", "lex", "--monitors", "gamma",
            "--max-steps", str(LONG_STEPS), "--json-style", "--out", trace_path]

    def call():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        return code, out.getvalue()

    def fingerprint(result):
        code, printed = result
        if code != 0:
            return {"outcome": f"exit {code}"}
        with open(trace_path, "rb") as handle:
            raw = handle.read()
        doc = json.loads(raw)
        moves = [cli.doc_to_move({"agent": s["agent"], "target": s["target"]})
                 for s in doc["steps"]]
        return {"outcome": json.loads(printed)["type"],
                "steps": len(moves), "digest": move_digest(moves),
                "bytes": len(raw)}

    def ops(inputs):
        game = inputs["instance"].game

        def check(result):
            code, printed = result
            if code != 0:
                return [f"hedyn run exited with {code}"]
            with open(trace_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            failures = []
            if doc.get("outcome") != json.loads(printed):
                failures.append("trace file outcome differs from the printed one")
            try:
                cli.revalidate_trace_doc(game, doc)
            except (cli.CliClaimError, cli.CliUsageError) as exc:
                return failures + [f"trace file fails revalidate_trace_doc: {exc}"]
            n = game.n
            start = cli.doc_to_partition(doc["start"], n)
            steps = tuple(
                dynamics.TraceStep(
                    cli.doc_to_move({"agent": s["agent"], "target": s["target"]}),
                    cli.doc_to_partition(s["result"], n))
                for s in doc["steps"])
            trace = dynamics.Trace(start, steps)
            try:
                dynamics.validate_trace(game, trace)
            except dynamics.DynamicsError as exc:
                return failures + [f"trace fails validate_trace: {exc}"]
            return failures + _oracle_failures(
                game, _sampled(trace.states(), seed, "long"), "long")

        return [Op("fhg-long", "fhg", call, fingerprint, check)]

    def cleanup():
        for path in (instance_path, trace_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    return Workload("run-long", setup, ops, cleanup)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _tolerable_masks(weights) -> list[int]:
    """Coalitions (as bitmasks) in which every member's weight sum is >= 0."""
    n = len(weights)
    bad = [False] * (1 << n)
    for i, row in enumerate(weights):
        sums = [0]  # sums[mask]: agent i's weight sum over the members of mask
        for weight in row:
            sums += [total + weight for total in sums]
        bit = 1 << i
        bad = [b or (mask & bit and total < 0)
               for mask, (b, total) in enumerate(zip(bad, sums))]
    return [mask for mask in range(1, 1 << n) if not bad[mask]]


def _cover_count(n, masks) -> int:
    """Partitions of 0..n-1 into the given coalitions: the number of
    candidates a scan over tolerable coalitions has to test."""
    by_low = [[] for _ in range(n)]
    for mask in masks:
        by_low[(mask & -mask).bit_length() - 1].append(mask)
    memo = {0: 1}

    def count(free):
        value = memo.get(free)
        if value is None:
            low = (free & -free).bit_length() - 1
            value = sum(count(free & ~m) for m in by_low[low] if m & free == m)
            memo[free] = value
        return value

    return count((1 << n) - 1)


def banded_fhg_seeds(seed: int) -> list[int]:
    """Generator seeds of two fhg(n=14) games: in the seed's draw order, the
    first pair whose cover counts each lie in ``COVER_BAND`` and together
    in ``PAIR_BAND``.  Counted here rather than by the library, so the
    choice cannot move when the library changes."""
    banded = []  # (generator seed, cover count) of every game in the band
    draw = 0
    while True:
        gen_seed = derive(seed, f"pruned-{draw}")
        draw += 1
        weights = instances.random("fhg", 14, gen_seed).game.weights
        covers = _cover_count(14, _tolerable_masks(weights))
        if not COVER_BAND[0] <= covers <= COVER_BAND[1]:
            continue
        for other, count in banded:
            if PAIR_BAND[0] <= count + covers <= PAIR_BAND[1]:
                return [other, gen_seed]
        banded.append((gen_seed, covers))


def _certify_workload(seed):
    pruned_seeds = banded_fhg_seeds(seed)  # untimed: input selection

    def setup():
        toys = dict(instances.toy_formula_catalog())
        return {
            "pruned": [instances.random("fhg", 14, s) for s in pruned_seeds],
            "plain": [instances.random(k, 9, derive(seed, f"plain-{k}"))
                      for k in ("ahg", "hdg", "fhg", "dhg")],
            "reach": [(name, instances.reduce("sat-to-dhg-exists", toys[name]))
                      for name in TOY_FORMULAS],
            "catalog": [instances.build(cid) for cid in instances.catalog_ids()],
        }

    def exists_op(name, game, strategy):
        def fingerprint(answer):
            fp = {"outcome": type(answer).__name__}
            if isinstance(answer, search.StableExists):
                fp["digest"] = hashlib.sha256(
                    core.canonicalize(answer.witness)).hexdigest()[:16]
            return fp

        def check(answer):
            if isinstance(answer, search.StableExists):
                if not core.is_stable(game, answer.witness, StabilityKind.IS):
                    return [f"{name}: witness is not individually stable"]
                return []
            if isinstance(answer, search.NoStablePartition):
                return []
            return [f"{name}: no verdict ({type(answer).__name__})"]

        return Op(name, "exists",
                  lambda: search.exists_is_partition(game, strategy),
                  fingerprint, check)

    def reach_op(name, instance):
        game = instance.game
        start = instance.starts["initial"]

        def fingerprint(answer):
            fp = {"outcome": type(answer).__name__}
            if isinstance(answer, search.PathFound):
                fp["steps"] = len(answer.trace)
                fp["digest"] = move_digest(answer.trace.moves)
            return fp

        def check(answer):
            if isinstance(answer, search.NoPath):
                return []
            if not isinstance(answer, search.PathFound):
                return [f"{name}: no verdict ({type(answer).__name__})"]
            try:
                trace = dynamics.replay(game, start, answer.trace.moves)
            except dynamics.DynamicsError as exc:
                return [f"{name}: path does not replay: {exc}"]
            if not core.is_stable(game, trace.final, StabilityKind.IS):
                return [f"{name}: path ends in an unstable partition"]
            return []

        return Op(name, "reach", lambda: search.exists_path_to_is(game, start),
                  fingerprint, check)

    def claims_op(instance):
        claims = [c for c in instance.expected
                  if (instance.id, c.kind) not in SKIPPED_CLAIMS]

        def call():
            return [instances.check_claim(instance, claim) for claim in claims]

        def fingerprint(described):
            return {"outcome": "pass", "claims": len(described),
                    "digest": hashlib.sha256("\n".join(described).encode()).hexdigest()[:16]}

        return Op(f"claims-{instance.id}", "claims", call, fingerprint, lambda _: [])

    def ops(inputs):
        out = [exists_op(f"exists-pruned-{i}", inst.game, search.PrunedFHG())
               for i, inst in enumerate(inputs["pruned"])]
        out += [exists_op(f"exists-plain-{inst.game.kind}", inst.game, search.Plain())
                for inst in inputs["plain"]]
        out += [reach_op(f"reach-{name}", inst) for name, inst in inputs["reach"]]
        out += [claims_op(inst) for inst in inputs["catalog"]]
        return out

    return Workload("certify", setup, ops)


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "run-enum":
        return Workload(name, _enum_setup(seed), _enum_ops(seed))
    if name == "run-long":
        return _long_workload(seed, workdir)
    if name == "certify":
        return _certify_workload(seed)
    raise KeyError(name)


WORKLOADS = ("run-enum", "run-long", "certify")
