"""Command-line front end: instance files, trace files, and reports.

The file format is one versioned JSON document per instance.  Partitions are
written as sorted lists of sorted agent lists, rationals as ``"p/q"``
strings, and preference orders in one of three shapes: an explicit
``{"classes": [[...], ...]}`` weak order, a ``{"listed": ..., "completion":
...}`` pair completed over the instance's key domain, or a ``{"walk": ...}``
interval-walk prefix.  ``parse ∘ serialize`` is the identity on documents the
serializer produced, which keeps textual diffs meaningful in tests.

Exit codes are a stable contract: 0 when the requested report was produced
and every checked claim held, 1 when a claim or determination failed (a
scenario check failed, a scripted move was rejected, a search ran out of
budget), and 2 for usage errors and unparseable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .core import (
    NEW_SINGLETON,
    CoreError,
    DeviationMove,
    InvalidTarget,
    Partition,
    StabilityKind,
    apply,
    canonicalize,
    coalition,
    deviation_failure,
    enumerate_deviations,
    is_stable,
)
from .dynamics import (
    DeviationFilter,
    DynamicsError,
    FilterStarvation,
    Filtered,
    Lexicographic,
    RunConfig,
    Script,
    Scripted,
    SeededRandom,
    Converged,
    CycleDetected,
    StepLimitReached,
    Trace,
    run,
)
from .games import (
    AnonymousGame,
    AxisWalkOrder,
    Color,
    Completion,
    ComputedOrder,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    GameDefinitionError,
    RatioDomain,
    SizeDomain,
    WeakOrder,
)
from .instances import (
    Claim,
    ClaimFailed,
    InconsistentRestrictions,
    NamedInstance,
    REDUCTION_KINDS,
    ReductionError,
    SatFormula,
    UnknownReductionKind,
    X3CInstance,
    build,
    catalog_ids,
    check_claim,
    random as random_instance,
    reduce as reduce_problem,
)
from .potentials import MONITORS_BY_NAME, MonitorInvariantViolation, PreconditionViolated
from .search import (
    BudgetExhausted,
    ConvergesAlways,
    CycleReachable,
    NoPath,
    NoStablePartition,
    PathFound,
    Plain,
    PrunedFHG,
    SearchBudget,
    StableExists,
    TypeReduced,
    exists_is_partition,
    exists_path_to_is,
    all_paths_converge,
)

FORMAT_VERSION = 1

_EXIT_OK = 0
_EXIT_CLAIM = 1
_EXIT_USAGE = 2


class CliUsageError(Exception):
    """Bad flags or unparseable input; maps to exit code 2."""


class CliClaimError(Exception):
    """A checked claim or requested determination failed; exit code 1."""


# ---------------------------------------------------------------------------
# rationals and shared scalars
# ---------------------------------------------------------------------------


def dump_rational(value):
    """Integers stay integers; true rationals become ``"p/q"`` strings."""
    if isinstance(value, bool):
        raise CliUsageError(f"booleans are not rational values: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    raise CliUsageError(f"cannot serialize {value!r} as a rational")


def parse_rational(doc, where: str = "value"):
    if isinstance(doc, bool) or not isinstance(doc, (int, str)):
        raise CliUsageError(f"{where}: expected an integer or 'p/q' string, got {doc!r}")
    if isinstance(doc, int):
        return doc
    parts = doc.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]), 1)
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise CliUsageError(f"{where}: bad rational {doc!r} ({exc})") from None
    raise CliUsageError(f"{where}: bad rational {doc!r}")


def _fraction_key(doc, where: str) -> Fraction:
    value = parse_rational(doc, where)
    return value if isinstance(value, Fraction) else Fraction(value)


# ---------------------------------------------------------------------------
# partitions, moves, scripts
# ---------------------------------------------------------------------------


def partition_to_doc(partition: Partition) -> list:
    return sorted([list(block) for block in partition.blocks])


def _agent_list(doc, where: str) -> list:
    if not isinstance(doc, list) or any(isinstance(a, bool) or not isinstance(a, int) for a in doc):
        raise CliUsageError(f"{where}: expected a list of integer agent ids, got {doc!r}")
    return doc


def doc_to_partition(doc, n: int, where: str = "partition") -> Partition:
    if not isinstance(doc, list):
        raise CliUsageError(f"{where}: expected a list of agent lists")
    for block in doc:
        _agent_list(block, where)
    try:
        part = Partition(doc)
    except (CoreError, ValueError) as exc:
        raise CliUsageError(f"{where}: {exc}") from None
    if part.n != n:
        raise CliUsageError(f"{where}: covers {part.n} agents, instance has {n}")
    return part


def move_to_doc(move: DeviationMove) -> dict:
    target = "new-singleton" if move.target is NEW_SINGLETON else list(move.target)
    return {"agent": move.agent, "target": target}


def doc_to_move(doc, where: str = "move") -> DeviationMove:
    if not isinstance(doc, dict) or "agent" not in doc or "target" not in doc:
        raise CliUsageError(f"{where}: expected {{'agent': ..., 'target': ...}}")
    agent, target = doc["agent"], doc["target"]
    if isinstance(agent, bool) or not isinstance(agent, int):
        raise CliUsageError(f"{where}: agent must be an integer id, got {agent!r}")
    if target == "new-singleton":
        return DeviationMove(agent, NEW_SINGLETON)
    if not isinstance(target, list):
        raise CliUsageError(f"{where}: target must be an agent list or 'new-singleton'")
    try:
        return DeviationMove(agent, coalition(_agent_list(target, f"{where}.target")))
    except CoreError as exc:
        raise CliUsageError(f"{where}: {exc}") from None


def script_to_doc(script: Script) -> dict:
    doc = {
        "start": partition_to_doc(script.start),
        "moves": [move_to_doc(m) for m in script.moves],
    }
    if script.note:
        doc["note"] = script.note
    return doc


def doc_to_script(doc, n: int, where: str) -> Script:
    if not isinstance(doc, dict) or "start" not in doc or "moves" not in doc:
        raise CliUsageError(f"{where}: expected {{'start': ..., 'moves': ...}}")
    start = doc_to_partition(doc["start"], n, f"{where}.start")
    if not isinstance(doc["moves"], list):
        raise CliUsageError(f"{where}.moves: expected a list of moves")
    moves = [doc_to_move(m, f"{where}.moves[{i}]") for i, m in enumerate(doc["moves"])]
    return Script(start, moves, doc.get("note", ""))


# ---------------------------------------------------------------------------
# preference orders
# ---------------------------------------------------------------------------


def _order_to_doc(order, dump_key) -> dict:
    if isinstance(order, WeakOrder):
        return {"classes": [[dump_key(k) for k in cls] for cls in order.classes]}
    if isinstance(order, ComputedOrder):
        return {
            "listed": [[dump_key(k) for k in cls] for cls in order.listed_classes],
            "completion": order.completion.value,
        }
    if isinstance(order, AxisWalkOrder):
        return {"walk": [dump_key(k) for k in order.listed]}
    raise CliUsageError(f"cannot serialize preference order {order!r}")


def _doc_to_order(doc, domain, parse_key, where: str):
    if not isinstance(doc, dict):
        raise CliUsageError(f"{where}: expected an order object")
    try:
        if "classes" in doc:
            return WeakOrder(
                [[parse_key(k, where) for k in cls] for cls in doc["classes"]]
            )
        if "listed" in doc:
            completion = doc.get("completion", "bottom")
            try:
                rule = Completion(completion)
            except ValueError:
                raise CliUsageError(
                    f"{where}: unknown completion {completion!r}"
                ) from None
            listed = [[parse_key(k, where) for k in cls] for cls in doc["listed"]]
            return ComputedOrder(listed, domain, rule)
        if "walk" in doc:
            return AxisWalkOrder([parse_key(k, where) for k in doc["walk"]], domain)
    except GameDefinitionError as exc:
        raise CliUsageError(f"{where}: {exc}") from None
    raise CliUsageError(f"{where}: need one of 'classes', 'listed', 'walk'")


def _size_key(doc, where):
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise CliUsageError(f"{where}: coalition sizes must be integers, got {doc!r}")
    return doc


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


def _game_kind(game) -> str:
    if isinstance(game, AnonymousGame):
        return "ahg"
    if isinstance(game, DiversityGame):
        return "hdg"
    if isinstance(game, FractionalGame):
        return "fhg"
    if isinstance(game, DichotomousGame):
        return "dhg"
    raise CliUsageError(f"cannot serialize game {game!r}")


def game_to_doc(game) -> tuple[dict, list | None]:
    """The ``game`` section plus the top-level color list (two-color games)."""
    kind = _game_kind(game)
    colors = None
    if kind == "ahg":
        payload = {"orders": [_order_to_doc(o, lambda k: k) for o in game.orders]}
    elif kind == "hdg":
        colors = ["red" if c is Color.RED else "blue" for c in game.colors]
        payload = {"orders": [_order_to_doc(o, dump_rational) for o in game.orders]}
    elif kind == "fhg":
        payload = {
            "weights": [[dump_rational(w) for w in row] for row in game.weights]
        }
    else:
        payload = {
            "approvals": [sorted([list(c) for c in fam]) for fam in game.approvals]
        }
    return {"kind": kind, "n": game.n, "payload": payload}, colors


def doc_to_game(game_doc, colors_doc):
    if not isinstance(game_doc, dict):
        raise CliUsageError("game: expected an object")
    for field in ("kind", "n", "payload"):
        if field not in game_doc:
            raise CliUsageError(f"game: missing field {field!r}")
    kind, n, payload = game_doc["kind"], game_doc["n"], game_doc["payload"]
    if not isinstance(n, int) or n < 1:
        raise CliUsageError(f"game.n: expected a positive integer, got {n!r}")
    try:
        if kind == "ahg":
            orders = payload["orders"]
            domain = SizeDomain(n)
            return AnonymousGame(
                [
                    _doc_to_order(o, domain, _size_key, f"game.payload.orders[{i}]")
                    for i, o in enumerate(orders)
                ]
            )
        if kind == "hdg":
            if not isinstance(colors_doc, list):
                raise CliUsageError("colors: required for two-color games")
            colors = []
            for i, name in enumerate(colors_doc):
                if name not in ("red", "blue"):
                    raise CliUsageError(f"colors[{i}]: expected 'red' or 'blue'")
                colors.append(Color.RED if name == "red" else Color.BLUE)
            reds = sum(1 for c in colors if c is Color.RED)
            domain = RatioDomain(reds, len(colors) - reds)
            orders = [
                _doc_to_order(o, domain, _fraction_key, f"game.payload.orders[{i}]")
                for i, o in enumerate(payload["orders"])
            ]
            return DiversityGame(colors, orders)
        if kind == "fhg":
            weights = [
                [parse_rational(w, f"game.payload.weights[{i}][{j}]") for j, w in enumerate(row)]
                for i, row in enumerate(payload["weights"])
            ]
            return FractionalGame(weights)
        if kind == "dhg":
            return DichotomousGame(
                n, [[coalition(c) for c in fam] for fam in payload["approvals"]]
            )
    except CliUsageError:
        raise
    except (GameDefinitionError, CoreError, KeyError, TypeError, ValueError) as exc:
        raise CliUsageError(f"game payload for kind {kind!r}: {exc}") from None
    raise CliUsageError(f"game.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# claims and whole instances
# ---------------------------------------------------------------------------


def _encode_json_value(value):
    """Lossy-for-keys, lossless-for-values encoding of monitor readings and
    claim parameters: fractions become strings, mapping keys become strings."""
    if isinstance(value, Fraction):
        return dump_rational(value)
    if isinstance(value, dict):
        return {str(k): _encode_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_json_value(v) for v in value]
    return value


def claim_to_doc(claim: Claim) -> dict:
    return {
        "kind": claim.kind,
        "subject": claim.subject,
        "holds": claim.holds,
        "params": _encode_json_value(claim.params),
    }


def doc_to_claim(doc, where: str) -> Claim:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CliUsageError(f"{where}: expected {{'kind': ...}}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise CliUsageError(f"{where}.params: expected an object, got {params!r}")
    return Claim(doc["kind"], doc.get("subject", ""), doc.get("holds", True), dict(params))


def instance_to_doc(instance: NamedInstance) -> dict:
    game_doc, colors = game_to_doc(instance.game)
    doc = {"format_version": FORMAT_VERSION, "id": instance.id, "game": game_doc}
    if colors is not None:
        doc["colors"] = colors
    if instance.labels:
        doc["labels"] = list(instance.labels)
    if instance.starts:
        doc["starts"] = {
            name: partition_to_doc(p) for name, p in sorted(instance.starts.items())
        }
    if instance.scripts:
        doc["scripts"] = {
            name: script_to_doc(s) for name, s in sorted(instance.scripts.items())
        }
    if instance.expected:
        doc["expected"] = [claim_to_doc(c) for c in instance.expected]
    return doc


def _section(doc, name: str, kind: type):
    """An optional top-level section: a JSON object (dict) or array (list)."""
    value = doc.get(name, kind())
    if not isinstance(value, kind):
        raise CliUsageError(f"{name}: expected a {kind.__name__}, got {value!r}")
    return value


def doc_to_instance(doc) -> NamedInstance:
    if not isinstance(doc, dict):
        raise CliUsageError("instance file: expected a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise CliUsageError(
            f"format_version: expected {FORMAT_VERSION}, got {version!r}"
        )
    if "game" not in doc:
        raise CliUsageError("instance file: missing 'game' section")
    game = doc_to_game(doc["game"], doc.get("colors"))
    n = game.n
    starts = {
        name: doc_to_partition(p, n, f"starts[{name!r}]")
        for name, p in _section(doc, "starts", dict).items()
    }
    scripts = {
        name: doc_to_script(s, n, f"scripts[{name!r}]")
        for name, s in _section(doc, "scripts", dict).items()
    }
    expected = tuple(
        doc_to_claim(c, f"expected[{i}]")
        for i, c in enumerate(_section(doc, "expected", list))
    )
    labels = doc.get("labels")
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise CliUsageError(f"labels: expected a list of strings, got {labels!r}")
    if len(labels) != n or len(set(labels)) != n:
        raise CliUsageError(f"labels: need {n} distinct labels")
    return NamedInstance(
        doc.get("id", "unnamed"), game, starts, scripts, expected, tuple(labels)
    )


def dumps_instance(instance: NamedInstance) -> str:
    return json.dumps(instance_to_doc(instance), indent=2) + "\n"


def loads_instance(text: str) -> NamedInstance:
    return doc_to_instance(json.loads(text))


# ---------------------------------------------------------------------------
# trace files
# ---------------------------------------------------------------------------


def trace_to_doc(trace: Trace, outcome: dict | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "start": partition_to_doc(trace.start),
        "start_readings": _encode_json_value(trace.start_readings),
        "steps": [
            {
                "agent": step.move.agent,
                "target": move_to_doc(step.move)["target"],
                "result": partition_to_doc(step.result),
                "readings": _encode_json_value(step.readings),
            }
            for step in trace.steps
        ],
    }
    if outcome is not None:
        doc["outcome"] = outcome
    return doc


def revalidate_trace_doc(game, doc) -> int:
    """Re-check a trace document against the bare move predicates.

    Uses only :mod:`hedonic_dynamics.core`: every recorded move must be an
    admissible improving deviation and every recorded result must match
    applying the move.  Returns the number of validated steps.
    """
    if not isinstance(doc, dict) or "start" not in doc or "steps" not in doc:
        raise CliUsageError("trace file: expected {'start': ..., 'steps': ...}")
    state = doc_to_partition(doc["start"], game.n, "trace.start")
    steps = doc["steps"]
    if not isinstance(steps, list):
        raise CliUsageError("trace.steps: expected a list of steps")
    for index, step in enumerate(steps):
        where = f"trace.steps[{index}]"
        if not isinstance(step, dict) or "result" not in step:
            raise CliUsageError(
                f"{where}: expected {{'agent': ..., 'target': ..., 'result': ...}}"
            )
        move = doc_to_move(step, where)
        if not 0 <= move.agent < game.n:
            raise CliUsageError(f"{where}: agent {move.agent} out of range for n={game.n}")
        try:
            failure = deviation_failure(game, state, move, StabilityKind.IS)
        except InvalidTarget as exc:
            failure = str(exc)
        if failure is not None:
            raise CliClaimError(f"trace step {index} is not a valid deviation: {failure}")
        state = apply(state, move)
        recorded = doc_to_partition(step["result"], game.n, f"{where}.result")
        if canonicalize(recorded) != canonicalize(state):
            raise CliClaimError(f"trace step {index}: recorded result does not match")
    return len(steps)


# ---------------------------------------------------------------------------
# problem inputs for gen --reduce
# ---------------------------------------------------------------------------


def parse_dimacs(text: str) -> SatFormula:
    """Parse DIMACS CNF; clause terminators are 0, comments start with c."""
    header = None
    tokens: list[tuple[int, int]] = []  # (literal, source line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            fields = line.split()
            if header is not None or len(fields) != 4 or fields[1] != "cnf":
                raise CliUsageError(f"line {lineno}: malformed problem line {raw!r}")
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise CliUsageError(f"line {lineno}: malformed problem line {raw!r}") from None
            continue
        for field in line.split():
            try:
                tokens.append((int(field), lineno))
            except ValueError:
                raise CliUsageError(f"line {lineno}: not a literal: {field!r}") from None
    if header is None:
        raise CliUsageError("missing 'p cnf VARS CLAUSES' line")
    num_vars, num_clauses = header
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for literal, lineno in tokens:
        if literal == 0:
            if not current:
                raise CliUsageError(f"line {lineno}: empty clause")
            clauses.append(tuple(current))
            current = []
        else:
            if abs(literal) > num_vars:
                raise CliUsageError(
                    f"line {lineno}: literal {literal} exceeds declared {num_vars} variables"
                )
            current.append(literal)
    if current:
        raise CliUsageError("last clause is missing its terminating 0")
    if len(clauses) != num_clauses:
        raise CliUsageError(
            f"declared {num_clauses} clauses but found {len(clauses)}"
        )
    return SatFormula(tuple(clauses))


def parse_x3c_doc(doc) -> X3CInstance:
    if not isinstance(doc, dict) or "ground" not in doc or "sets" not in doc:
        raise CliUsageError("cover input: expected {'ground': [...], 'sets': [[...]]}")
    try:
        return X3CInstance(
            tuple(doc["ground"]), tuple(tuple(s) for s in doc["sets"])
        )
    except (ReductionError, TypeError) as exc:
        raise CliUsageError(f"cover input: {exc}") from None


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliUsageError(f"cannot read {path}: {exc}") from None


def _load_instance_file(path: str) -> NamedInstance:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return doc_to_instance(doc)


def _pick_start(instance: NamedInstance, args, flag="--start") -> Partition:
    if getattr(args, "inline", None) is not None:
        try:
            doc = json.loads(args.inline)
        except json.JSONDecodeError as exc:
            raise CliUsageError(
                f"--inline: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from None
        return doc_to_partition(doc, instance.game.n, "--inline")
    name = getattr(args, "partition", None) or getattr(args, "start", None)
    if name is None:
        if len(instance.starts) == 1:
            return next(iter(instance.starts.values()))
        if "singletons" in instance.starts:
            return instance.starts["singletons"]
        raise CliUsageError(
            f"{flag} required; instance has starts {sorted(instance.starts)}"
        )
    if name not in instance.starts:
        raise CliUsageError(
            f"unknown start {name!r}; instance has {sorted(instance.starts)}"
        )
    return instance.starts[name]


def _emit(args, human_lines, machine_doc) -> None:
    if args.json_style:
        print(json.dumps(machine_doc, indent=2))
    else:
        for line in human_lines:
            print(line)


def _search_budget(args) -> SearchBudget:
    states = None
    seconds = None
    if args.budget:
        head, _, tail = args.budget.partition(":")
        try:
            states = int(head)
            if tail:
                seconds = int(tail)
        except ValueError:
            raise CliUsageError(
                f"--budget: expected STATES or STATES:SECONDS, got {args.budget!r}"
            ) from None
    if seconds is None:
        env = os.environ.get("HD_BUDGET_SECONDS")
        if env is not None:
            try:
                seconds = int(env)
            except ValueError:
                raise CliUsageError(f"HD_BUDGET_SECONDS: not an integer: {env!r}") from None
    kwargs = {}
    if states is not None:
        kwargs["max_states"] = states
    if seconds is not None:
        kwargs["max_seconds"] = seconds
    try:
        return SearchBudget(**kwargs)
    except ValueError as exc:
        raise CliUsageError(f"--budget: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


_KINDS = {
    "nash": StabilityKind.NASH,
    "is": StabilityKind.IS,
    "cis": StabilityKind.CIS,
}


def _cmd_check(args) -> int:
    instance = _load_instance_file(args.instance)
    partition = _pick_start(instance, args, flag="--partition")
    kind = _KINDS[args.kind]
    moves = enumerate_deviations(instance.game, partition, kind)
    stable = not moves
    human = [
        f"instance: {instance.id} ({_game_kind(instance.game)}, n={instance.game.n})",
        f"kind: {args.kind}",
        f"stable: {'yes' if stable else 'no'}",
        f"admissible moves: {len(moves)}",
    ]
    for move in moves[:20]:
        target = move_to_doc(move)["target"]
        human.append(f"  agent {move.agent} -> {target}")
    if len(moves) > 20:
        human.append(f"  ... and {len(moves) - 20} more")
    _emit(args, human, {
        "instance": instance.id,
        "kind": args.kind,
        "stable": stable,
        "moves": [move_to_doc(m) for m in moves],
    })
    return _EXIT_OK


def _parse_policy(args, instance: NamedInstance):
    spec = args.policy
    if spec == "lex":
        base = Lexicographic()
        script_start = None
    elif spec.startswith("random:"):
        try:
            base = SeededRandom(int(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise CliUsageError(f"--policy random:SEED: {exc}") from None
        script_start = None
    elif spec.startswith("script:"):
        name = spec.split(":", 1)[1]
        if name not in instance.scripts:
            raise CliUsageError(
                f"unknown script {name!r}; instance has {sorted(instance.scripts)}"
            )
        script = instance.scripts[name]
        base = Scripted(script.moves)
        script_start = script.start
    else:
        raise CliUsageError(
            f"--policy: expected lex, random:SEED or script:NAME, got {spec!r}"
        )
    if args.filter is not None:
        base = Filtered(base, DeviationFilter(args.filter))
    return base, script_start


def _outcome_doc(outcome) -> dict:
    if isinstance(outcome, Converged):
        return {
            "type": "converged",
            "steps": outcome.steps,
            "final": partition_to_doc(outcome.final),
        }
    if isinstance(outcome, CycleDetected):
        return {
            "type": "cycle-detected",
            "prefix_len": outcome.prefix_len,
            "cycle_len": outcome.cycle_len,
        }
    return {"type": "step-limit", "steps": len(outcome.trace)}


def _cmd_run(args) -> int:
    instance = _load_instance_file(args.instance)
    policy, script_start = _parse_policy(args, instance)
    if args.start is None and script_start is not None:
        start = script_start
    else:
        start = _pick_start(instance, args)
    monitors = []
    for name in (args.monitors.split(",") if args.monitors else []):
        if name not in MONITORS_BY_NAME:
            raise CliUsageError(
                f"--monitors: unknown monitor {name!r}; "
                f"known: {', '.join(sorted(MONITORS_BY_NAME))}"
            )
        monitors.append(MONITORS_BY_NAME[name])
    try:
        config = RunConfig(max_steps=args.max_steps, monitors=tuple(monitors))
    except ValueError as exc:
        raise CliUsageError(f"--max-steps: {exc}") from None
    try:
        outcome = run(instance.game, start, policy, config)
    except PreconditionViolated as exc:
        raise CliUsageError(f"monitor precondition: {exc}") from None
    except (MonitorInvariantViolation, FilterStarvation, DynamicsError) as exc:
        raise CliClaimError(f"{type(exc).__name__}: {exc}") from None

    trace = outcome.trace if not isinstance(outcome, CycleDetected) else outcome.witness
    doc = _outcome_doc(outcome)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(trace_to_doc(trace, doc), handle, indent=2)
            handle.write("\n")
    human = [f"outcome: {doc['type']}"]
    human += [f"{k}: {v}" for k, v in doc.items() if k not in ("type", "final")]
    if "final" in doc:
        human.append(f"final: {doc['final']}")
    if args.out:
        human.append(f"trace written to {args.out}")
    _emit(args, human, doc)
    return _EXIT_OK


_STRATEGIES = {
    "plain": Plain,
    "type-reduced": TypeReduced,
    "pruned-fhg": PrunedFHG,
}


def _answer_doc(answer) -> dict:
    if isinstance(answer, StableExists):
        return {"answer": "stable-exists", "witness": partition_to_doc(answer.witness)}
    if isinstance(answer, NoStablePartition):
        return {"answer": "no-stable-partition", "states_checked": answer.states_checked}
    if isinstance(answer, PathFound):
        return {
            "answer": "path-found",
            "steps": len(answer.trace),
            "final": partition_to_doc(answer.trace.final),
        }
    if isinstance(answer, NoPath):
        return {"answer": "no-path", "states_explored": answer.states_explored}
    if isinstance(answer, ConvergesAlways):
        return {"answer": "converges-always", "states_explored": answer.states_explored}
    if isinstance(answer, CycleReachable):
        return {
            "answer": "cycle-reachable",
            "prefix_len": answer.prefix_len,
            "cycle_len": answer.cycle_len,
        }
    return {
        "answer": "budget-exhausted",
        "limit": answer.limit,
        "states_explored": answer.states_explored,
    }


def _cmd_search(args) -> int:
    instance = _load_instance_file(args.instance)
    budget = _search_budget(args)
    if args.mode == "exists-is":
        strategy = _STRATEGIES[args.strategy]()
        try:
            answer = exists_is_partition(instance.game, strategy, budget)
        except (GameDefinitionError, ValueError) as exc:
            raise CliUsageError(f"--strategy {args.strategy}: {exc}") from None
    else:
        if args.strategy != "plain":
            raise CliUsageError("--strategy only applies to --mode exists-is")
        start = _pick_start(instance, args)
        runner = exists_path_to_is if args.mode == "exists-path" else all_paths_converge
        answer = runner(instance.game, start, budget)
    doc = {"mode": args.mode, **_answer_doc(answer)}
    human = [f"mode: {args.mode}", f"answer: {doc['answer']}"]
    human += [f"{k}: {v}" for k, v in doc.items() if k not in ("mode", "answer")]
    _emit(args, human, doc)
    return _EXIT_CLAIM if isinstance(answer, BudgetExhausted) else _EXIT_OK


def _parse_kv(pairs, flag: str, parse_value) -> dict:
    out = {}
    for pair in pairs or []:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise CliUsageError(f"{flag}: expected KEY=VALUE, got {pair!r}")
        out[key] = parse_value(raw)
    return out


def _reduction_param(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise CliUsageError(f"--params: expected an integer or p/q, got {raw!r}") from None


def _restriction_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        return raw


def _cmd_gen(args) -> int:
    chosen = [flag for flag in ("bundled", "reduce", "random") if getattr(args, flag)]
    if len(chosen) != 1:
        raise CliUsageError("pick exactly one of --bundled, --reduce, --random")
    if chosen[0] == "bundled":
        if args.bundled not in catalog_ids():
            raise CliUsageError(
                f"unknown bundled id {args.bundled!r}; try: {', '.join(catalog_ids())}"
            )
        instance = build(args.bundled)
    elif chosen[0] == "reduce":
        if args.input is None:
            raise CliUsageError("--reduce needs --input FILE")
        kind = args.reduce
        params = _parse_kv(args.params, "--params", _reduction_param) or None
        text = _read_text(args.input)
        if kind.startswith("sat"):
            problem = parse_dimacs(text)
        else:
            try:
                problem = parse_x3c_doc(json.loads(text))
            except json.JSONDecodeError as exc:
                raise CliUsageError(
                    f"{args.input}: parse error at line {exc.lineno} "
                    f"column {exc.colno}: {exc.msg}"
                ) from None
        try:
            instance = reduce_problem(kind, problem, params)
        except UnknownReductionKind:
            raise CliUsageError(
                f"unknown reduction {kind!r}; known: {', '.join(REDUCTION_KINDS)}"
            ) from None
        except ReductionError as exc:
            raise CliUsageError(f"--reduce {kind}: {exc}") from None
    else:
        if args.n is None or args.seed is None:
            raise CliUsageError("--random needs --n and --seed")
        restrictions = _parse_kv(args.restrict, "--restrict", _restriction_value) or None
        try:
            instance = random_instance(args.random, args.n, args.seed, restrictions)
        except InconsistentRestrictions as exc:
            raise CliUsageError(f"--random: {exc}") from None
    text = dumps_instance(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {instance.id} (n={instance.game.n}) to {args.out}")
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def _cmd_verify(args) -> int:
    if args.list:
        for cid in catalog_ids():
            print(cid)
        return _EXIT_OK
    if args.scenario is None:
        raise CliUsageError("--scenario ID|all required (or --list)")
    if args.scenario == "all":
        ids = list(catalog_ids())
    elif args.scenario in catalog_ids():
        ids = [args.scenario]
    else:
        raise CliUsageError(
            f"unknown scenario {args.scenario!r}; try --list"
        )
    results = []
    for cid in ids:
        instance = build(cid)
        checked = []
        error = None
        for claim in instance.expected:
            try:
                checked.append(check_claim(instance, claim))
            except ClaimFailed as exc:
                error = f"{claim.describe()}: {exc}"
                break
        results.append({
            "id": cid,
            "status": "pass" if error is None else "fail",
            "claims": checked,
            "error": error,
        })
    passed = sum(1 for r in results if r["status"] == "pass")
    human = []
    for entry in results:
        human.append(f"{entry['id']}: {entry['status'].upper()} "
                     f"({len(entry['claims'])} claims)")
        if args.verbose:
            human += [f"  - {text}" for text in entry["claims"]]
        if entry["error"]:
            human.append(f"  ! {entry['error']}")
    human.append(f"==> {passed}/{len(results)} scenarios pass")
    _emit(args, human, {"scenarios": results, "all_pass": passed == len(results)})
    return _EXIT_OK if passed == len(results) else _EXIT_CLAIM


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedyn",
        description="Deviation dynamics for size, ratio, weight and approval games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json-style", action="store_true",
                       help="emit the machine-readable report instead of prose")

    p_check = sub.add_parser("check", help="is a partition stable; list admissible moves")
    p_check.add_argument("instance", help="instance file (JSON)")
    p_check.add_argument("--partition", help="name of a stored start")
    p_check.add_argument("--inline", help="partition as JSON, e.g. '[[0,1],[2]]'")
    p_check.add_argument("--kind", choices=sorted(_KINDS), default="is")
    common(p_check)
    p_check.set_defaults(handler=_cmd_check)

    p_run = sub.add_parser("run", help="drive the dynamics from a start partition")
    p_run.add_argument("instance")
    p_run.add_argument("--start", help="name of a stored start")
    p_run.add_argument("--policy", default="lex",
                       help="lex | random:SEED | script:NAME (default lex)")
    p_run.add_argument("--filter", choices=[f.value for f in DeviationFilter])
    p_run.add_argument("--max-steps", type=int, default=1_000_000)
    p_run.add_argument("--monitors", help="comma list: gamma,lambda,lex,anchor")
    p_run.add_argument("--out", help="write the trace file here")
    common(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_search = sub.add_parser("search", help="existence and reachability questions")
    p_search.add_argument("instance")
    p_search.add_argument("--mode", required=True,
                          choices=["exists-is", "exists-path", "converges"])
    p_search.add_argument("--strategy", choices=sorted(_STRATEGIES), default="plain")
    p_search.add_argument("--start", help="start partition for reachability modes")
    p_search.add_argument("--budget", help="STATES or STATES:SECONDS")
    common(p_search)
    p_search.set_defaults(handler=_cmd_search)

    p_gen = sub.add_parser("gen", help="emit an instance file")
    p_gen.add_argument("--bundled", metavar="ID", help="copy a bundled instance")
    p_gen.add_argument("--reduce", metavar="KIND",
                       help=f"one of: {', '.join(REDUCTION_KINDS)}")
    p_gen.add_argument("--input", help="problem input for --reduce "
                                       "(DIMACS for sat-*, JSON for x3c-*)")
    p_gen.add_argument("--params", nargs="+", metavar="KEY=VALUE",
                       help="reduction constants to override")
    p_gen.add_argument("--random", metavar="KIND", help="ahg | hdg | fhg | dhg")
    p_gen.add_argument("--n", type=int, help="agent count for --random")
    p_gen.add_argument("--seed", type=int, help="seed for --random")
    p_gen.add_argument("--restrict", nargs="+", metavar="KEY=VALUE",
                       help="generator restrictions, e.g. strict=true family=dag")
    p_gen.add_argument("--out", help="write here instead of stdout")
    common(p_gen)
    p_gen.set_defaults(handler=_cmd_gen)

    p_verify = sub.add_parser("verify",
                              help="re-check the claims bundled with the scenarios")
    p_verify.add_argument("--scenario", metavar="ID|all")
    p_verify.add_argument("--list", action="store_true", help="list scenario ids")
    p_verify.add_argument("--verbose", action="store_true",
                          help="print every claim description")
    common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else _EXIT_OK
    try:
        return args.handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except CliClaimError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return _EXIT_CLAIM


if __name__ == "__main__":
    sys.exit(main())
