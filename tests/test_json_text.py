"""The CLI's one JSON writer gives exactly ``json.dumps(value, indent=2)``.

Values are drawn from a seeded :class:`SplitMix64`, so a failure names a
draw that can be replayed.  Trace documents come from seeded runs of every
catalog instance under each monitor that applies to it.
"""

import io
import json
from fractions import Fraction

import pytest

from hedonic_dynamics import cli
from hedonic_dynamics.core import Partition
from hedonic_dynamics.dynamics import (
    CycleDetected,
    RunConfig,
    Scripted,
    SeededRandom,
    Trace,
    run,
)
from hedonic_dynamics.instances import build, catalog_ids, random as random_instance
from hedonic_dynamics.potentials import MONITORS_BY_NAME, PreconditionViolated
from hedonic_dynamics.prng import SplitMix64

#: ASCII, quotes and escapes, control characters, non-ASCII (a surrogate
#: pair among them) and the line separator
_CHARS = 'aZ09 "\\/\x00\x01\x1f\x7f\t\n\ré中 \U0001f600'

_FLOATS = (0.0, -0.0, 1.5, -2.25, 0.1, 1e16, 1e300, 5e-324,
           float("nan"), float("inf"), float("-inf"))


def _string(rng):
    return "".join(_CHARS[rng.below(len(_CHARS))] for _ in range(rng.below(6)))


def _scalar(rng):
    pick = rng.below(6)
    if pick == 0:
        return rng.randint(-10**6, 10**6) if rng.below(4) else rng.next_raw() - 2**63
    if pick == 1:
        return bool(rng.below(2))
    if pick == 2:
        return None
    if pick == 3:
        return _FLOATS[rng.below(len(_FLOATS))] if rng.below(2) else rng.randint(-99, 99) / 8
    return _string(rng)


def _key(rng):
    pick = rng.below(5)
    if pick == 0:
        return rng.randint(-50, 50)
    if pick == 1:
        return bool(rng.below(2))
    if pick == 2:
        return None
    if pick == 3:
        return _FLOATS[rng.below(len(_FLOATS))]
    return _string(rng)


def _ints(rng):
    """A flat int list or tuple; one in three holds a bool or a float that
    equals an int, so it compares equal to a plain-int block."""
    ints = [rng.randint(-9, 9) for _ in range(rng.below(6))]
    if ints and not rng.below(3):
        ints[rng.below(len(ints))] = (True, False, 1.0)[rng.below(3)]
    return tuple(ints) if rng.below(2) else ints


def _value(rng, depth, shared):
    pick = rng.below(8) if depth < 4 else 0
    if pick == 0:
        return _scalar(rng)
    if pick == 1:
        return _ints(rng)
    if pick == 2:
        # the same tuple object again, maybe at another depth
        if shared and rng.below(2):
            return shared[rng.below(len(shared))]
        shared.append(tuple(_ints(rng)))
        return shared[-1]
    if pick in (3, 4):
        items = [_value(rng, depth + 1, shared) for _ in range(rng.below(5))]
        return tuple(items) if pick == 3 else items
    return {_key(rng): _value(rng, depth + 1, shared) for _ in range(rng.below(5))}


def _assert_written_as_json_does(value):
    expected = json.dumps(value, indent=2)
    assert cli.json_text(value) == expected
    handle = io.StringIO()
    cli.write_json(value, handle)
    assert handle.getvalue() == expected + "\n"


def test_random_values_match_json_dumps():
    rng = SplitMix64(2024)
    for draw in range(2000):
        value = _value(rng, 0, [])
        try:
            _assert_written_as_json_does(value)
        except AssertionError:
            pytest.fail(f"draw {draw}: {value!r}")


def test_unencodable_values_raise_as_json_does():
    for value in (Fraction(1, 2), {(1, 2): 3}, [object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli.json_text(value)


def _seeded_runs():
    """(label, game, start) for every catalog instance, plus random games
    that the ascent-credit and lex-potential monitors accept."""
    for cid in catalog_ids():
        instance = build(cid)
        start = instance.starts.get("singletons") or next(iter(instance.starts.values()))
        yield cid, instance.game, start
    for kind, restrictions in (("ahg", {"strict": True, "natural-sp": True}),
                               ("fhg", {"family": "dag"})):
        instance = random_instance(kind, 9, 5, restrictions)
        yield instance.id, instance.game, instance.starts["singletons"]


def test_trace_documents_match_json_dumps():
    applied = set()
    for label, game, start in _seeded_runs():
        for name in (None, *MONITORS_BY_NAME):
            monitors = () if name is None else (MONITORS_BY_NAME[name],)
            try:
                outcome = run(game, start, SeededRandom(7),
                              RunConfig(max_steps=25, monitors=monitors))
            except PreconditionViolated:
                continue
            applied.add(name)
            trace = outcome.witness if isinstance(outcome, CycleDetected) else outcome.trace
            doc = cli.trace_to_doc(trace, cli._outcome_doc(outcome))
            assert cli.json_text(doc) == json.dumps(doc, indent=2), (label, name)
    assert applied == {None, *MONITORS_BY_NAME}


def test_edge_trace_documents_match_json_dumps():
    instance = build("ahg7")
    script = instance.scripts["cycle"]
    outcome = run(instance.game, script.start, Scripted(script.moves),
                  RunConfig(monitors=(MONITORS_BY_NAME["gamma"],)))
    assert isinstance(outcome, CycleDetected)
    docs = [
        cli.trace_to_doc(outcome.witness, cli._outcome_doc(outcome)),
        cli.trace_to_doc(outcome.witness),  # outcome=None
        cli.trace_to_doc(Trace(Partition.singletons(7), ())),
        cli.trace_to_doc(Trace(Partition([]), ())),
    ]
    for doc in docs:
        _assert_written_as_json_does(doc)
