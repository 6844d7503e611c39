"""The benchmark's tracer still fits the library it wraps.

``bench/tracing.py`` replaces library functions and ``MoveFinder`` methods
by name and drives ``iter_moves`` with ``next``; a renamed method or an
``iter_moves`` that stops returning an iterator would break traced
benchmark runs, which the tier-1 suite does not otherwise exercise.
"""

import importlib.util
from pathlib import Path

from hedonic_dynamics import core, dynamics, instances, search
from hedonic_dynamics.core import Partition
from hedonic_dynamics.dynamics import RunConfig, SeededRandom

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_over_the_library_and_uninstalls():
    tracing = load_tracing()
    originals = [
        (dynamics.MoveFinder, "iter_moves", vars(dynamics.MoveFinder)["iter_moves"]),
        (dynamics.MoveFinder, "has_move", vars(dynamics.MoveFinder)["has_move"]),
        (core, "apply", core.apply),
        (search, "replay", search.replay),
        (dynamics, "run", dynamics.run),
    ]
    game = instances.random("ahg", 30, 4).game
    reach = instances.reduce(
        "sat-to-dhg-exists", dict(instances.toy_formula_catalog())["two-clause-chain"])
    small = instances.random("fhg", 6, 2).game
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = dynamics.run(
            game, Partition.singletons(30), SeededRandom(5), RunConfig(max_steps=20))
        path = search.exists_path_to_is(reach.game, reach.starts["initial"])
        # no search lists moves through `iter_moves`, which the tracer
        # still wraps by name and counts the moves of
        listed = list(dynamics.MoveFinder(game).iter_moves(Partition.singletons(30)))
        answer = search.exists_is_partition(small, search.Plain())
    finally:
        tracer.uninstall()
    for owner, name, original in originals:
        assert vars(owner)[name] is original, name
    assert len(outcome.trace) > 0
    assert listed
    assert isinstance(path, (search.PathFound, search.NoPath))
    assert isinstance(answer, (search.StableExists, search.NoStablePartition))
    spans = tracer.table()
    assert spans["dynamics.run"]["calls"] == 1
    assert spans["dynamics.iter_moves"]["calls"] > 0
    assert spans["dynamics.has_move"]["calls"] > 0
    assert spans["core.apply"]["calls"] >= len(outcome.trace)
    assert tracer.moves_yielded > 0
    assert len(tracer.reach_keys) == 1  # one key set per reachability search
    assert tracer.layer_metrics()["search.candidates"][0] > 0
