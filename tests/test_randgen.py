"""Seeded instance generation: determinism, restrictions, rejection paths."""

import hashlib
import json
import tracemalloc

import pytest

from hedonic_dynamics import cli
from hedonic_dynamics.games import AnonymousGame, WeakOrder, dhg_is_symmetric, is_strict_game
from hedonic_dynamics.instances import (
    GENERATOR_KINDS,
    InconsistentRestrictions,
    build,
    random,
    verify_instance,
)
from hedonic_dynamics.instances.randgen import _shuffled_ranks
from hedonic_dynamics.prng import SplitMix64


def test_same_seed_same_instance():
    for kind in GENERATOR_KINDS:
        a = random(kind, 8, seed=424242)
        b = random(kind, 8, seed=424242)
        assert a.id == b.id
        assert a.starts["singletons"] == b.starts["singletons"]
        if kind == "ahg":
            assert [o.classes for o in a.game.orders] == [o.classes for o in b.game.orders]
        elif kind == "hdg":
            assert a.game.colors == b.game.colors
            assert [o.classes for o in a.game.orders] == [o.classes for o in b.game.orders]
        elif kind == "fhg":
            assert a.game.weights == b.game.weights
        else:
            assert a.game.approvals == b.game.approvals


def test_different_seeds_differ():
    seen = {random("fhg", 9, seed=s).game.weights[0][1:] for s in range(8)}
    assert len(seen) > 1
    seen = {tuple(map(tuple, random("ahg", 9, seed=s).game.orders[0].classes))
            for s in range(8)}
    assert len(seen) > 1


def test_identifier_reflects_non_default_restrictions():
    plain = random("dhg", 6, seed=7)
    assert plain.id == "random-dhg(n=6,seed=7)"
    tagged = random("dhg", 6, seed=7, restrictions={"symmetric": True})
    assert tagged.id == "random-dhg(n=6,seed=7;symmetric=True)"
    assert len(plain.labels) == 6


def test_restricted_generation_carries_checked_claims():
    instances = [
        random("ahg", 10, seed=1, restrictions={"strict": True}),
        random("ahg", 10, seed=2, restrictions={"natural-sp": True}),
        random("ahg", 10, seed=3, restrictions={"strict": True, "natural-sp": True}),
        random("hdg", 9, seed=4, restrictions={"strict": True, "reds": 3}),
        random("hdg", 9, seed=5, restrictions={"natural-sp": True}),
        random("fhg", 9, seed=6, restrictions={"family": "simple-symmetric"}),
        random("fhg", 9, seed=7, restrictions={"family": "symmetric-nonnegative"}),
        random("fhg", 9, seed=8, restrictions={"family": "dag"}),
        random("dhg", 7, seed=9, restrictions={"symmetric": True}),
    ]
    for inst in instances:
        assert inst.expected, inst.id
        verify_instance(inst)


def test_strictness_restriction_bites():
    for seed in range(5):
        strict = random("ahg", 12, seed=seed, restrictions={"strict": True})
        assert is_strict_game(strict.game)
    loose = [is_strict_game(random("ahg", 12, seed=s).game) for s in range(10)]
    assert not all(loose)


def test_symmetry_restriction_bites():
    for seed in range(5):
        inst = random("dhg", 6, seed=seed, restrictions={"symmetric": True})
        assert dhg_is_symmetric(inst.game)
    loose = [dhg_is_symmetric(random("dhg", 6, seed=s).game) for s in range(10)]
    assert not all(loose)


def test_red_count_restriction():
    inst = random("hdg", 10, seed=0, restrictions={"reds": 4})
    assert sum(1 for c in inst.game.colors if c.name == "RED") == 4
    default = random("hdg", 10, seed=0)
    assert sum(1 for c in default.game.colors if c.name == "RED") == 5


def test_rejections():
    cases = [
        ("zzz", 5, {}),
        ("ahg", 0, {}),
        ("ahg", 5, {"reds": 2}),
        ("hdg", 65, {}),
        ("hdg", 8, {"reds": -1}),
        ("hdg", 8, {"reds": 9}),
        ("hdg", 8, {"reds": "half"}),
        ("fhg", 8, {"family": "weighted"}),
        ("fhg", 8, {"low": 5, "high": -5}),
        ("dhg", 15, {}),
        ("dhg", 8, {"density": 0}),
        ("dhg", 8, {"density": 101}),
        ("dhg", 8, {"density": "30"}),
        # each value must have the type of its default; a bool is no int
        ("fhg", 8, {"low": "a"}),
        ("fhg", 8, {"high": "zz"}),
        ("fhg", 8, {"low": True}),
        ("fhg", 8, {"family": 3}),
        ("ahg", 8, {"strict": "maybe"}),
        ("ahg", 8, {"natural-sp": 1}),
        ("hdg", 8, {"natural-sp": "maybe"}),
        ("hdg", 8, {"reds": True}),
        ("dhg", 8, {"symmetric": "maybe"}),
        ("dhg", 8, {"density": True}),
    ]
    for kind, n, restrictions in cases:
        with pytest.raises(InconsistentRestrictions):
            random(kind, n, seed=0, restrictions=restrictions)
    for seed in (-1, 1 << 64):
        with pytest.raises(InconsistentRestrictions, match="seed must fit in 64 bits"):
            random("ahg", 5, seed)


def test_dense_size_orders_stay_compact():
    """An ahg order is one array of ranks indexed by size: building 400
    agents' orders over 400 sizes, and their game, from rank lists drawn
    beforehand peaks at about 0.47 MB under tracemalloc, against about 9 MB
    with one dict per order.  The draws run untraced, since tracing their
    arithmetic costs seconds and measures nothing about the orders."""
    rng = SplitMix64(1)
    ranks = [_shuffled_ranks(rng, 400, False) for _ in range(400)]
    tracemalloc.start()
    try:
        game = AnonymousGame([WeakOrder.over_sizes(r) for r in ranks])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert game.orders == random("ahg", 400, seed=1).game.orders
    assert peak < 1_000_000, peak


def test_generated_bundled_and_loaded_size_orders_are_arrays():
    """The key set alone picks the table: generated, bundled and loaded ahg
    orders all hold the size array, and an hdg order over ratios a dict."""
    generated = random("ahg", 6, seed=2)
    loaded = cli.doc_to_instance(json.loads(cli.dumps_instance(generated)))
    for instance in (generated, build("ahg7"), loaded):
        assert all(o._sizes is not None for o in instance.game.orders), instance.id
    assert loaded.game.orders == generated.game.orders
    assert all(o._sizes is None for o in random("hdg", 6, seed=2).game.orders)


#: sha256 of ``hedyn gen --random KIND --n N --seed S [--restrict ...]``,
#: recorded before ahg orders were stored as size arrays
GOLDEN_GENERATED = [
    ("ahg", 30, 1, [], "da86dbe4dadb335f9679af4121066aed03d63e84fec70af1232085af3274bdde"),
    ("ahg", 30, 2, [], "f86b2b5174f1776f6edbd8d294d2d8a40db0f33ffc877f86cd23935b2c1ff7c6"),
    ("ahg", 300, 3, [], "a0083624b05d3ad1da304be68321452f7bf53fcde794610ce175f0aee1d80fae"),
    ("ahg", 30, 4, ["strict=true"],
     "ad51f639500c1e810061a6f2245d137935823421433592fea43b148036ba9d14"),
    ("ahg", 30, 5, ["natural-sp=true"],
     "b7499afdb4583bf57635361d950ff195a3d177f3d1afa12e5a2b48581ceec428"),
    ("ahg", 300, 6, ["strict=true", "natural-sp=true"],
     "cd7e7dedd2b0675f23625b144610847001c926b50a796328ec87999c66159904"),
    ("ahg", 1, 7, [], "b6c7dd7bbcb950777aece4bbc4a8efaf9ce12433b645c22fe508db4c9535a749"),
    ("hdg", 9, 1, [], "c68a14297cb4c3588d1d4858c5c0159b5fe63be2c3d19abb428b9df0fc4a6aee"),
    ("hdg", 12, 2, ["natural-sp=true"],
     "285efa47ac081659a5a3a363c81131a27c899396862f9baa969211743efd9c1e"),
]


@pytest.mark.parametrize("kind,n,seed,restrict,digest", GOLDEN_GENERATED)
def test_generated_files_are_golden(tmp_path, capsys, kind, n, seed, restrict, digest):
    out = tmp_path / "instance.json"
    argv = ["gen", "--random", kind, "--n", str(n), "--seed", str(seed)]
    if restrict:
        argv += ["--restrict", *restrict]
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # the document streamed to standard output is the same text
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
