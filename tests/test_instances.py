"""Bundled instance catalog: builds, scripts, claims."""

import dataclasses
import hashlib
import re

import pytest

from hedonic_dynamics import cli, dynamics
from hedonic_dynamics.core import Partition, is_stable, StabilityKind
from hedonic_dynamics.instances import (
    Claim,
    ClaimFailed,
    UnknownId,
    build,
    catalog_ids,
    check_claim,
    walk_moves,
)


# --- registry ----------------------------------------------------------------


def test_catalog_ids_cover_expected_entries():
    ids = catalog_ids()
    assert len(ids) == len(set(ids))
    for required in (
        "ahg7",
        "ahg15",
        "hdg12-no-sp",
        "hdg10-weak",
        "hdg10-forced-strict",
        "hdg10-forced-weak-sp",
        "hdg26-sp-strict-solitary",
        "hdg-assembled",
        "fhg15",
        "fhg-triangle",
        "fhg-clique(3)",
        "fhg-clique(4)",
        "fhg-clique(5)",
        "dhg3",
    ):
        assert required in ids


def test_unknown_id_raises():
    with pytest.raises(UnknownId):
        build("no-such-instance")
    with pytest.raises(UnknownId):
        build("fhg-clique(1)")  # needs at least two blocks


def test_clique_id_parses_beyond_the_listed_sizes():
    inst = build("fhg-clique(6)")
    assert inst.game.n == 21
    assert len(inst.scripts["tour"].moves) == 5 * 6 * 7 // 6


def test_build_returns_fresh_objects():
    a, b = build("ahg7"), build("ahg7")
    assert a is not b
    assert a.starts["cycle-start"] == b.starts["cycle-start"]


#: id -> sha256 of ``cli.dumps_instance(build(id))``: a moved claim, a renamed
#: start or a changed note shows here, where parse/serialize identity would not
#: (``variable_gadget_cycle`` is pinned by ``test_golden_gadget_cycle``)
GOLDEN_DOCUMENTS = {
    "ahg7": "d5b8fbfc736038e5dbb8e892065d17cb99af4ae82f639efb1fc2bea891b25fec",
    "ahg15": "be7c1d80749e2735b244b2e1c7a82e856c57f642ac01c57c9699be948162d279",
    "hdg12-no-sp": "0ef289210f733ef81097462687301e5577c571c416fd5c991d088335b84f100a",
    "hdg10-weak": "2e2bee06588900e7c1df0bd2e357b1a33a12c629719e81f3dbaad0ed54a27312",
    "hdg10-forced-strict":
        "bcde3fa88796ab1db34cf9edb8592010f2bba63488644ac6a722e23b2ef8657d",
    "hdg10-forced-weak-sp":
        "40c004266ffcba45c3f37bd77438f098203c675b2b4be7d6b0128fa49cd7ab6e",
    "hdg26-sp-strict-solitary":
        "47fe15efa3357b7fc2e79718d63447b6ab24c33d53d6474ea6783877e0c8894e",
    "hdg-assembled": "2dcd18851c98bd5128fe9c6f12e3c1af34aa47736bbb2e0c752eccdfded4c06f",
    "fhg15": "e4e790b080bb0ae0b0991fc2469458af0901fc01c9e3465e5d8b9a852dadf31a",
    "fhg-triangle": "8f57439412a54125f53e6d12b6b1504a58c02c14ab05d9564c4c8557549394ec",
    "dhg3": "727d72fbee986976c090efda0661f4bf28cedabd5468592ff8e4594ecfb14cee",
    "fhg-clique(3)": "5d4aa71ba4a4c14400f413a1fd3a6e49dcb8799aa046d84f9690ed8300e4f930",
    "fhg-clique(4)": "9a2c0e8972d1fe25744d075d637fc84273679794a4036a4c621ecd9e4d13706c",
    "fhg-clique(5)": "cd3119b4b0ff83d9ac3906731e7682e2685db1109d18501fad6596f0ce5d45b5",
    "fhg-clique(6)": "df3768eabc1a62a08323d91f5b682a62d9ba1a63580182aa8529d336838b7f96",
}


def test_golden_documents_cover_the_catalog():
    assert set(catalog_ids()) <= set(GOLDEN_DOCUMENTS)


@pytest.mark.parametrize("iid", GOLDEN_DOCUMENTS)
def test_golden_document(iid):
    text = cli.dumps_instance(build(iid))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DOCUMENTS[iid]


def test_labels_are_unique_and_aligned():
    for iid in catalog_ids():
        inst = build(iid)
        assert len(inst.labels) == inst.game.n
        assert len(set(inst.labels)) == inst.game.n
        assert inst.agent(inst.labels[0]) == 0


# --- every script replays; every cycle closes --------------------------------


ALL_SCRIPTS = sorted((iid, name) for iid in catalog_ids() for name in build(iid).scripts)


@pytest.mark.parametrize("iid, name", ALL_SCRIPTS, ids=[f"{i}/{n}" for i, n in ALL_SCRIPTS])
def test_bundled_script_replays(iid, name):
    inst = build(iid)
    script = inst.scripts[name]
    trace = dynamics.replay(inst.game, script.start, script.moves)
    assert len(trace.moves) == len(script.moves)


def test_every_cycle_script_returns_to_its_start():
    closed = 0
    for iid in catalog_ids():
        inst = build(iid)
        for claim in inst.expected:
            if claim.kind != "cycle":
                continue
            script = inst.scripts[claim.subject]
            trace = dynamics.replay(inst.game, script.start, script.moves)
            assert trace.final == script.start, f"{iid}/{claim.subject}"
            closed += 1
    assert closed >= 9  # at least one loop per family, several for the mixed ones


# --- bundled claims hold when re-derived --------------------------------------


@pytest.mark.parametrize("iid", sorted(catalog_ids()))
def test_bundled_claims_hold(iid):
    inst = build(iid)
    assert inst.expected, "every entry advertises at least one claim"
    for claim in inst.expected:
        check_claim(inst, claim)


def test_claim_checker_rejects_a_wrong_claim():
    inst = build("ahg7")
    with pytest.raises(ClaimFailed):
        check_claim(inst, Claim("cycle", "reach-from-singletons"))
    with pytest.raises(ClaimFailed):
        check_claim(inst, Claim("strict", holds=False))
    with pytest.raises(ClaimFailed):
        check_claim(inst, Claim("stable", "grand"))


def test_check_claim_refuses_unknown_kinds():
    with pytest.raises(ClaimFailed, match="unknown claim kind 'no-such-kind'"):
        check_claim(build("ahg7"), Claim("no-such-kind", "grand"))


def test_negated_bundled_claims_fail():
    accepted = []
    for iid in catalog_ids():
        inst = build(iid)
        for claim in inst.expected:
            negated = dataclasses.replace(claim, holds=not claim.holds)
            try:
                check_claim(inst, negated)
            except ClaimFailed:
                continue
            accepted.append(f"{iid}: {negated.describe()}")
    assert accepted == []


# a claim whose own inputs are broken fails whichever way ``holds`` points
FIXTURE_ERRORS = [
    ("ahg7", Claim("cycle", "nope")),
    ("ahg7", Claim("reaches", "reach-from-singletons")),
    ("ahg7", Claim("reaches", "reach-from-singletons", params={"state": "nope"})),
    ("ahg7", Claim("sp-on-axis")),
    ("ahg7", Claim("sp-on-axis", params={"axis": [1, 2, 3]})),
    ("ahg7", Claim("sp-on-axis", params={"axis": 5})),
    ("ahg7", Claim("sp-on-axis", params={"axis": None})),
    ("ahg7", Claim("sp-on-axis", params={"axis": [[1], [2]]})),
    ("ahg7", Claim("no-is", params={"strategy": "zzz"})),
    ("ahg7", Claim("no-is", params={"strategy": "pruned-fhg"})),
    ("ahg7", Claim("fhg-traits", params={"simple": True})),
    ("fhg-triangle", Claim("fhg-traits", params={"bogus": True})),
    ("fhg15", Claim("fhg-traits", params={"acyclic": False})),
    ("fhg-triangle", Claim("fhg-traits", params={"simple": 1})),
    ("ahg7", Claim("script-length", "cycle")),
    ("fhg-triangle", Claim("script-length", "reach-from-singletons",
                           params={"length": True})),
    ("ahg7", Claim("filtered", "cycle")),
    ("ahg7", Claim("stable", "nope")),
    ("dhg3", Claim("strict")),
    ("dhg3", Claim("unique-stable", "grand", params={"total": 6})),
    ("dhg3", Claim("unique-stable", "grand", params={"total": 5.0})),
    ("dhg3", Claim("no-path", "nope")),
]


@pytest.mark.parametrize("holds", [True, False])
@pytest.mark.parametrize(
    "iid, claim", FIXTURE_ERRORS, ids=[f"{i}:{c.describe()}" for i, c in FIXTURE_ERRORS]
)
def test_fixture_errors_fail_the_claim(iid, claim, holds):
    claim = dataclasses.replace(claim, holds=holds)
    with pytest.raises(ClaimFailed, match=re.escape(claim.describe())):
        check_claim(build(iid), claim)


def _with_broken_script():
    inst = build("hdg26-sp-strict-solitary")
    cycle = inst.scripts["cycle"]
    broken = dynamics.Script(cycle.start, cycle.moves[1:])
    with pytest.raises(dynamics.ScriptedMoveInvalid):
        dynamics.replay(inst.game, broken.start, broken.moves)
    inst.scripts["broken"] = broken
    return inst


@pytest.mark.parametrize("holds", [True, False])
@pytest.mark.parametrize("kind, params", [
    ("cycle", {}),
    ("reaches", {"state": "cycle-start"}),
    ("visits", {"state": "cycle-start"}),
    ("starts-at", {"state": "cycle-start"}),
    ("filtered", {}),
    ("forced", {}),
    ("script-length", {"length": 7}),
])
def test_a_script_that_does_not_replay_fails_every_script_claim(kind, params, holds):
    claim = Claim(kind, "broken", holds, params)
    with pytest.raises(ClaimFailed, match="invalid"):
        check_claim(_with_broken_script(), claim)


def test_replays_decides_whether_the_script_replays():
    inst = _with_broken_script()
    check_claim(inst, Claim("replays", "broken", holds=False))
    check_claim(inst, Claim("replays", "cycle"))
    with pytest.raises(ClaimFailed, match="invalid"):
        check_claim(inst, Claim("replays", "broken"))
    with pytest.raises(ClaimFailed):
        check_claim(inst, Claim("replays", "cycle", holds=False))


# --- pinned facts about individual entries ------------------------------------


def test_ahg7_second_agent_preference_prefix():
    inst = build("ahg7")
    order = inst.game.orders[inst.agent("2")]
    top_five = [c[0] for c in order.classes[:5]]
    assert top_five == [5, 3, 2, 1, 4]


def test_ahg7_witness_blocks():
    inst = build("ahg7")
    a = inst.agent
    witness = Partition(
        [
            [a("1")],
            [a("3"), a("5"), a("6")],
            [a("2"), a("4"), a("7")],
        ]
    )
    assert witness == inst.starts["is-witness"]
    assert is_stable(inst.game, witness, StabilityKind.IS)


def test_fhg15_weight_table_spot_checks():
    inst = build("fhg15")
    a = inst.agent
    w = inst.game.weights
    assert w[a("a1")][a("a2")] == 436
    assert w[a("b1")][a("c2")] == 236
    assert w[a("a1")][a("a3")] == -2251  # non-adjacent triangles
    assert w[a("a1")][a("b1")] == 228  # same triangle
    # the ring wraps: triangle 5 feeds triangle 1
    assert w[a("a5")][a("a1")] == 436


def test_dhg3_first_agent_approves_exactly_one_pair():
    inst = build("dhg3")
    first = inst.game.approvals[inst.agent("1")]
    assert first == frozenset({(0, 1)})


def test_hdg_assembled_population():
    inst = build("hdg-assembled")
    game = inst.game
    assert game.n == 228
    assert game.reds == 66 and game.blues == 162
    assert len(inst.scripts["build"].moves) == 336
    assert len(inst.scripts["cycle"].moves) == 8


def test_hdg26_cycle_is_eight_moves_all_filter_clean():
    inst = build("hdg26-sp-strict-solitary")
    script = inst.scripts["cycle"]
    assert len(script.moves) == 8
    for move in script.moves:
        assert dynamics.passes_filter(inst.game, move)


# --- helpers ------------------------------------------------------------------


def test_walk_moves_anchor_follows_the_anchor_agent():
    start = Partition.singletons(4)
    moves, end = walk_moves(start, [(0, 1), (2, 1), (3, None)])
    # the second hop targets agent 1's coalition *after* the first hop
    assert moves[1].target == (0, 1)
    assert end == Partition([[0, 1, 2], [3]])
