"""Bundled instance catalog: builds, scripts, claims."""

import pytest

from hedonic_dynamics import dynamics
from hedonic_dynamics.core import Partition, is_stable, StabilityKind
from hedonic_dynamics.games import Color
from hedonic_dynamics.instances import (
    CATALOG_IDS,
    Claim,
    ClaimFailed,
    UnknownId,
    build,
    build_homogeneous_block_script,
    catalog_ids,
    check_claim,
    script_directory,
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


def test_labels_are_unique_and_aligned():
    for iid in catalog_ids():
        inst = build(iid)
        assert len(inst.labels) == inst.game.n
        assert len(set(inst.labels)) == inst.game.n
        assert inst.agent(inst.labels[0]) == 0


# --- every script replays; every cycle closes --------------------------------


ALL_SCRIPTS = sorted(script_directory())


@pytest.mark.parametrize("script_id", ALL_SCRIPTS)
def test_bundled_script_replays(script_id):
    iid, name = script_directory()[script_id]
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


def test_reach_state_scripts_directory_matches():
    directory = script_directory()
    assert directory
    for key, (iid, name) in directory.items():
        assert key == f"{iid}/{name}"
        assert name in build(iid).scripts


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
        assert dynamics.passes_filter(
            inst.game, move, dynamics.DeviationFilter.SOLITARY_HOMOGENEITY
        )


# --- helpers ------------------------------------------------------------------


def test_walk_moves_anchor_follows_the_anchor_agent():
    start = Partition.singletons(4)
    moves, end = walk_moves(start, [(0, 1), (2, 1), (3, None)])
    # the second hop targets agent 1's coalition *after* the first hop
    assert moves[1].target == (0, 1)
    assert end == Partition([[0, 1, 2], [3]])


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("color", [Color.BLUE, Color.RED])
def test_homogeneous_block_builder(k, color):
    game, script = build_homogeneous_block_script(k, color)
    trace = dynamics.replay(game, script.start, script.moves)
    blocks = [b for b in trace.final.blocks if len(b) == k]
    assert len(blocks) == 1
    assert all(game.colors[a] is color for a in blocks[0])
    # gathering same-color agents necessarily passes through a move the
    # solitary-homogeneity filter blocks
    verdicts = [
        dynamics.passes_filter(game, m, dynamics.DeviationFilter.SOLITARY_HOMOGENEITY)
        for m in script.moves
    ]
    assert not all(verdicts)
