"""The incremental move table behind ``MoveFinder`` and the runs it drives.

Golden traces pin whole runs move for move, so a change to how moves are
listed or drawn cannot shift a seeded trace unnoticed; the property test
walks states where the table is updated rather than rebuilt and checks it
against the ``core`` reference enumeration at every step.
"""

import gc
import itertools
import random
import tracemalloc
import weakref

import pytest

from hedonic_dynamics import core, instances, search
from hedonic_dynamics.core import Partition, StabilityKind
from hedonic_dynamics.dynamics import (
    CycleDetected,
    Filtered,
    Lexicographic,
    MoveFinder,
    RunConfig,
    SeededRandom,
    _ApprovalRules,
    _AverageRules,
    _PerAgentRules,
    _SummaryRules,
    _VerdictRules,
    run,
)
from hedonic_dynamics.games import Color, DichotomousGame, DiversityGame

from conftest import (
    fraction_fhg,
    mixed_fhg,
    move_digest,
    rand_fhg,
    rand_game,
    rand_hdg,
    rand_lazy_game,
    rand_partition,
    subclass_of,
)

IS = StabilityKind.IS


def club_dhg(n: int, seed: int) -> DichotomousGame:
    """Approval game in which agents gather into small clubs: each agent
    approves the clubs it belongs to and every part of them holding itself
    and one other member."""
    rng = random.Random(seed)
    families = [set() for _ in range(n)]
    for _ in range(n // 2):
        club = tuple(sorted(rng.sample(range(n), rng.randint(2, 4))))
        for agent in club:
            families[agent].add(club)
            families[agent].update(
                tuple(sorted((agent, other))) for other in club if other != agent)
    return DichotomousGame(n, [sorted(f) for f in families])


def golden_game(kind: str):
    if kind == "dhg":
        return club_dhg(48, 5)
    n = {"ahg": 60, "hdg": 40, "fhg": 36}[kind]
    return instances.random(kind, n, 1000 + n).game


def golden_run(kind: str, policy_name: str):
    game = golden_game(kind)
    policy = SeededRandom(77) if policy_name.endswith("seeded") else Lexicographic()
    start = rand_partition(random.Random(9), game.n)
    if policy_name == "seeded":
        start = Partition.singletons(game.n)
    elif policy_name.startswith("filtered"):
        policy = Filtered(policy)  # from a mixed start, where the filter bites
    out = run(game, start, policy, RunConfig(max_steps=150))
    trace = out.witness if isinstance(out, CycleDetected) else out.trace
    return type(out).__name__, len(trace), move_digest(trace.moves)


#: (outcome, steps, move digest) of each run, recorded before the move table
GOLDEN = {
    ("ahg", "seeded"): ("Converged", 20, "037b11066edea6be"),
    ("ahg", "lex"): ("Converged", 50, "8f0544d81d8a600b"),
    ("hdg", "seeded"): ("Converged", 12, "00035883de217133"),
    ("hdg", "lex"): ("Converged", 19, "85a61b2ec8c705da"),
    ("hdg", "filtered-seeded"): ("Converged", 18, "af42f7534127024c"),
    ("hdg", "filtered-lex"): ("Converged", 20, "a28f930142b89385"),
    ("fhg", "seeded"): ("Converged", 50, "f7a22463a7ef6f9d"),
    ("fhg", "lex"): ("Converged", 39, "f76fd9de023a14e9"),
    ("dhg", "seeded"): ("Converged", 16, "f04cd747e66fad25"),
    ("dhg", "lex"): ("Converged", 12, "3519d13a624f9620"),
}


@pytest.mark.parametrize("kind, policy_name", sorted(GOLDEN))
def test_golden_traces(kind, policy_name):
    assert golden_run(kind, policy_name) == GOLDEN[kind, policy_name]


def threshold_traps(game, block) -> int:
    """How many (member, outsider) pairs of ``block`` a welcome threshold
    chosen by the type of the member's sum gets wrong: the sum is an
    ``int``, the member's row is not all ``int``, and its weight toward
    the outsider reaches sum / s but not the sum's ceiling."""
    s, traps = len(block), 0
    for m in block:
        total, row = game.member_sum(m, block), game.weights[m]
        if isinstance(total, int) and not all(isinstance(w, int) for w in row):
            ceiling = -(-total // s)
            traps += sum(s * w >= total and w < ceiling
                         for a, w in enumerate(row) if a not in block)
    return traps


def staircase(rng, n) -> Partition:
    """The agents, shuffled, in blocks of sizes 1, 2, 3, ..., the last one
    what is left: every block has a key of its own."""
    agents = list(range(n))
    rng.shuffle(agents)
    blocks, size = [], 1
    while agents:
        blocks.append(agents[:size])
        agents, size = agents[size:], size + 1
    return Partition(blocks)


def incremental_games():
    """Two games of each class at n 20-40, two fractional games with
    ``Fraction`` weights and two whose rows mix ``int`` and ``Fraction``
    weights, plus two size and two two-colour games over lazy orders
    shared by several agents, where a move leaves most blocks alone and
    the finder updates its table instead of rebuilding it; then a
    two-colour game started from a staircase, where most blocks keep a key
    of their own, so that few rows can be shared. Each comes with its
    random stream and its start, ``None`` for a random one."""
    rng = random.Random(211)
    for trial in range(8):
        n = rng.randint(20, 40)
        if trial % 4 == 3:
            yield club_dhg(n, trial), rng, None
        else:
            yield rand_game(rng, trial, n), rng, None
    for _ in range(2):
        yield fraction_fhg(rng, rng.randint(20, 40)), rng, None
    for _ in range(2):
        yield mixed_fhg(rng, rng.randint(20, 40)), rng, None
    for trial in range(4):
        yield rand_lazy_game(rng, trial, rng.randint(20, 40)), rng, None
    reds = rng.randint(4, 30)
    yield rand_hdg(rng, reds, 36 - reds), rng, staircase(rng, 36)


def check_rows(table):
    """Asserts that every row of ``table`` lists distinct live blocks other
    than the agent's own, in the partition's order, then ``()`` at most once,
    last."""
    blocks = table.partition.blocks
    for agent, row in enumerate(table.rows):
        listed = row[:-1] if row and row[-1] == () else row
        assert all(block in blocks for block in listed), (agent, row)
        assert agent not in {m for block in listed for m in block}, (agent, row)
        order = [blocks.index(block) for block in listed]
        assert order == sorted(set(order)), (agent, row)


def check_against_core(finder, state):
    """Asserts that the finder's listing, table, ``nth`` and ``has_move`` at
    ``state`` agree with ``core``, and that the table's rows are canonical;
    returns ``core``'s moves."""
    reference = core.enumerate_deviations(finder.game, state, IS)
    assert list(finder.iter_moves(state)) == reference, (type(finder.game).__name__, state)
    table = finder.table(state)
    check_rows(table)
    assert [table.nth(k) for k in range(table.count)] == reference
    with pytest.raises(IndexError):
        table.nth(table.count)
    assert finder.has_move(state) == bool(reference) == bool(table.count)
    return reference


def spy_on_patches(finder):
    """Wraps the rule set's table queries; returns ``patched(state)``, which
    tells whether the finder's last update to ``state`` kept some agent's
    row and put only the blocks born since to the rules' per-block query,
    and then forgets what it saw. A full rebuild of every row fails it."""
    rules = finder._rules
    asked, rebuilt = [], []
    joiners, row = rules.joiners, rules.row
    rules.joiners = lambda blocks, keys, fresh: asked.append(len(fresh)) or joiners(blocks, keys, fresh)
    rules.row = lambda agent, *args: rebuilt.append(agent) or row(agent, *args)

    def patched(state):
        seen = bool(asked) and max(asked) < len(state.blocks) and len(rebuilt) < state.n
        asked.clear()
        rebuilt.clear()
        return seen

    return patched


def test_table_updates_match_core_along_walks_and_jumps():
    for game, rng, start in incremental_games():
        finder = MoveFinder(game)
        patched_to = spy_on_patches(finder)
        staircase_start = start is not None
        if start is None:
            start = Partition.singletons(game.n) if rng.random() < 0.5 else rand_partition(rng, game.n)
        state = start
        suspended = None
        patched = walked = keyed = 0
        for _ in range(30):
            if staircase_start:
                walked += 1
                keys = set(map(finder._rules.keys.__getitem__, state.blocks))
                keyed += len(keys) > len(state.blocks) / 2
            reference = core.enumerate_deviations(game, state, IS)
            assert list(finder.iter_moves(state)) == reference, (game.kind, state)
            patched += patched_to(state)
            table = finder.table(state)
            check_rows(table)
            assert table.count == len(reference)
            assert finder.has_move(state) == bool(table.count)
            for k in rng.sample(range(len(reference)), min(5, len(reference))):
                assert table.nth(k) == reference[k]
            if suspended is None and len(reference) > 1:
                moves = finder.iter_moves(state)
                assert next(moves) == reference[0]
                suspended = moves, reference[1:]
            if not reference:
                break
            state = core.apply(state, rng.choice(reference))
        assert patched, game.kind
        if staircase_start:  # most states there have mostly distinct keys
            assert walked > 5 and keyed > walked / 2, (walked, keyed)
        moves, rest = suspended
        assert list(moves) == rest  # resumed after the finder moved on
        for _ in range(3):  # jumps to unrelated partitions
            state = rand_partition(rng, game.n)
            check_against_core(finder, state)
        for _ in range(3):  # jumps of several moves: rows lose several blocks at once
            for _ in range(rng.randint(2, 6)):
                reference = core.enumerate_deviations(game, state, IS)
                if reference:
                    state = core.apply(state, rng.choice(reference))
            check_against_core(finder, state)


def test_rows_keep_the_fresh_singleton_last():
    # agent 0 may go alone and join (2, 3); agent 1 may go alone and join
    # (4, 5). When 6 joins (4, 5), row 1 loses its one block before `()`,
    # and row 0 gains (4, 5, 6), which sorts after every block of the row
    # but must still go before its closing `()`
    game = DichotomousGame(7, [
        [(0,), (0, 2, 3), (0, 4, 5, 6)],
        [(1,), (1, 4, 5)],
        [], [], [], [],
        [(4, 5, 6), (0, 4, 5, 6)],
    ])
    finder = MoveFinder(game)
    before = Partition([[0, 1], [2, 3], [4, 5], [6]])
    assert finder.table(before).rows[:2] == [((2, 3), ()), ((4, 5), ())]
    check_against_core(finder, before)
    after = Partition([[0, 1], [2, 3], [4, 5, 6]])
    assert finder.table(after).rows[:2] == [((2, 3), (4, 5, 6), ()), ((),)]
    check_against_core(finder, after)


def test_table_of_an_unknown_class_lists_core():
    # a subclass may override `prefers`, so the finder puts every pair to
    # core's verdict; its tables are still patched from move to move
    rng = random.Random(307)
    for trial in range(8):
        game = subclass_of(rand_game(rng, trial, rng.randint(8, 12)), trial >= 4)
        finder = MoveFinder(game)
        patched_to = spy_on_patches(finder)
        state = rand_partition(rng, game.n)
        moves = patched = 0
        for _ in range(40):
            reference = check_against_core(finder, state)
            patched += patched_to(state)
            if moves >= 10:
                break
            if reference:
                state = core.apply(state, rng.choice(reference))
                moves += 1
            else:  # stable: walk on from elsewhere
                state = rand_partition(rng, game.n)
        assert moves >= 10 and patched, type(game).__name__
        for _ in range(3):  # jumps to unrelated partitions
            check_against_core(finder, rand_partition(rng, game.n))


def walk_from(rng, game, state, steps):
    """``state`` after up to ``steps`` random IS moves."""
    for _ in range(steps):
        moves = core.enumerate_deviations(game, state, IS)
        if not moves:
            break
        state = core.apply(state, rng.choice(moves))
    return state


def test_tables_patched_from_an_earlier_base_match_core():
    # a search patches each state's table from its parent's, which is
    # seldom the last table built; weight games keep per-agent vectors
    # that must then be re-derived from the base, and a table built later
    # from the last one must still be right
    rng = random.Random(601)
    rebased = 0
    for trial in range(16):
        n = rng.randint(6, 10)
        game = fraction_fhg(rng, n) if trial % 4 == 0 else rand_game(rng, trial // 4 + 1, n)
        finder = MoveFinder(game)
        tables = [finder.table(rand_partition(rng, n))]
        for _ in range(12):
            base = rng.choice(tables)
            rebased += base is not finder._last
            state = walk_from(rng, game, base.partition, rng.randint(0, 3))
            table = finder.table(state, base)
            check_rows(table)
            assert list(table) == core.enumerate_deviations(game, state, IS), type(game)
            assert list(finder.iter_moves(state)) == list(table)
            tables.append(table)
            # then from the finder's last table, as a run patches
            check_against_core(finder, walk_from(rng, game, state, rng.randint(0, 2)))
    assert rebased > 100


def test_has_move_matches_core_on_every_partition():
    # over all partitions an agent's own block key comes back again and
    # again: its gains are kept per own key, not renewed at each change,
    # and an agent with n memos starts afresh (ratio keys outnumber n).
    # The weight game mixes `int` and `Fraction` weights in a row, where
    # a welcome threshold must not be chosen by the type of the sum
    for game in (instances.random("ahg", 8, 3).game, instances.random("hdg", 8, 3).game,
                 mixed_fhg(random.Random(13), 8)):
        kind = game.kind
        finder = MoveFinder(game)
        rules = finder._rules
        stable = traps = 0
        own_keys = [set() for _ in range(8)]
        for state in search.enumerate_partitions(8):
            answer = finder.has_move(state)
            assert answer != core.is_stable(game, state, IS), (kind, state)
            stable += not answer
            if kind == "fhg":
                traps += sum(threshold_traps(game, block) for block in state.blocks)
                continue
            for block in state.blocks:
                for agent in block:
                    own_keys[agent].add(rules.keys[block])
            assert max(map(len, rules.gains)) <= 8, (kind, state)
        assert stable, kind
        if kind == "fhg":
            assert traps, kind
            continue
        assert max(map(len, rules.gains)) > 1, kind
        if kind == "hdg":
            assert max(map(len, own_keys)) > 8


def test_fractional_vectors_follow_the_live_blocks():
    # after a long walk the block records are those of the last table's
    # blocks only, each equal to a fresh computation
    rng = random.Random(401)
    game = fraction_fhg(rng, 40)
    finder = MoveFinder(game)
    state = Partition.singletons(game.n)
    for _ in range(300):
        table = finder.table(state)
        state = (core.apply(state, table.nth(rng.randrange(table.count))) if table.count
                 else rand_partition(rng, game.n))
    finder.table(state)
    rules = finder._rules
    assert set(rules.keys) == set(state.blocks) | {()}
    weights = game.weights
    for block in state.blocks:
        s = len(block)
        sums, flags = rules.keys[block]
        assert list(sums) == [game.member_sum(a, block) for a in range(game.n)]
        assert list(flags) == [
            all(s * weights[m][a] >= game.member_sum(m, block) for m in block)
            for a in range(game.n)
        ]
        for a in block:
            assert (rules.size[a], rules.have[a]) == (s, game.member_sum(a, block))


def approval_state(rng, n):
    """A random partition and an approval game shaped around it: some agents
    approve nothing, some their singleton, some their own block; others
    approve joining a block, whose members approve that block and the
    joined one or not."""
    state = rand_partition(rng, n)
    silent = {agent for agent in range(n) if rng.random() < 0.2}
    families = [set() for _ in range(n)]

    def approve(coalition, members):
        for m in members:
            if m not in silent:
                families[m].add(coalition)

    for block in state.blocks:
        approve(block, [m for m in block if rng.random() < 0.4])
        for agent in range(n):
            if agent not in block and rng.random() < 0.3:
                post = core.join(block, agent)
                approve(post, [agent] + [m for m in block if rng.random() < 0.7])
    for agent in range(n):
        if rng.random() < 0.3:
            approve((agent,), [agent])
    return DichotomousGame(n, [sorted(f) for f in families]), state


def test_approval_lookups_match_the_per_agent_answer():
    rng = random.Random(503)
    seen = {"empty": 0, "alone": 0, "content": 0, "joiners": 0}
    for _ in range(60):
        game, state = approval_state(rng, rng.randint(3, 11))
        finder = MoveFinder(game)
        rules = finder._rules
        assert type(rules) is _ApprovalRules
        seen["empty"] += sum(not family for family in game.approvals)
        seen["alone"] += sum(() in wanted for wanted in rules.wanted)
        for _ in range(4):
            blocks = state.blocks
            keys = [rules.keys[b] for b in blocks + ((),)]
            seen["content"] += sum(map(len, keys))
            for size in range(len(blocks) + 1):
                fresh = {b: rules.keys[b] for b in rng.sample(blocks, size)}
                found = [sorted(agents) for agents in rules.joiners(blocks, keys, fresh)]
                assert found == [sorted(agents) for agents in
                                 _PerAgentRules.joiners(rules, blocks, keys, fresh)]
                seen["joiners"] += sum(map(len, found))
            reference = check_against_core(finder, state)
            if not reference:
                break
            state = core.apply(state, rng.choice(reference))
    assert all(seen.values()), seen
    # only the exact class is answered by lookup: a subclass may override
    # `prefers`, and then only core's verdict agrees with it
    for reverse in (False, True):
        game, state = approval_state(rng, 8)
        sub = subclass_of(game, reverse)
        finder = MoveFinder(sub)
        assert type(finder._rules) is _VerdictRules
        check_against_core(finder, state)


def spy_on_holders(rules):
    """Wraps ``rules.holders``; returns the list of (blocks, gone, named)
    it has been asked and answered since."""
    asked = []
    holders = rules.holders

    def spy(blocks, gone):
        named = list(holders(blocks, gone))
        asked.append((blocks, set(gone), set(named)))
        return named

    rules.holders = spy
    return asked


def test_holders_name_every_row_that_holds_a_vanished_block():
    # `_patch` takes vanished blocks out of the rows `holders` names only,
    # so it must name every agent whose base row holds one; bases are the
    # last table or an earlier one, after walks and jumps. A table that
    # keeps no block of its base rebuilds every row and asks nothing
    rng = random.Random(809)
    held = {cls: 0 for cls in (_SummaryRules, _AverageRules, _ApprovalRules, _VerdictRules)}
    narrow = dict.fromkeys(held, 0)
    earlier = rebuilt = 0
    for trial in range(12):
        n = rng.randint(6, 12)
        game = rand_game(rng, trial, n)
        if trial >= 8:
            game = subclass_of(game, trial % 2)
        finder = MoveFinder(game)
        rules = finder._rules
        asked = spy_on_holders(rules)
        tables = [finder.table(rand_partition(rng, n))]
        for _ in range(20):
            base = rng.choice(tables) if rng.random() < 0.5 else finder._last
            earlier += base is not finder._last
            if rng.random() < 0.2:
                state = rand_partition(rng, n)
            else:
                state = walk_from(rng, game, base.partition, rng.randint(1, 4))
            asked.clear()
            table = finder.table(state, base)
            assert list(table) == core.enumerate_deviations(game, state, IS), type(game)
            gone = set(base.partition.blocks) - set(state.blocks)
            if not gone or gone == set(base.partition.blocks):
                assert asked == []
                rebuilt += bool(gone)
                continue
            [(blocks, asked_gone, named)] = asked
            assert blocks == base.partition.blocks and asked_gone == gone
            holding = {agent for agent, row in enumerate(base.rows) if gone & set(row)}
            assert holding <= named, (type(game), holding - named)
            held[type(rules)] += len(holding)
            narrow[type(rules)] += len(named) < n
            tables.append(table)
    assert all(held.values()), held
    # the column answers leave out agents; the per-agent ones name everyone
    assert narrow[_AverageRules] and narrow[_ApprovalRules], narrow
    assert earlier > 50 and rebuilt


def spy_on_joiners(rules):
    """Wraps ``rules.joiners``; returns the list of the born blocks it has
    been asked about since, a set per query."""
    asked = []
    joiners = rules.joiners
    rules.joiners = lambda blocks, keys, fresh: (
        asked.append(set(fresh)) or joiners(blocks, keys, fresh))
    return asked


def unrelated_partition(rng, base):
    """A random partition that shares no block with ``base``."""
    while True:
        state = rand_partition(rng, base.n)
        if not set(state.blocks) & set(base.blocks):
            return state


def test_fresh_tables_ask_no_joiners():
    # a table that keeps no block of its base, the first one or a jump,
    # rebuilds every row and leaves no agent outside its born blocks, so
    # `joiners` has nothing to answer and is not asked; a patch that keeps
    # a block asks it once, about the born blocks
    rng = random.Random(1213)
    classes = (_SummaryRules, _AverageRules, _ApprovalRules, _VerdictRules)
    fresh, kept = dict.fromkeys(classes, 0), dict.fromkeys(classes, 0)
    for trial in range(16):
        n = rng.randint(4, 10)
        game = rand_game(rng, trial, n)
        if trial >= 8:
            game = subclass_of(game, trial % 2)
        finder = MoveFinder(game)
        rules = finder._rules
        asked = spy_on_joiners(rules)
        state = rand_partition(rng, n)
        tables = [finder.table(state)]
        assert not asked
        assert list(tables[0]) == core.enumerate_deviations(game, state, IS)
        fresh[type(rules)] += 1
        for _ in range(16):
            base = rng.choice(tables) if rng.random() < 0.5 else finder._last
            if rng.random() < 0.4:
                state = unrelated_partition(rng, base.partition)
            else:
                state = walk_from(rng, game, base.partition, rng.randint(1, 3))
            asked.clear()
            table = finder.table(state, base)
            assert list(table) == core.enumerate_deviations(game, state, IS), type(game)
            stayed = set(state.blocks) & set(base.partition.blocks)
            if not stayed:
                assert not asked, (type(game), state)
                fresh[type(rules)] += 1
            elif stayed != set(state.blocks):
                assert asked == [set(state.blocks) - stayed], (type(game), state)
                kept[type(rules)] += 1
            tables.append(table)
    assert all(fresh.values()) and all(kept.values()), (fresh, kept)


def test_rule_sets_are_freed_with_their_finder():
    # no rule set refers back to itself, so its block records go with its
    # finder by reference counting, not at the next cycle collection
    rng = random.Random(907)
    found = set()
    gc.disable()
    try:
        for trial in range(10):
            n = rng.randint(8, 12)
            if trial < 4:
                game = rand_game(rng, trial, n)
            elif trial < 6:
                game = rand_lazy_game(rng, trial, n)
            else:
                game = subclass_of(rand_game(rng, trial, n), trial % 2)
            finder = MoveFinder(game)
            state = rand_partition(rng, n)
            for _ in range(5):
                table = finder.table(state)
                finder.has_move(state)
                state = (core.apply(state, table.nth(rng.randrange(table.count)))
                         if table.count else rand_partition(rng, n))
            rules = weakref.ref(finder._rules)
            found.add(type(rules()))
            del finder, table
            assert rules() is None, type(game)
        # a run's finder, too
        game = rand_fhg(rng, 20)
        before = sum(isinstance(o, _PerAgentRules) for o in gc.get_objects())
        run(game, Partition.singletons(20), Lexicographic(), RunConfig(max_steps=30))
        assert sum(isinstance(o, _PerAgentRules) for o in gc.get_objects()) == before
    finally:
        gc.enable()
    assert found == {_SummaryRules, _AverageRules, _ApprovalRules, _VerdictRules}


def test_summary_memos_follow_the_last_table():
    # size and two-colour keys and welcome flags are memos that `settle`
    # drops as their blocks leave the table, so a long walk keeps those of
    # the last table only, and a block that comes back is keyed again
    rng = random.Random(1009)
    for game in (instances.random("ahg", 24, 5).game, instances.random("hdg", 24, 5).game,
                 rand_lazy_game(rng, 1, 24)):
        finder = MoveFinder(game)
        state = Partition.singletons(game.n)
        jumps = 0
        for step in range(120):
            table = finder.table(state)
            assert list(table) == core.enumerate_deviations(game, state, IS), game.kind
            if table.count and step % 15:
                state = core.apply(state, table.nth(rng.randrange(table.count)))
            else:
                state = walk_from(rng, game, rand_partition(rng, game.n), rng.randint(0, 3))
                jumps += 1
        finder.table(state)
        rules = finder._rules
        live = set(state.blocks) | {()}
        assert set(rules.keys) == live, game.kind
        assert all(set(memo) <= live for memo in rules.welcomed), game.kind
        assert any(rules.welcomed), game.kind
        assert jumps > 5
        check_against_core(finder, state)


def edge_partitions(game):
    """Partitions of a size or two-colour game at the edge of its key
    domain, where a gain or a welcome asked for a join that cannot happen
    would fall outside the orders' domain: the grand coalition, every
    (n-1)-member block, and a block holding every agent of one colour,
    with the others alone or together."""
    n = game.n
    yield Partition.grand(n)
    for alone in range(n):
        yield Partition([[a for a in range(n) if a != alone], [alone]])
    if isinstance(game, DiversityGame):
        for colour in Color:
            held = [a for a in range(n) if game.colors[a] is colour]
            rest = [a for a in range(n) if game.colors[a] is not colour]
            if held and rest:
                yield Partition([held] + [[a] for a in rest])
                yield Partition([held, rest])


def test_tables_at_the_edge_of_the_key_domain_match_core():
    # each edge partition's table, built first, patched from singletons and
    # patched from a random earlier base, and the tables patched from it
    rng = random.Random(1051)
    size_and_colour = [instances.random(kind, 8, seed).game
                       for kind in ("ahg", "hdg") for seed in (1, 2, 3)]
    size_and_colour += [rand_lazy_game(rng, trial, 8) for trial in range(4)]
    size_and_colour += [rand_hdg(rng, reds, 8 - reds) for reds in (1, 4, 7)]
    cases = 0
    for game in size_and_colour:
        for state in edge_partitions(game):
            reference = core.enumerate_deviations(game, state, IS)
            finder = MoveFinder(game)
            check_against_core(finder, state)  # the finder's first table
            finder = MoveFinder(game)
            finder.table(Partition.singletons(game.n))
            check_against_core(finder, state)
            base = finder.table(rand_partition(rng, game.n))
            finder.table(Partition.singletons(game.n))
            table = finder.table(state, base)
            check_rows(table)
            assert list(table) == reference, (game.kind, state)
            for move in reference[:4]:
                check_against_core(finder, core.apply(state, move))
                finder.table(state)
            cases += 1
    assert cases > 100


def spy_on_shared_rows(rules):
    """Wraps ``rules._shared_row``; returns the list of the signatures it
    has built a row for since."""
    built = []
    shared_row = rules._shared_row
    rules._shared_row = lambda signature, *args: (
        built.append(signature) or shared_row(signature, *args))
    return built


def test_first_table_from_singletons_shares_rows_by_gain_signature():
    # from singletons every block is keyed 1 but `()`, so the 400 rows of
    # a size game are two shared rows, each cut at its agent's singleton;
    # every row is the per-agent answer, which the tests above check
    game = instances.random("ahg", 400, 1).game
    finder = MoveFinder(game)
    rules = finder._rules
    built = spy_on_shared_rows(rules)
    start = Partition.singletons(game.n)
    table = finder.table(start)
    assert len(built) == 2
    candidates = start.blocks + ((),)
    keys = [rules.keys[b] for b in candidates]
    assert table.rows == [
        tuple(rules.targets(agent, candidates[agent], 1, candidates, keys))
        for agent in range(game.n)
    ]
    # a step rebuilds two rows at most, from the two shared rows at most
    built.clear()
    state = core.apply(start, table.nth(table.count // 2))
    table = finder.table(state)
    assert 0 < len(built) <= 2
    check_rows(table)


def test_summary_walk_memory_stays_bounded():
    # an engine-only walk, a table per step, with a jump to a random
    # partition every 20 tables: shared rows and signatures live for one
    # table, and gains are asked only of the welcoming keys, as the rows
    # of the per-agent test asked them. The peak was 2.89-2.95 MB under
    # Python 3.10-3.13 before the shared rows (2.67-2.73 MB with them);
    # the bound is the highest of those plus 10 %
    game = instances.random("hdg", 64, 1).game
    rng = random.Random(64)
    state = Partition.singletons(game.n)
    tracemalloc.start()
    try:
        finder = MoveFinder(game)
        for step in range(2000):
            table = finder.table(state)
            if table.count and step % 20:
                state = core.apply(state, table.nth(rng.randrange(table.count)))
            else:
                state = rand_partition(rng, game.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 10**6, peak


def reference_clash(game, a, b) -> bool:
    """Whether a member of ``a`` may join ``b`` or one of ``b`` may join
    ``a`` (``b = ()``: a member of ``a`` may go alone), by core's verdict."""
    return any(
        core.deviation_verdict(game, m, cur, target, IS) is None
        for cur, target in ((a, b), (b, a))
        for m in cur
    )


def disjoint_pairs(n):
    """Every ordered pair of disjoint blocks of agents 0..n-1, the first
    nonempty, the second possibly ``()``."""
    for sides in itertools.product((0, 1, 2), repeat=n):  # in neither, a, b
        a = tuple(x for x, side in enumerate(sides) if side == 1)
        if a:
            yield a, tuple(x for x, side in enumerate(sides) if side == 2)


def clash_games():
    """Random games of all four classes at n 2-6, fractional games with
    ``Fraction`` weights and with rows mixing ``int`` and ``Fraction``, and
    a subclass game of each class, as is and turned around."""
    rng = random.Random(1103)
    for trial in range(16):
        yield rand_game(rng, trial, rng.randint(2, 6))
    for _ in range(3):
        yield fraction_fhg(rng, rng.randint(3, 6))
        yield mixed_fhg(rng, rng.randint(3, 6))
    for trial in range(8):
        yield subclass_of(rand_game(rng, trial, rng.randint(3, 6)), trial >= 4)


def test_clash_matches_core_on_every_pair_of_disjoint_blocks():
    # the cover searches answer their clashes through the engine, so it
    # must agree with the oracle in both directions and on `()`; a subclass
    # game gets the verdict rules, which ask the oracle itself
    seen = set()
    for game in clash_games():
        finder = MoveFinder(game)
        if type(game).__name__.startswith("Sub"):
            assert type(finder._rules) is _VerdictRules
        for a, b in disjoint_pairs(game.n):
            answer = finder.clash(a, b)
            assert answer == reference_clash(game, a, b), (type(game).__name__, a, b)
            if b:
                assert finder.clash(b, a) == answer
            seen.add((type(finder._rules), answer, not b))
    for rules in (_SummaryRules, _AverageRules, _ApprovalRules, _VerdictRules):
        for answer, alone in itertools.product((False, True), repeat=2):
            assert (rules, answer, alone) in seen, (rules, answer, alone)
