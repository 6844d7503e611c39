"""Command-line contract: file formats, reports, exit codes."""

import argparse
import json
from fractions import Fraction

import pytest

from hedonic_dynamics import cli
from hedonic_dynamics.core import StabilityKind, enumerate_deviations
from hedonic_dynamics.dynamics import replay
from hedonic_dynamics.instances import build, catalog_ids


def _write(tmp_path, name, instance):
    path = tmp_path / name
    path.write_text(cli.dumps_instance(instance))
    return str(path)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_round_trip_identity_on_every_bundled_instance():
    for cid in catalog_ids():
        text = cli.dumps_instance(build(cid))
        assert cli.dumps_instance(cli.loads_instance(text)) == text, cid


def test_parsed_instance_behaves_like_the_original():
    original = build("ahg7")
    parsed = cli.loads_instance(cli.dumps_instance(original))
    for name, start in original.starts.items():
        ours = enumerate_deviations(parsed.game, start, StabilityKind.IS)
        theirs = enumerate_deviations(original.game, start, StabilityKind.IS)
        assert ours == theirs, name
    for name, script in original.scripts.items():
        trace = replay(parsed.game, script.start, script.moves)
        assert len(trace) == len(script.moves), name


def test_rational_forms():
    assert cli.dump_rational(5) == 5
    assert cli.dump_rational(Fraction(3, 4)) == "3/4"
    assert cli.parse_rational("3/4") == Fraction(3, 4)
    assert cli.parse_rational(7) == 7
    assert cli.parse_rational("12") == Fraction(12)
    for bad in ("3/0", "a/b", "1/2/3", None, 1.5, True):
        with pytest.raises(cli.CliUsageError):
            cli.parse_rational(bad)


def test_document_validation_errors():
    good = json.loads(cli.dumps_instance(build("dhg3")))
    cases = [
        ("format_version", 99),
        ("game", {"kind": "zzz", "n": 3, "payload": {}}),
        ("game", {"kind": "dhg", "n": 0, "payload": {"approvals": []}}),
        ("starts", {"bad": [[0, 1]]}),          # covers 2 of 3 agents
        ("labels", ["a", "a", "b"]),
        ("expected", [{"subject": "x"}]),       # missing kind
    ]
    for field, value in cases:
        doc = json.loads(json.dumps(good))
        doc[field] = value
        with pytest.raises(cli.CliUsageError):
            cli.doc_to_instance(doc)
    doc = json.loads(json.dumps(good))
    del doc["game"]
    with pytest.raises(cli.CliUsageError):
        cli.doc_to_instance(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("starts",), []),
        (("labels",), 3),
        (("expected", 0, "params"), [1]),
        (("scripts", "cycle", "moves", 0, "agent"), "x"),
        (("scripts", "cycle", "moves", 0, "agent"), True),
        (("starts", "pair-12"), [[True], [0], [2]]),
    ],
    ids=["starts-list", "labels-int", "params-list", "agent-str", "agent-bool", "start-bool"],
)
def test_mistyped_fields_are_usage_errors(tmp_path, capsys, path, value):
    doc = json.loads(cli.dumps_instance(build("dhg3")))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(cli.CliUsageError):
        cli.doc_to_instance(doc)
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(doc))
    assert cli.main(["check", str(mutant), "--partition", "grand"]) == 2


def test_order_document_shapes():
    ahg15 = build("ahg15")
    hdg = build("hdg12-no-sp")
    walk = build("hdg-assembled")
    for inst in (ahg15, hdg, walk):
        text = cli.dumps_instance(inst)
        parsed = cli.loads_instance(text)
        assert parsed.game.orders[0] == inst.game.orders[0]
    bad = {"format_version": 1,
           "game": {"kind": "ahg", "n": 2,
                    "payload": {"orders": [{"mystery": []}, {"classes": [[1, 2]]}]}}}
    with pytest.raises(cli.CliUsageError):
        cli.doc_to_instance(bad)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_reports_stability(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    assert cli.main(["check", path, "--partition", "is-witness"]) == 0
    assert "stable: yes" in capsys.readouterr().out
    assert cli.main(["check", path, "--partition", "cycle-start", "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stable"] is False and doc["moves"]


def test_check_nash_on_weighted_grand_coalition(tmp_path, capsys):
    path = _write(tmp_path, "fhg15.json", build("fhg15"))
    grand = json.dumps([list(range(15))])
    assert cli.main(["check", path, "--inline", grand, "--kind", "nash",
                     "--json-style"]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is False


def test_check_unknown_start_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    assert cli.main(["check", path, "--partition", "zzz"]) == 2
    assert "unknown start" in capsys.readouterr().err


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format_version": 1,\n  oops\n}\n')
    assert cli.main(["check", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_script_policy_detects_cycle(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    out = tmp_path / "trace.json"
    assert cli.main(["run", path, "--policy", "script:cycle",
                     "--monitors", "gamma", "--out", str(out),
                     "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "cycle-detected" and doc["cycle_len"] == 6

    trace_doc = json.loads(out.read_text())
    assert trace_doc["outcome"]["cycle_len"] == 6
    assert all("gamma" in step["readings"] for step in trace_doc["steps"])
    game = cli.loads_instance(cli.dumps_instance(build("ahg7"))).game
    assert cli.revalidate_trace_doc(game, trace_doc) == len(trace_doc["steps"])


def test_run_lex_converges_and_seeded_runs_repeat(tmp_path, capsys):
    clique = _write(tmp_path, "clique.json", build("fhg-clique(3)"))
    assert cli.main(["run", clique, "--start", "singletons", "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "converged"

    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    outs = []
    for _ in range(2):
        assert cli.main(["run", path, "--start", "singletons",
                         "--policy", "random:99", "--json-style"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_run_step_limit(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    assert cli.main(["run", path, "--start", "singletons", "--max-steps", "1",
                     "--json-style"]) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "step-limit"


def test_run_invalid_script_move_fails(tmp_path, capsys):
    doc = json.loads(cli.dumps_instance(build("ahg7")))
    doc["scripts"]["broken"] = {
        "start": doc["starts"]["singletons"],
        "moves": [{"agent": 0, "target": "new-singleton"}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--policy", "script:broken"]) == 1
    assert "failed:" in capsys.readouterr().err


def test_run_monitor_preconditions(tmp_path, capsys):
    # the bundled size-preference cycle is single-peaked only on a bent axis,
    # so the ascent-credit monitor refuses it
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    assert cli.main(["run", path, "--start", "singletons",
                     "--monitors", "lambda"]) == 2
    assert "monitor precondition" in capsys.readouterr().err
    assert cli.main(["run", path, "--start", "singletons",
                     "--monitors", "nope"]) == 2
    capsys.readouterr()


def test_run_rejects_bad_policy(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    assert cli.main(["run", path, "--policy", "greedy"]) == 2
    assert cli.main(["run", path, "--policy", "script:zzz"]) == 2
    assert cli.main(["run", path, "--policy", "random:x"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_modes_on_approval_triangle(tmp_path, capsys):
    path = _write(tmp_path, "dhg3.json", build("dhg3"))
    assert cli.main(["search", path, "--mode", "exists-path",
                     "--start", "singletons", "--json-style"]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "no-path"

    assert cli.main(["search", path, "--mode", "converges",
                     "--start", "singletons", "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "cycle-reachable" and doc["cycle_len"] >= 1

    assert cli.main(["search", path, "--mode", "exists-is", "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "stable-exists"
    assert doc["witness"] == [[0, 1, 2]]


def test_search_budget_exhaustion_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "ahg15.json", build("ahg15"))
    assert cli.main(["search", path, "--mode", "exists-path",
                     "--start", "singletons", "--budget", "5",
                     "--json-style"]) == 1
    assert json.loads(capsys.readouterr().out)["answer"] == "budget-exhausted"


def test_search_flag_validation(tmp_path, capsys):
    path = _write(tmp_path, "dhg3.json", build("dhg3"))
    assert cli.main(["search", path, "--mode", "exists-path",
                     "--start", "singletons", "--strategy", "pruned-fhg"]) == 2
    assert cli.main(["search", path, "--mode", "exists-is",
                     "--strategy", "pruned-fhg"]) == 2  # needs a weighted game
    assert cli.main(["search", path, "--mode", "exists-path",
                     "--start", "singletons", "--budget", "many"]) == 2
    capsys.readouterr()


def test_budget_seconds_from_environment(monkeypatch):
    args = argparse.Namespace(budget=None)
    monkeypatch.setenv("HD_BUDGET_SECONDS", "7")
    assert cli._search_budget(args).max_seconds == 7
    monkeypatch.setenv("HD_BUDGET_SECONDS", "soon")
    with pytest.raises(cli.CliUsageError):
        cli._search_budget(args)
    monkeypatch.delenv("HD_BUDGET_SECONDS")
    assert cli._search_budget(argparse.Namespace(budget="100:9")).max_seconds == 9
    assert cli._search_budget(argparse.Namespace(budget="100")).max_states == 100


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_reduce_from_dimacs(tmp_path, capsys):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("c toy\np cnf 3 1\n1 2 3 0\n")
    out = tmp_path / "out.json"
    assert cli.main(["gen", "--reduce", "sat-to-dhg-exists",
                     "--input", str(cnf), "--out", str(out)]) == 0
    capsys.readouterr()
    inst = cli.loads_instance(out.read_text())
    assert inst.game.n == 15
    assert "settle" in inst.scripts


def test_gen_reduce_with_params(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(
        {"ground": [1, 2, 3, 4, 5, 6], "sets": [[1, 2, 3], [4, 5, 6], [1, 2, 4]]}
    ))
    assert cli.main(["gen", "--reduce", "x3c-to-symfhg-converge",
                     "--input", str(cover), "--params", "link-weight=801/3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"].startswith("x3c-to-symfhg-converge")
    assert cli.main(["gen", "--reduce", "x3c-to-symfhg-converge",
                     "--input", str(cover), "--params", "link-weight=9"]) == 2
    assert cli.main(["gen", "--reduce", "x3c-to-symfhg-converge",
                     "--input", str(cover), "--params", "link-weight"]) == 2
    capsys.readouterr()


def test_gen_dimacs_parse_errors(tmp_path, capsys):
    cases = [
        ("p cnf 2\n1 0\n", "problem line"),
        ("p cnf 2 1\n1 x 0\n", "line 2"),
        ("p cnf 2 1\n3 0\n", "exceeds"),
        ("p cnf 2 1\n1 2\n", "terminating 0"),
        ("p cnf 2 2\n1 0\n", "declared 2 clauses"),
        ("1 0\n", "missing"),
    ]
    for text, needle in cases:
        cnf = tmp_path / "bad.cnf"
        cnf.write_text(text)
        assert cli.main(["gen", "--reduce", "sat-to-dhg-exists",
                         "--input", str(cnf)]) == 2
        assert needle in capsys.readouterr().err


def test_gen_random_and_flag_validation(tmp_path, capsys):
    assert cli.main(["gen", "--random", "fhg", "--n", "6", "--seed", "3",
                     "--restrict", "family=dag"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["id"] == "random-fhg(n=6,seed=3;family=dag)"
    parsed = cli.doc_to_instance(doc)
    assert parsed.game.n == 6

    assert cli.main(["gen", "--random", "fhg", "--n", "6", "--seed", "3",
                     "--restrict", "family=magic"]) == 2
    assert cli.main(["gen", "--random", "fhg", "--n", "6"]) == 2
    assert cli.main(["gen", "--bundled", "zzz"]) == 2
    assert cli.main(["gen"]) == 2
    assert cli.main(["gen", "--bundled", "dhg3", "--random", "ahg",
                     "--n", "3", "--seed", "1"]) == 2
    assert cli.main(["gen", "--reduce", "sat-to-zzz", "--input", "x"]) == 2
    capsys.readouterr()


def test_gen_bundled_output_parses_back(tmp_path, capsys):
    out = tmp_path / "fhg15.json"
    assert cli.main(["gen", "--bundled", "fhg15", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.loads_instance(out.read_text()).game.n == 15


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_scenario(capsys):
    assert cli.main(["verify", "--scenario", "dhg3", "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert doc["scenarios"][0]["claims"]


def test_verify_lists_and_rejects_unknown(capsys):
    assert cli.main(["verify", "--list"]) == 0
    listed = capsys.readouterr().out.split()
    assert listed == list(catalog_ids())
    assert cli.main(["verify", "--scenario", "zzz"]) == 2
    assert cli.main(["verify"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# trace re-validation
# ---------------------------------------------------------------------------


def test_trace_revalidation_rejects_tampering(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    out = tmp_path / "trace.json"
    assert cli.main(["run", path, "--start", "singletons", "--out", str(out)]) == 0
    capsys.readouterr()
    game = build("ahg7").game
    doc = json.loads(out.read_text())
    assert cli.revalidate_trace_doc(game, doc) == len(doc["steps"])

    forged = json.loads(out.read_text())
    forged["steps"][0]["result"] = forged["steps"][-1]["result"]
    with pytest.raises(cli.CliClaimError):
        cli.revalidate_trace_doc(game, forged)

    forged = json.loads(out.read_text())
    forged["steps"][0]["agent"] = 6
    with pytest.raises(cli.CliClaimError):
        cli.revalidate_trace_doc(game, forged)

    def forge(edit):
        forged = json.loads(out.read_text())
        edit(forged)
        return forged

    usage_mutants = [
        lambda d: d["steps"][0].update(agent=9),  # agent out of range
        lambda d: d["steps"][0].update(agent=-1),
        lambda d: d["steps"].__setitem__(0, 5),  # a step that is not an object
        lambda d: d.update(steps=5),
        lambda d: d.update(steps={"agent": 0}),
        lambda d: d["steps"][0].pop("result"),
    ]
    for edit in usage_mutants:
        with pytest.raises(cli.CliUsageError):
            cli.revalidate_trace_doc(game, forge(edit))
    # a well-formed target that is not a block of the current state
    for target in ([5, 6], [99]):
        forged = forge(lambda d: d["steps"][0].update(target=target))
        with pytest.raises(cli.CliClaimError, match="not a coalition"):
            cli.revalidate_trace_doc(game, forged)
