"""Command-line contract: file formats, reports, exit codes."""

import argparse
import contextlib
import hashlib
import json
import os
import stat
import threading
from fractions import Fraction

import pytest

from hedonic_dynamics import cli
from hedonic_dynamics.core import StabilityKind, enumerate_deviations
from hedonic_dynamics.dynamics import replay
from hedonic_dynamics.instances import build, catalog_ids, random as random_instance


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
        assert cli.dumps_instance(cli.doc_to_instance(json.loads(text))) == text, cid


def test_parsed_instance_behaves_like_the_original():
    original = build("ahg7")
    parsed = cli.doc_to_instance(json.loads(cli.dumps_instance(original)))
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
        (("expected", 0, "kind"), 5),
        (("expected", 0, "kind"), "no-such-kind"),
        (("expected", 0, "subject"), ["x"]),
        (("expected", 0, "holds"), "no"),
        # whole sections, merged into the document: three-agent games whose
        # declared agent count is not the payload's
        ((), {"game": {"kind": "ahg", "n": 9, "payload": {"orders": [
            {"classes": [[3], [2], [1]]}] * 3}}}),
        ((), {"colors": ["red", "blue", "red"],
              "game": {"kind": "hdg", "n": 7, "payload": {"orders": [
                  {"classes": [["1/2"], ["1/1", "2/3", "0/1"]]}] * 3}}}),
        ((), {"game": {"kind": "fhg", "n": 5, "payload": {"weights": [
            ["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}}}),
    ],
    ids=["starts-list", "labels-int", "params-list", "agent-str", "agent-bool", "start-bool",
         "kind-int", "kind-unknown", "subject-list", "holds-str",
         "ahg-n", "hdg-n", "fhg-n"],
)
def test_mistyped_fields_are_usage_errors(tmp_path, capsys, path, value):
    doc = json.loads(cli.dumps_instance(build("dhg3")))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc.update(value)
    with pytest.raises(cli.CliUsageError):
        cli.doc_to_instance(doc)
    mutant = tmp_path / "mutant.json"
    mutant.write_text(json.dumps(doc))
    assert cli.main(["check", str(mutant), "--partition", "grand"]) == 2


def test_bad_values_name_their_position(tmp_path, capsys):
    fhg = json.loads(cli.dumps_instance(random_instance("fhg", 4, 1)))
    fhg["game"]["payload"]["weights"][2][3] = "1/0"
    ahg = json.loads(cli.dumps_instance(build("ahg7")))
    ahg["game"]["payload"]["orders"][1]["classes"][3][0] = "x"
    walk = json.loads(cli.dumps_instance(build("hdg-assembled")))
    walk["game"]["payload"]["orders"][5]["walk"][3] = "1/0"
    cases = [(fhg, "game.payload.weights[2][3]: bad rational '1/0'"),
             (ahg, "game.payload.orders[1].classes[3][0]: coalition sizes must be integers"),
             (walk, "game.payload.orders[5].walk[3]: bad rational '1/0'")]
    # an order field that is not a JSON list (of lists, but for a walk)
    for instance, form, value, message in (
        ("hdg-assembled", "walk", 5, "walk: expected a list, got int"),
        ("hdg-assembled", "walk", "abc", "walk: expected a list, got str"),
        ("ahg15", "classes", 5, "classes: expected a list of lists, got int"),
        ("ahg15", "classes", ["abc"], "classes[0]: expected a list, got str"),
        ("hdg12-no-sp", "listed", {"a": 1}, "listed: expected a list of lists, got dict"),
        ("hdg12-no-sp", "listed", ["12"], "listed[0]: expected a list, got str"),
    ):
        doc = json.loads(cli.dumps_instance(build(instance)))
        doc["game"]["payload"]["orders"][5][form] = value
        cases.append((doc, f"game.payload.orders[5].{message}"))
    # approved coalitions: JSON false and 1.0 are not agents
    for approvals, message in (
        ([[[False, 1]], [[1, 2]], [[0, 2]]], "approvals[0][0]: expected a list of integer"),
        ([[[0, 1]], [[1.0, 2]], [[0, 2]]], "approvals[1][0]: expected a list of integer"),
        ([[[0, 1]], [[1, 2]], [[0, 2], [0, 0]]], "approvals[2][1]: duplicate agent 0"),
        ([[[0, 1]], "abc", [[0, 2]]], "approvals[1]: expected a list, got str"),
        (5, "approvals: expected a list of lists, got int"),
    ):
        doc = json.loads(cli.dumps_instance(build("dhg3")))
        doc["game"]["payload"]["approvals"] = approvals
        cases.append((doc, f"game.payload.{message}"))
    for doc, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["check", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_order_document_shapes():
    ahg15 = build("ahg15")
    hdg = build("hdg12-no-sp")
    walk = build("hdg-assembled")
    for inst in (ahg15, hdg, walk):
        text = cli.dumps_instance(inst)
        parsed = cli.doc_to_instance(json.loads(text))
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


def test_parse_errors_name_their_source(tmp_path, capsys):
    game = _write(tmp_path, "dhg3.json", build("dhg3"))
    assert cli.main(["check", game, "--inline", "[[0, 1],\n [2"]) == 2
    assert "--inline: parse error at line 2 column" in capsys.readouterr().err
    cover = tmp_path / "cover.json"
    cover.write_text("{oops")
    assert cli.main(["gen", "--reduce", "x3c-to-symfhg-exists",
                     "--input", str(cover)]) == 2
    assert f"{cover}: parse error at line 1 column 2" in capsys.readouterr().err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    for out in (tmp_path / "missing" / "t.json", tmp_path):
        assert cli.main(["run", path, "--policy", "script:cycle", "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert cli.main(["gen", "--bundled", "ahg7", "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err


def test_unwritable_out_is_reported_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run started although --out cannot be written")

    monkeypatch.setattr(cli, "run", no_run)
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    out = tmp_path / "missing" / "t.json"
    assert cli.main(["run", path, "--start", "singletons", "--out", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def test_failed_run_leaves_out_untouched(tmp_path, capsys):
    doc = json.loads(cli.dumps_instance(build("ahg7")))
    doc["scripts"]["broken"] = {
        "start": doc["starts"]["singletons"],
        "moves": [{"agent": 0, "target": "new-singleton"}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "t.json"
    out.write_bytes(b"earlier trace\n")
    out.chmod(0o640)
    before = sorted(p.name for p in tmp_path.iterdir())
    failing = (
        (["--policy", "script:broken"], 1),  # the run rejects a move
        (["--start", "singletons", "--monitors", "lambda"], 2),  # monitor refuses
    )
    for flags, code in failing:
        assert cli.main(["run", str(path), *flags, "--out", str(out)]) == code
        assert out.read_bytes() == b"earlier trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
    capsys.readouterr()
    assert cli.main(["run", str(path), "--start", "singletons", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["outcome"]["type"] == "cycle-detected"
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_out_to_a_pipe_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(["gen", "--bundled", "ahg7", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [cli.dumps_instance(build("ahg7")).encode()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]
    capsys.readouterr()


def test_gen_has_no_report_style(capsys):
    # gen writes an instance file, never a report
    assert cli.main(["gen", "--bundled", "ahg7", "--json-style"]) == 2
    capsys.readouterr()


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
    game = cli.doc_to_instance(json.loads(cli.dumps_instance(build("ahg7")))).game
    assert cli.revalidate_trace_doc(game, trace_doc) == len(trace_doc["steps"])


def test_run_trace_bytes_are_pinned(tmp_path, capsys):
    """sha256 of two ``hedyn run --out`` files: a cycle witness with
    ``gamma`` readings, and a converged ``lex`` run on a random weight
    game."""
    ahg7 = _write(tmp_path, "ahg7.json", build("ahg7"))
    fhg = _write(tmp_path, "fhg.json", random_instance("fhg", 12, 5))
    runs = (
        ([ahg7, "--policy", "script:cycle", "--monitors", "gamma"],
         "21823972a9531aab64735395d73142868db916a5288ac2da210c8ff800a9dcf1"),
        ([fhg, "--policy", "lex"],
         "dc9ce8fa2b662c0657b9a651612a8b21f226c3401d628ac655777a6ba6858f2d"),
    )
    out = tmp_path / "trace.json"
    for flags, digest in runs:
        assert cli.main(["run", *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, flags
    capsys.readouterr()


class _FailingHandle:
    """A text handle whose ``write`` raises ``OSError`` once ``limit``
    writes have gone through."""

    def __init__(self, handle, limit):
        self.handle, self.limit, self.writes = handle, limit, 0

    def write(self, text):
        if self.writes == self.limit:
            raise OSError(28, "No space left on device")
        self.writes += 1
        return self.handle.write(text)


def test_out_write_failing_part_way_leaves_out_untouched(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    out = tmp_path / "t.json"
    out.write_bytes(b"earlier trace\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    open_out = cli._open_out
    handles = []

    def failing_after(limit):
        @contextlib.contextmanager
        def opener(target):
            with open_out(target) as handle:
                handles.append(_FailingHandle(handle, limit))
                yield handles[-1]
        return opener

    argv = ["run", path, "--policy", "script:cycle", "--monitors", "gamma", "--out", str(out)]
    monkeypatch.setattr(cli, "_open_out", failing_after(None))
    assert cli.main(argv) == 0
    total = handles[-1].writes
    assert total > 3  # the trace goes out in many pieces
    out.write_bytes(b"earlier trace\n")
    capsys.readouterr()
    for limit in (0, 1, total // 2, total - 1):
        monkeypatch.setattr(cli, "_open_out", failing_after(limit))
        assert cli.main(argv) == 2
        assert f"cannot write {out}" in capsys.readouterr().err
        assert handles[-1].writes == limit
        assert out.read_bytes() == b"earlier trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before


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


@pytest.mark.parametrize("move", [
    {"agent": 99, "target": "new-singleton"},  # agent out of range
    {"agent": -1, "target": "new-singleton"},
    {"agent": 0, "target": []},  # the empty block is spelled "new-singleton"
])
def test_malformed_script_move_is_a_usage_error(tmp_path, capsys, move):
    doc = json.loads(cli.dumps_instance(build("ahg7")))
    doc["scripts"]["broken"] = {"start": doc["starts"]["singletons"], "moves": [move]}
    with pytest.raises(cli.CliUsageError):
        cli.doc_to_instance(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path), "--policy", "script:broken"]) == 2
    assert "Traceback" not in capsys.readouterr().err


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


def test_run_filter_needs_a_two_color_game(tmp_path, capsys):
    # a filter the game cannot take is bad input (2), not a failed claim (1)
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    assert cli.main(["run", path, "--start", "singletons",
                     "--filter", "solitary-homogeneity"]) == 2
    assert "two-color" in capsys.readouterr().err
    hdg = _write(tmp_path, "hdg26.json", build("hdg26-sp-strict-solitary"))
    assert cli.main(["run", hdg, "--policy", "script:cycle",
                     "--filter", "solitary-homogeneity"]) == 0
    assert "cycle-detected" in capsys.readouterr().out


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


def test_budget_seconds_from_environment():
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
    inst = cli.doc_to_instance(json.loads(out.read_text()))
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


def test_gen_reduce_rejects_non_integer_cover_elements(tmp_path, capsys):
    cover = tmp_path / "cover.json"
    mutants = [
        {"ground": [True, 2, 3], "sets": [[1, 2, 3]]},  # True would count as 1
        {"ground": [1.0, 2, 3], "sets": [[1, 2, 3]]},
        {"ground": ["1", 2, 3], "sets": [["1", 2, 3]]},
        {"ground": [1, 2, 3], "sets": [[True, 2, 3]]},
        {"ground": [1, 2, 3], "sets": [[1, 2, 3.0]]},
        {"ground": [1, 2, 3], "sets": [[1, 2, "3"]]},
        {"ground": "123", "sets": [[1, 2, 3]]},
        {"ground": [1, 2, 3], "sets": [1, 2, 3]},
        {"ground": [1, 2, 3], "sets": {"a": [1, 2, 3]}},
    ]
    args = ["gen", "--reduce", "x3c-to-symfhg-exists", "--input", str(cover)]
    cover.write_text(json.dumps({"ground": [1, 2, 3], "sets": [[1, 2, 3]]}))
    assert cli.main(args) == 0
    for doc in mutants:
        cover.write_text(json.dumps(doc))
        assert cli.main(args) == 2, doc
    capsys.readouterr()


def test_gen_reduce_keeps_declared_variable_count(tmp_path, capsys):
    # variable 4 is declared but never used, so it does not occur twice
    # with each sign as the size encoding needs
    cnf = tmp_path / "unused.cnf"
    cnf.write_text("p cnf 4 4\n1 2 3 0\n1 -2 -3 0\n-1 2 -3 0\n-1 -2 3 0\n")
    assert cli.main(["gen", "--reduce", "sat-to-ahg-exists", "--input", str(cnf)]) == 2
    assert "variable 4 occurs 0+ / 0- times" in capsys.readouterr().err


def test_gen_dimacs_parse_errors(tmp_path, capsys):
    cases = [
        ("p cnf 2\n1 0\n", "problem line"),
        ("p cnf 2 1\n1 x 0\n", "line 2"),
        ("p cnf 2 1\n3 0\n", "exceeds"),
        ("p cnf 2 1\n1 2\n", "terminating 0"),
        ("p cnf 2 2\n1 0\n", "declared 2 clauses"),
        ("1 0\n", "missing"),
        ("p cnf 2 0\n", "at least one clause"),
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
    for kind, pair in (("fhg", "low=a"), ("ahg", "strict=maybe"),
                       ("hdg", "reds=true"), ("dhg", "density=true")):
        assert cli.main(["gen", "--random", kind, "--n", "6", "--seed", "3",
                         "--restrict", pair]) == 2
        assert "must be of type" in capsys.readouterr().err
    assert cli.main(["gen", "--random", "ahg", "--n", "6", "--seed", "-1"]) == 2
    assert cli.main(["gen", "--random", "fhg", "--n", "6"]) == 2
    assert cli.main(["gen", "--bundled", "zzz"]) == 2
    assert cli.main(["gen"]) == 2
    assert cli.main(["gen", "--bundled", "dhg3", "--random", "ahg",
                     "--n", "3", "--seed", "1"]) == 2
    assert cli.main(["gen", "--reduce", "sat-to-zzz", "--input", "x"]) == 2
    capsys.readouterr()


def test_gen_random_dense_kinds_cap_n(capsys):
    # refused before the n x n preferences are built, so this takes no time
    for kind in ("ahg", "fhg"):
        for n in ("2001", "100000"):
            assert cli.main(["gen", "--random", kind, "--n", n, "--seed", "1"]) == 2
            assert "n must be <= 2000" in capsys.readouterr().err


def test_gen_bundled_output_parses_back(tmp_path, capsys):
    out = tmp_path / "fhg15.json"
    assert cli.main(["gen", "--bundled", "fhg15", "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.doc_to_instance(json.loads(out.read_text())).game.n == 15


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_scenario(capsys):
    assert cli.main(["verify", "--scenario", "dhg3", "--json-style"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert doc["scenarios"][0]["claims"]


def test_verify_all_report_is_pinned(capsys):
    """sha256 of ``hedyn verify --scenario all --json-style --verbose``: the
    claims of every bundled entry, in order, with their descriptions."""
    assert cli.main(["verify", "--scenario", "all", "--json-style", "--verbose"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "2352aba91aea7ab80037d16d9ccc306f194a49cab0a106400300324c65ece321"


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


def test_empty_trace_target_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ahg7.json", build("ahg7"))
    out = tmp_path / "trace.json"
    assert cli.main(["run", path, "--start", "singletons", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["steps"][0]["target"] = []
    with pytest.raises(cli.CliUsageError):
        cli.revalidate_trace_doc(build("ahg7").game, doc)
