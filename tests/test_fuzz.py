"""Seeded one-field mutation fuzz of the input boundary.

Each mutant changes one field of a valid input: an instance document read
by ``cli.doc_to_instance``, a trace document read by
``cli.revalidate_trace_doc``, a DIMACS or X3C file read by ``hedyn gen
--reduce``, or the kind, size, seed or restriction of ``hedyn gen
--random``.  Whatever the mutant, the program answers with exit code 0, 1
or 2, or raises ``CliUsageError`` or ``CliClaimError``; it never stops on
any other exception.
"""

import copy
import json
import random

import pytest

from hedonic_dynamics import cli
from hedonic_dynamics.instances import REDUCTION_KINDS, build

#: values a mutated field may take: wrong types, edge integers, bad rationals
VALUES = (
    None, True, False, 0, -1, 1, 7, 10**12, 0.5, "", "x", "1/0", "2/3", "-1/2",
    "new-singleton", [], [0], [[0]], [1, 1], {}, {"agent": 0},
)

#: tokens a mutated DIMACS line may take
TOKENS = ("0", "-0", "1", "-1", "3", "-4", "99", "x", "1.5", "p", "cnf", "c", "%", "")

DIMACS = "c toy\np cnf 3 2\n1 2 3 0\n-1 -2 -3 0\n"
X3C = {"ground": [1, 2, 3, 4, 5, 6], "sets": [[1, 2, 3], [4, 5, 6], [1, 2, 4]]}
EMPTY_X3C = {"ground": [], "sets": []}

#: one valid ``hedyn gen --random`` command per kind: KIND, N, SEED, KEY, VALUE
RANDOM_GEN = (
    ("ahg", "5", "1", "strict", "true"),
    ("hdg", "6", "2", "reds", "2"),
    ("fhg", "5", "3", "low", "-3"),
    ("dhg", "4", "4", "density", "50"),
)

#: tokens a mutated ``gen --random`` field may take
ARGS = ("ahg", "hdg", "fhg", "dhg", "zzz", "0", "-1", "1", "2", "12", "x", "1.5", "",
        "true", "false", "maybe", "none", "dag", "general", "=", "a=b")

#: every restriction key of the four kinds, plus an unknown one
RESTRICTION_KEYS = ("strict", "natural-sp", "reds", "family", "low", "high",
                    "symmetric", "density", "bogus")


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, path + (index,))


def mutate_doc(rng, doc):
    """A copy of ``doc`` with one field replaced, dropped or duplicated."""
    doc = copy.deepcopy(doc)
    path = rng.choice([p for p in _paths(doc) if p])
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    field = path[-1]
    op = rng.randrange(3)
    if op == 0:
        parent[field] = copy.deepcopy(rng.choice(VALUES))
    elif op == 1:
        del parent[field]
    elif isinstance(parent, list):
        parent.insert(field, copy.deepcopy(parent[field]))
    else:
        parent[field] = [parent[field]]
    return doc


def mutate_dimacs(rng, text):
    """``text`` with one token replaced, dropped or added, or one line
    dropped or doubled."""
    lines = [line.split() for line in text.splitlines()]
    row = rng.randrange(len(lines))
    tokens = lines[row]
    op = rng.randrange(5)
    if op == 0 and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
    elif op == 1 and tokens:
        del tokens[rng.randrange(len(tokens))]
    elif op == 2:
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(TOKENS))
    elif op == 3:
        del lines[row]
    else:
        lines.insert(row, list(tokens))
    return "".join(" ".join(line) + "\n" for line in lines)


@pytest.mark.parametrize(
    "instance_id, mutants",
    [("ahg7", 200), ("hdg10-weak", 150), ("hdg10-forced-strict", 150),
     ("hdg-assembled", 25), ("fhg-triangle", 150), ("dhg3", 150)],
)
def test_mutated_instance_documents(instance_id, mutants):
    rng = random.Random(f"instance {instance_id}")
    doc = json.loads(cli.dumps_instance(build(instance_id)))
    for _ in range(mutants):
        try:
            instance = cli.doc_to_instance(mutate_doc(rng, doc))
        except cli.CliUsageError:
            continue
        for claim in instance.expected:
            claim.describe()


def test_mutated_trace_documents(tmp_path, capsys):
    path = tmp_path / "ahg7.json"
    path.write_text(cli.dumps_instance(build("ahg7")))
    out = tmp_path / "trace.json"
    assert cli.main(["run", str(path), "--start", "singletons", "--out", str(out)]) == 0
    capsys.readouterr()
    game = build("ahg7").game
    doc = json.loads(out.read_text())
    rng = random.Random("trace")
    for _ in range(400):
        try:
            cli.revalidate_trace_doc(game, mutate_doc(rng, doc))
        except (cli.CliUsageError, cli.CliClaimError):
            pass


def _gen_reduce(tmp_path, capsys, kind, text):
    path = tmp_path / "input"
    path.write_text(text)
    code = cli.main(["gen", "--reduce", kind, "--input", str(path)])
    capsys.readouterr()
    return code


def test_mutated_dimacs_files(tmp_path, capsys):
    rng = random.Random("dimacs")
    kinds = [k for k in REDUCTION_KINDS if k.startswith("sat")]
    assert {_gen_reduce(tmp_path, capsys, k, DIMACS) for k in kinds} == {0, 2}
    for _ in range(200):
        text = mutate_dimacs(rng, DIMACS)
        assert _gen_reduce(tmp_path, capsys, rng.choice(kinds), text) in (0, 1, 2), text


def test_mutated_x3c_files(tmp_path, capsys):
    rng = random.Random("x3c")
    kinds = [k for k in REDUCTION_KINDS if k.startswith("x3c")]
    for kind in kinds:
        assert _gen_reduce(tmp_path, capsys, kind, json.dumps(X3C)) == 0
    for _ in range(200):
        text = json.dumps(mutate_doc(rng, X3C))
        assert _gen_reduce(tmp_path, capsys, rng.choice(kinds), text) in (0, 1, 2), text
    for kind in kinds:
        assert _gen_reduce(tmp_path, capsys, kind, json.dumps(EMPTY_X3C)) in (0, 2)
    for _ in range(40):
        text = json.dumps(mutate_doc(rng, EMPTY_X3C))
        assert _gen_reduce(tmp_path, capsys, rng.choice(kinds), text) in (0, 1, 2), text


def random_gen_args(kind, n, seed, key, value):
    return ["gen", "--random", kind, "--n", n, "--seed", seed,
            "--restrict", f"{key}={value}"]


def mutate_random_gen(rng, fields):
    """The ``gen --random`` arguments of ``fields`` with one field replaced."""
    fields = list(fields)
    at = rng.randrange(len(fields))
    fields[at] = rng.choice(RESTRICTION_KEYS if at == 3 else ARGS)
    return random_gen_args(*fields)


def test_mutated_random_gen_commands(capsys):
    for fields in RANDOM_GEN:
        assert cli.main(random_gen_args(*fields)) == 0
    rng = random.Random("random gen")
    codes = set()
    for _ in range(200):
        args = mutate_random_gen(rng, rng.choice(RANDOM_GEN))
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, (args, err)
        codes.add(code)
    assert {0, 2} <= codes


#: the commands each mutated instance file goes through
COMMANDS = (
    ["check"],
    ["run", "--max-steps", "50"],
    *(["search", "--mode", mode, "--budget", "2000:5"]
      for mode in ("exists-is", "exists-path", "converges")),
)


@pytest.mark.parametrize("instance_id, mutants", [("ahg7", 60), ("dhg3", 60)])
def test_mutated_instance_files_through_the_cli(tmp_path, capsys, instance_id, mutants):
    rng = random.Random(f"cli {instance_id}")
    doc = json.loads(cli.dumps_instance(build(instance_id)))
    path = tmp_path / "instance.json"
    codes = set()
    for _ in range(mutants):
        path.write_text(json.dumps(mutate_doc(rng, doc)))
        for command in COMMANDS:
            code = cli.main([command[0], str(path), *command[1:]])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (command, err)
            codes.add(code)
    assert {0, 2} <= codes  # some mutants still load, some do not
