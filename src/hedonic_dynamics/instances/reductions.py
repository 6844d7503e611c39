"""Translations from decision problems into hedonic deviation-dynamics questions.

Each ``reduce`` kind turns a small satisfiability or exact-cover input into a
bundled game instance whose dynamics answer the source question: either "is a
stable outcome reachable from the bundled start?" or "can the dynamics run
forever?".  The numeric scales that keep the encodings honest are checked at
build time, before any agents are allocated; overriding them with values that
break a required inequality raises :class:`ConstantInequalityViolation`.

The size-based and ratio-based encodings are verified here at the gadget
level: the bundled scripts exercise the two-agent cycle inside one variable
gadget.  The coverage and approval encodings are small enough to carry full
settle/cycle scripts, and the dichotomous "exists" kind round-trips against a
brute-force satisfiability check in the test suite.

Every reducer is built from one scaffold: agent ids come from the catalog's
``Roster``, the numeric scales from ``_scales``, two-colour blocks from
``_colored``, and the bundled scripts from the instance's own walks:
``NamedInstance.reach`` (a script from ``initial`` to a named start) and
``_loop`` (``NamedInstance.loop``, a script claimed to return to its start,
plus a claim on its length).  The two size and ratio "exists" kinds share
``_probe_cycle``, their gadget loop and claims.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ..core import MAX_AGENTS, Partition
from ..games import (
    AnonymousGame,
    Color,
    Completion,
    ComputedOrder,
    DichotomousGame,
    DiversityGame,
    FractionalGame,
    RatioDomain,
    SizeDomain,
)
from .catalog import Claim, NamedInstance, Roster, triangle_ring_weights

RED = Color.RED
BLUE = Color.BLUE

#: dense weight matrices and explicit approval families only stay desk-sized
#: up to these populations
_FHG_AGENT_CAP = 1200
_DHG_EXTENSIONAL_CAP = 16
#: exhaustive cover search is only attempted below this many candidate sets
_COVER_SEARCH_CAP = 14
#: final-state stability is re-checked as a claim only on small instances
_STABLE_CLAIM_CAP = 150


class ReductionError(ValueError):
    """A reduction input or parameter set cannot be honoured."""


class FormulaClassViolation(ReductionError):
    """The input lies outside the class the chosen encoding supports."""


class ConstantInequalityViolation(ReductionError):
    """A numeric scale breaks an inequality the encoding relies on."""


class ReductionTooLarge(ReductionError):
    """The faithful encoding would exceed the library's size limits."""


class UnknownReductionKind(KeyError):
    """No reduction registered under the requested kind."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SatFormula:
    """CNF formula with 1-based integer variables; negative literal = negation.

    ``clauses`` is a tuple of literal tuples, e.g. ``((1, -2, 3), (2, 2, -1))``.
    A variable may occur several times in one clause; each textual occurrence
    becomes its own slot.
    """

    clauses: tuple[tuple[int, ...], ...]
    num_vars: int = 0

    def __post_init__(self):
        clauses = tuple(tuple(c) for c in self.clauses)
        if not clauses:
            raise ReductionError("formula needs at least one clause")
        top = 0
        for idx, clause in enumerate(clauses, start=1):
            if not clause:
                raise ReductionError(f"clause {idx} is empty")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0:
                    raise ReductionError(f"clause {idx} holds invalid literal {lit!r}")
                top = max(top, abs(lit))
        num_vars = self.num_vars or top
        if num_vars < top:
            raise ReductionError(f"literals mention variable {top} > num_vars={num_vars}")
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "num_vars", num_vars)

    @property
    def m(self) -> int:
        return len(self.clauses)

    def occurrence_table(self):
        """Per variable: (positive clause indices, negative clause indices), 1-based."""
        pos = {v: [] for v in range(1, self.num_vars + 1)}
        neg = {v: [] for v in range(1, self.num_vars + 1)}
        for cidx, clause in enumerate(self.clauses, start=1):
            for lit in clause:
                (pos if lit > 0 else neg)[abs(lit)].append(cidx)
        return pos, neg

    def clause_slots(self):
        """Per clause: tuple of (variable, polarity, occurrence index) slots."""
        pos_seen = {}
        neg_seen = {}
        out = []
        for clause in self.clauses:
            slots = []
            for lit in clause:
                v = abs(lit)
                seen = pos_seen if lit > 0 else neg_seen
                seen[v] = seen.get(v, 0) + 1
                slots.append((v, lit > 0, seen[v]))
            out.append(tuple(slots))
        return tuple(out)

    def satisfied_by(self, assignment: dict) -> bool:
        return all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


@dataclass(frozen=True)
class X3CInstance:
    """Exact-cover-by-3-sets input: ground elements plus 3-element candidate sets."""

    ground: tuple[int, ...]
    sets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        ground = tuple(sorted(self.ground))
        if len(set(ground)) != len(ground):
            raise ReductionError("ground elements must be distinct")
        if len(ground) % 3 != 0:
            raise ReductionError(f"|ground| = {len(ground)} is not divisible by 3")
        pool = set(ground)
        sets = []
        for idx, s in enumerate(self.sets, start=1):
            members = tuple(sorted(s))
            if len(members) != 3 or len(set(members)) != 3:
                raise ReductionError(f"candidate set {idx} must have 3 distinct members")
            if not set(members) <= pool:
                raise ReductionError(f"candidate set {idx} leaves the ground set")
            sets.append(members)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "sets", tuple(sets))


def brute_force_sat(formula: SatFormula):
    """First satisfying assignment as ``{var: bool}``, or ``None``."""
    variables = range(1, formula.num_vars + 1)
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        assignment = dict(zip(variables, bits))
        if formula.satisfied_by(assignment):
            return assignment
    return None


def brute_force_x3c(problem: X3CInstance):
    """Indices of an exact cover, or ``None``.  Exponential; toys only."""
    want = len(problem.ground)
    if want == 0:
        return ()
    for pick in itertools.combinations(range(len(problem.sets)), want // 3):
        seen = set()
        for si in pick:
            seen.update(problem.sets[si])
        if len(seen) == want:
            return pick
    return None


# ---------------------------------------------------------------------------
# input-class validators
# ---------------------------------------------------------------------------


def _require_strict_occurrence_class(formula: SatFormula) -> None:
    """Exactly 3 distinct variables per clause; every variable 2+ and 2- occurrences."""
    for idx, clause in enumerate(formula.clauses, start=1):
        if len(clause) != 3:
            raise FormulaClassViolation(
                f"clause {idx} has {len(clause)} literals; this encoding needs exactly 3"
            )
        if len({abs(lit) for lit in clause}) != 3:
            raise FormulaClassViolation(
                f"clause {idx} repeats a variable; this encoding needs 3 distinct ones"
            )
    pos, neg = formula.occurrence_table()
    for var in range(1, formula.num_vars + 1):
        if len(pos[var]) != 2 or len(neg[var]) != 2:
            raise FormulaClassViolation(
                f"variable {var} occurs {len(pos[var])}+ / {len(neg[var])}- times; "
                "this encoding needs exactly 2 of each"
            )


def _require_compatible_occurrence_class(formula: SatFormula) -> None:
    """Exactly 3 slots per clause; at most 2 occurrences per literal polarity."""
    for idx, clause in enumerate(formula.clauses, start=1):
        if len(clause) != 3:
            raise FormulaClassViolation(
                f"clause {idx} has {len(clause)} literals; this encoding needs exactly 3"
            )
    pos, neg = formula.occurrence_table()
    for var in range(1, formula.num_vars + 1):
        if len(pos[var]) > 2 or len(neg[var]) > 2:
            raise FormulaClassViolation(
                f"variable {var} occurs {len(pos[var])}+ / {len(neg[var])}- times; "
                "this encoding supports at most 2 of each"
            )


def _require_multi_clause(formula: SatFormula) -> None:
    if formula.m < 2:
        raise FormulaClassViolation(
            "the cyclic clause chain needs at least 2 clauses"
        )


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _need(condition: bool, text: str) -> None:
    if not condition:
        raise ConstantInequalityViolation(text)


def _cap_population(n: int, kind: str) -> None:
    if n > MAX_AGENTS:
        raise ReductionTooLarge(
            f"{kind} would create {n} agents (limit {MAX_AGENTS}); "
            "override the scale parameters with smaller values"
        )


def _no_params(kind: str, params) -> None:
    if params:
        raise ReductionError(f"{kind} takes no parameters; got {sorted(params)}")


def _scales(kind: str, params, defaults: dict) -> list:
    """The scales in ``defaults`` order, each one overridable by ``params``.

    A scale with an integer default must stay an integer >= 2.  A rational
    one (a weight) may be given as an integer, a ``Fraction`` or a string
    ``Fraction`` parses, and comes back as a ``Fraction``; its bounds are
    checked by its reducer.
    """
    chosen = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ReductionError(
                f"{kind} knows parameters {sorted(defaults)}; got {key!r}"
            )
        chosen[key] = value
    for key, value in chosen.items():
        if isinstance(defaults[key], int) and (
            not isinstance(value, int) or isinstance(value, bool) or value < 2
        ):
            raise ConstantInequalityViolation(
                f"{kind} parameter {key!r} must be an integer >= 2; got {value!r}"
            )
        if isinstance(defaults[key], Fraction):
            chosen[key] = _rational(kind, key, value)
    return list(chosen.values())


def _rational(kind: str, key: str, value) -> Fraction:
    if isinstance(value, (int, Fraction, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # a string Fraction rejects
            pass
    raise ConstantInequalityViolation(
        f"{kind} parameter {key!r} must be an integer, a Fraction or a "
        f"rational string; got {value!r}"
    )


def _listed(domain, *keys) -> ComputedOrder:
    # a hand-written rank list may mention one value twice under two readings;
    # the earlier (better) rank wins
    kept = []
    for key in keys:
        if key not in kept:
            kept.append(key)
    return ComputedOrder([[k] for k in kept], domain, Completion.BOTTOM)


def _chain_desc(name: str, values) -> None:
    values = list(values)
    for a, b in zip(values, values[1:]):
        _need(a > b, f"{name}: needed {a} > {b}")


def _colored(roster: Roster, prefix: str, total: int, red_count: int, order) -> list[int]:
    """``total`` agents sharing ``order``: the first ``red_count`` red, the rest blue."""
    ids = roster.many(prefix, total, BLUE, order)
    for a in ids[:red_count]:
        roster.colors[a] = RED
    return ids


def _loop(instance: NamedInstance, script: str, start: Partition, hops, note: str) -> None:
    """``instance.loop``, with the loop's length claimed as well."""
    instance.loop(script, start, hops, note)
    instance.expected += (Claim("script-length", script, params={"length": len(hops)}),)


# ---------------------------------------------------------------------------
# size-based encodings (reachability / convergence of anonymous games)
# ---------------------------------------------------------------------------


def _size_families(kind: str, families: dict) -> None:
    """Every listed block size must decode to exactly one (family, role)."""
    seen = {}
    for name, values in families.items():
        for v in values:
            if v < 2:
                raise ConstantInequalityViolation(
                    f"{kind}: size {v} in the {name} family collides with singletons"
                )
            if v in seen:
                raise ConstantInequalityViolation(
                    f"{kind}: size {v} belongs to both the {seen[v]} and {name} families"
                )
            seen[v] = name


def _probe_cycle(name: str, game, roster: Roster, blocks, probes, anchors) -> NamedInstance:
    """A size or ratio "exists" instance: ``initial`` is ``blocks``, and the
    ``gadget-cycle`` script loops variable 1's two ``probes`` around the
    gadget parts whose first agents are ``anchors``.

    The loop starts from ``blocks`` with the probes moved out of their pools,
    the positive one onto gadget part 3 and the negative one onto part 2.
    """
    instance = NamedInstance(
        name, game, {"initial": Partition(blocks)},
        expected=(Claim("strict", holds=False),), labels=tuple(roster.labels),
    )
    z, zb = probes
    g1, g2, g3 = anchors
    moved = {g2: [zb], g3: [z]}
    relocated = [[a for a in blk if a not in probes] + moved.get(blk[0], [])
                 for blk in blocks]
    _loop(
        instance, "gadget-cycle", Partition(relocated),
        [(zb, g3), (z, g2), (zb, g1), (z, g1), (zb, g2), (z, g3)],
        note="the two probes of variable 1 chase each other around its gadget",
    )
    return instance


def _reduce_sat_ahg_exists(formula: SatFormula, params) -> NamedInstance:
    kind = "sat-to-ahg-exists"
    _require_strict_occurrence_class(formula)
    m, p = formula.m, formula.num_vars
    ca, bp, bn, g = _scales(kind, params, {
        "clause-scale": m**5, "pos-scale": m**4, "neg-scale": m**3, "gadget-scale": m**2,
    })
    _size_families(
        kind,
        {
            "clause": [q * ca + x for q in range(1, m + 1) for x in (0, 1, 2)],
            "pos": [r * bp + y for r in range(1, p + 1) for y in (-1, 0, 1, 2)],
            "neg": [r * bn + y for r in range(1, p + 1) for y in (-1, 0, 1, 2)],
            "gadget": [t * g + w for t in range(1, p + 1) for w in range(8)],
        },
    )
    tri_p = p * (p + 1) // 2
    n = 4 * p + ca * m * (m + 1) // 2 + (bp + bn) * tri_p + 3 * g * tri_p + 8 * p
    _cap_population(n, kind)

    dom = SizeDomain(n)
    roster = Roster()
    blocks = []
    pos, neg = formula.occurrence_table()

    for i in range(1, p + 1):
        for k, cl in enumerate(pos[i], start=1):
            order = _listed(dom, cl * ca + 1, i * bp + 2, i * bp + 1, 1)
            blocks.append([roster.add(f"lit+{i}.{k}", order=order)])
        for k, cl in enumerate(neg[i], start=1):
            order = _listed(dom, cl * ca + 1, i * bn + 2, i * bn + 1, 1)
            blocks.append([roster.add(f"lit-{i}.{k}", order=order)])

    probes = []
    for i in range(1, p + 1):
        z = roster.add(
            f"probe+{i}",
            order=_listed(dom, i * bp + 2, i * g + 2, i * g + 4, i * g + 7,
                          i * g + 6, i * g + 1, i * bp + 1, i * bp),
        )
        blocks.append([z] + roster.many(
            f"pool+{i}.", i * bp - 1,
            order=_listed(dom, i * bp + 2, i * bp + 1, i * bp, i * bp - 1),
        ))
        zb = roster.add(
            f"probe-{i}",
            order=_listed(dom, i * bn + 2, i * g + 7, i * g + 4, i * g + 2,
                          i * g + 1, i * g + 6, i * bn + 1, i * bn),
        )
        blocks.append([zb] + roster.many(
            f"pool-{i}.", i * bn - 1,
            order=_listed(dom, i * bn + 2, i * bn + 1, i * bn, i * bn - 1),
        ))
        probes.append((z, zb))

    for j in range(1, m + 1):
        order = _listed(dom, j * ca + 1, j * ca)
        blocks.append(roster.many(f"clause{j}.", j * ca, order=order))

    anchors = []
    for i in range(1, p + 1):
        for part, size, keys in (
            (1, i * g, (i * g + 2, i * g + 1, i * g)),
            (2, i * g + 3, (i * g + 4, i * g + 3)),
            (3, i * g + 5, (i * g + 7, i * g + 6, i * g + 5)),
        ):
            blocks.append(roster.many(f"gadget{i}.{part}.", size, order=_listed(dom, *keys)))
            anchors.append(blocks[-1][0])

    return _probe_cycle(f"{kind}(m={m},p={p})", AnonymousGame(roster.orders), roster,
                        blocks, probes[0], anchors[:3])


def _reduce_sat_ahg_converge(formula: SatFormula, params) -> NamedInstance:
    kind = "sat-to-ahg-converge"
    _require_strict_occurrence_class(formula)
    m, p = formula.m, formula.num_vars
    ca, bp1, bn1, bp2, bn2 = _scales(kind, params, {
        "clause-scale": m**5, "pos-scale": m**4, "neg-scale": m**3,
        "pos-relay": m**2, "neg-relay": m,
    })
    _size_families(
        kind,
        {
            "clause": [q * ca + x for q in range(1, m + 2) for x in (0, 1, 2)],
            "pos": [r * bp1 + y for r in range(1, p + 1) for y in (0, 1, 2)],
            "neg": [r * bn1 + y for r in range(1, p + 1) for y in (0, 1, 2)],
            "pos-relay": [r * bp2 + y for r in range(1, p + 1) for y in (0, 1, 2)],
            "neg-relay": [r * bn2 + y for r in range(1, p + 1) for y in (0, 1, 2)],
        },
    )
    tri_p = p * (p + 1) // 2
    n = 1 + 4 * p + ca * (m + 1) * (m + 2) // 2 + (bp1 + bn1 + bp2 + bn2) * tri_p
    _cap_population(n, kind)

    dom = SizeDomain(n)
    roster = Roster()
    blocks = []
    pos, neg = formula.occurrence_table()

    def clause_prefix(cl):
        return (cl * ca + 2, (cl + 1) * ca + 2, (cl + 1) * ca + 1, cl * ca + 1)

    for i in range(1, p + 1):
        c1, c2 = pos[i]
        blocks.append([roster.add(
            f"lit+{i}.1",
            order=_listed(dom, *clause_prefix(c1), i * bp1 + 2, i * bp2 + 2,
                          i * bp2 + 1, i * bp1 + 1, 1),
        )])
        if i < p:
            tail = (i * bp2 + 2, (i + 1) * bp1 + 2, (i + 1) * bp1 + 1,
                    (i + 1) * bn1 + 2, (i + 1) * bn1 + 1, i * bp2 + 1, 1)
        else:
            tail = (p * bp2 + 2, ca + 2, ca + 1, p * bp2 + 1, 1)
        blocks.append([roster.add(
            f"lit+{i}.2", order=_listed(dom, *clause_prefix(c2), *tail),
        )])
        d1, d2 = neg[i]
        blocks.append([roster.add(
            f"lit-{i}.1",
            order=_listed(dom, *clause_prefix(d1), i * bn1 + 2, i * bn2 + 2,
                          i * bn2 + 1, i * bn1 + 1, 1),
        )])
        if i < p:
            tail = (i * bn2 + 2, (i + 1) * bp1 + 2, (i + 1) * bp1 + 1,
                    (i + 1) * bn1 + 2, (i + 1) * bn1 + 1, i * bn2 + 1, 1)
        else:
            tail = (p * bn2 + 2, ca + 2, ca + 1, p * bn2 + 1, 1)
        blocks.append([roster.add(
            f"lit-{i}.2", order=_listed(dom, *clause_prefix(d2), *tail),
        )])

    blocks.append([roster.add(
        "trigger",
        order=_listed(dom, (m + 1) * ca + 2, bp1 + 2, bp1 + 1, bn1 + 2, bn1 + 1,
                      (m + 1) * ca + 1, 1),
    )])

    for j in range(1, m + 2):
        order = _listed(dom, j * ca + 2, j * ca + 1, j * ca, 1)
        blocks.append(roster.many(f"clause{j}.", j * ca, order=order))

    for i in range(1, p + 1):
        for tag, scale in (("pool+", bp1), ("pool-", bn1),
                           ("relay+", bp2), ("relay-", bn2)):
            size = i * scale
            order = _listed(dom, size + 2, size + 1, size, 1)
            blocks.append(roster.many(f"{tag}{i}.", size, order=order))

    return NamedInstance(
        f"{kind}(m={m},p={p})", AnonymousGame(roster.orders), {"initial": Partition(blocks)},
        expected=(Claim("strict", holds=False),), labels=tuple(roster.labels),
    )


# ---------------------------------------------------------------------------
# ratio-based encodings (reachability / convergence of two-color games)
# ---------------------------------------------------------------------------


def _reduce_sat_hdg_exists(formula: SatFormula, params) -> NamedInstance:
    kind = "sat-to-hdg-exists"
    _require_strict_occurrence_class(formula)
    m, p = formula.m, formula.num_vars
    ca, b, g = _scales(kind, params, {
        "clause-scale": m**2, "variable-scale": m**4, "gadget-scale": m**7,
    })
    F = Fraction

    _need(ca > 2 * m - 1, f"clause-scale {ca} must exceed 2m-1 = {2 * m - 1}")
    _need(b > max(3 * p - 2, 3 * p * ca + 3 * p - 2),
          f"variable-scale {b} too small against clause-scale {ca}")
    _need(g > max(12 * p - 2, 6 * p * b + 12 * p - 1),
          f"gadget-scale {g} too small against variable-scale {b}")

    for j in range(1, m + 1):
        _chain_desc(f"clause family {j}",
                    [F(2 * j, ca + 1), F(2 * j - 1, ca), F(2 * j - 1, ca + 1)])
        if j < m:
            _need(F(2 * j, ca + 1) < F(2 * j + 1, ca + 1),
                  f"clause families {j} and {j + 1} must not interleave")
        _need(2 * j - 1 <= ca, f"clause block {j} cannot host {2 * j - 1} reds")
    _need(F(2 * m, ca + 1) < 1, "clause ratios must stay below the all-red line")
    for i in range(1, p + 1):
        _chain_desc(
            f"variable family {i}",
            [F(3 * i, b + 2), F(3 * i - 1, b + 1), F(3 * i - 2, b),
             F(3 * i - 2, b + 1), F(3 * i - 2, b + 2)],
        )
        if i < p:
            _need(F(3 * i, b + 2) < F(3 * i + 1, b + 2),
                  f"variable families {i} and {i + 1} must not interleave")
        _need(3 * i - 2 <= b - 1, f"variable block {i} cannot host {3 * i - 2} reds")
    _need(F(3 * p, b + 2) < F(1, ca + 1),
          "variable ratios must sit strictly below clause ratios")
    for i in range(1, p + 1):
        x = 6 * (p - i)
        _chain_desc(
            f"gadget family {i}",
            [F(x + 6, i * g + 1), F(x + 6, i * g + 2), F(x + 5, i * g),
             F(x + 5, i * g + 1), F(x + 4, i * g + 1), F(x + 3, i * g),
             F(x + 3, i * g + 1), F(x + 2, i * g + 1), F(x + 2, i * g + 2),
             F(x + 1, i * g), F(x + 1, i * g + 1)],
        )
        if i < p:
            _need(F(x + 1, i * g + 1) > F(x, (i + 1) * g + 1),
                  f"gadget families {i} and {i + 1} must not interleave")
        _need(x + 5 <= i * g, f"gadget block {i} cannot host {x + 5} reds")
    _need(F(6 * p, g + 1) < F(1, b + 2),
          "gadget ratios must sit strictly below variable ratios")

    n = 4 * p + m * ca + 2 * p * b + 3 * g * p * (p + 1) // 2
    _cap_population(n, kind)

    reds = 3 * p  # two positive literal agents and one positive probe per variable
    reds += sum(2 * j - 1 for j in range(1, m + 1))
    reds += sum((3 * i - 3) + (3 * i - 2) for i in range(1, p + 1))
    reds += sum(3 * (6 * (p - i)) + 9 for i in range(1, p + 1))
    dom = RatioDomain(reds, n - reds)
    ONE, ZERO = F(1), F(0)

    roster = Roster()
    blocks = []
    pos, neg = formula.occurrence_table()

    for i in range(1, p + 1):
        for k, cl in enumerate(pos[i], start=1):
            order = _listed(dom, F(2 * cl, ca + 1), F(3 * i, b + 2),
                            F(3 * i - 1, b + 1), ONE)
            blocks.append([roster.add(f"lit+{i}.{k}", RED, order)])
        for k, cl in enumerate(neg[i], start=1):
            order = _listed(dom, F(2 * cl - 1, ca + 1), F(3 * i - 2, b + 2),
                            F(3 * i - 2, b + 1), ZERO)
            blocks.append([roster.add(f"lit-{i}.{k}", BLUE, order)])

    probes = []
    for i in range(1, p + 1):
        x = 6 * (p - i)
        z = roster.add(
            f"probe+{i}", RED,
            _listed(dom, F(3 * i, b + 2), F(x + 2, i * g + 2), F(x + 4, i * g + 1),
                    F(x + 6, i * g + 2), F(x + 6, i * g + 1), F(x + 2, i * g + 1),
                    F(3 * i - 1, b + 1), F(3 * i - 2, b)),
        )
        blocks.append([z] + _colored(
            roster, f"pool+{i}.", b - 1, 3 * i - 3,
            _listed(dom, F(3 * i, b + 2), F(3 * i - 1, b + 1), F(3 * i - 2, b),
                    F(3 * i - 3, b - 1)),
        ))
        zb = roster.add(
            f"probe-{i}", BLUE,
            _listed(dom, F(3 * i - 2, b + 2), F(x + 6, i * g + 2), F(x + 3, i * g + 1),
                    F(x + 2, i * g + 2), F(x + 1, i * g + 1), F(x + 5, i * g + 1),
                    F(3 * i - 2, b + 1), F(3 * i - 2, b)),
        )
        blocks.append([zb] + _colored(
            roster, f"pool-{i}.", b - 1, 3 * i - 2,
            _listed(dom, F(3 * i - 2, b + 2), F(3 * i - 2, b + 1), F(3 * i - 2, b),
                    F(3 * i - 2, b - 1)),
        ))
        probes.append((z, zb))

    for j in range(1, m + 1):
        order = _listed(dom, F(2 * j, ca + 1), F(2 * j - 1, ca + 1), F(2 * j - 1, ca))
        blocks.append(_colored(roster, f"clause{j}.", ca, 2 * j - 1, order))

    anchors = []
    for i in range(1, p + 1):
        x = 6 * (p - i)
        for part, red_count, keys in (
            (1, x + 1, (F(x + 2, i * g + 2), F(x + 2, i * g + 1),
                        F(x + 1, i * g + 1), F(x + 1, i * g))),
            (2, x + 3, (F(x + 4, i * g + 1), F(x + 3, i * g + 1), F(x + 3, i * g))),
            (3, x + 5, (F(x + 6, i * g + 2), F(x + 6, i * g + 1),
                        F(x + 5, i * g + 1), F(x + 5, i * g))),
        ):
            blocks.append(_colored(roster, f"gadget{i}.{part}.", i * g, red_count,
                                   _listed(dom, *keys)))
            anchors.append(blocks[-1][0])

    game = DiversityGame(roster.colors, roster.orders)
    assert game.reds == reds
    return _probe_cycle(f"{kind}(m={m},p={p})", game, roster, blocks, probes[0], anchors[:3])


def _reduce_sat_hdg_converge(formula: SatFormula, params) -> NamedInstance:
    kind = "sat-to-hdg-converge"
    _require_strict_occurrence_class(formula)
    m, p = formula.m, formula.num_vars
    ca, bp1, bn1, b2 = _scales(kind, params, {
        "clause-scale": m**3, "pos-scale": m**5, "neg-scale": m**7, "relay-scale": m**9,
    })
    F = Fraction

    _need(ca > 6 * m + 2, f"clause-scale {ca} must exceed 6m+2 = {6 * m + 2}")
    _need(bp1 > max(4 * p - 2, (2 * p + 1) * ca + 4 * p),
          f"pos-scale {bp1} too small against clause-scale {ca}")
    _need(bn1 > max(4 * p - 2, 2 * p * bp1 + 2 * p - 2),
          f"neg-scale {bn1} too small against pos-scale {bp1}")
    _need(b2 > max(3 * p - 2, 3 * p * bn1 + 4 * p),
          f"relay-scale {b2} too small against neg-scale {bn1}")

    for j in range(1, m + 2):
        _chain_desc(
            f"clause family {j}",
            [F(3 * j, ca + 2), F(3 * j - 1, ca + 1), F(3 * j - 1, ca + 2),
             F(3 * j - 2, ca), F(3 * j - 2, ca + 1), F(3 * j - 2, ca + 2)],
        )
        if j <= m:
            _need(F(3 * j, ca + 2) < F(3 * j + 1, ca + 2),
                  f"clause families {j} and {j + 1} must not interleave")
        _need(3 * j - 2 <= ca, f"clause block {j} cannot host {3 * j - 2} reds")
    _need(F(3 * m + 3, ca + 2) < 1, "clause ratios must stay below the all-red line")
    for i in range(1, p + 1):
        _chain_desc(
            f"pos family {i}",
            [F(2 * i + 1, bp1 + 2), F(2 * i, bp1 + 1), F(2 * i, bp1 + 2),
             F(2 * i - 1, bp1), F(2 * i - 1, bp1 + 1), F(2 * i - 1, bp1 + 2)],
        )
        _chain_desc(
            f"neg family {i}",
            [F(2 * i, bn1 + 1), F(2 * i, bn1 + 2), F(2 * i - 1, bn1),
             F(2 * i - 1, bn1 + 1), F(2 * i - 1, bn1 + 2)],
        )
        _chain_desc(
            f"relay family {i}",
            [F(3 * i, b2 + 2), F(3 * i - 1, b2 + 1), F(3 * i - 2, b2),
             F(3 * i - 2, b2 + 1), F(3 * i - 2, b2 + 2)],
        )
        if i < p:
            _need(F(2 * i + 1, bp1 + 2) < F(2 * i + 1, bp1 + 1),
                  f"pos families {i} and {i + 1} must not interleave")
            _need(F(2 * i, bn1 + 1) < F(2 * i + 1, bn1 + 2),
                  f"neg families {i} and {i + 1} must not interleave")
            _need(F(3 * i, b2 + 2) < F(3 * i + 1, b2 + 2),
                  f"relay families {i} and {i + 1} must not interleave")
        _need(2 * i - 1 <= bp1, f"pos block {i} cannot host {2 * i - 1} reds")
        _need(2 * i - 1 <= bn1, f"neg block {i} cannot host {2 * i - 1} reds")
        _need(3 * i - 2 <= b2, f"relay block {i} cannot host {3 * i - 2} reds")
    _need(F(2 * p + 1, bp1 + 2) < F(1, ca + 2),
          "pos ratios must sit strictly below clause ratios")
    _need(F(2 * p, bn1 + 1) < F(1, bp1 + 2),
          "neg ratios must sit strictly below pos ratios")
    _need(F(3 * p, b2 + 2) < F(1, bn1 + 2),
          "relay ratios must sit strictly below neg ratios")

    n = 1 + 4 * p + (m + 1) * ca + p * (bp1 + bn1 + 2 * b2)
    _cap_population(n, kind)

    reds = 1 + 2 * p  # the trigger and the positive literal agents
    reds += sum(3 * j - 2 for j in range(1, m + 2))
    reds += sum(2 * (2 * i - 1) + 2 * (3 * i - 2) for i in range(1, p + 1))
    dom = RatioDomain(reds, n - reds)
    ONE, ZERO = F(1), F(0)

    roster = Roster()
    blocks = []
    pos, neg = formula.occurrence_table()

    def clause_six(cl, shift):
        return (
            F(3 * cl - shift, ca + 2),
            F(3 * cl - 1 - shift, ca + 2),
            F(3 * cl + 3 - shift, ca + 2),
            F(3 * cl + 2 - shift, ca + 2),
            F(3 * cl + 2 - shift, ca + 1),
            F(3 * cl - 1 - shift, ca + 1),
        )

    for i in range(1, p + 1):
        c1 = pos[i][0]
        blocks.append([roster.add(
            f"lit+{i}.1", RED,
            _listed(dom, *clause_six(c1, 0), F(2 * i + 1, bp1 + 2),
                    F(2 * i, bp1 + 2), F(3 * i, b2 + 2), F(3 * i - 1, b2 + 1),
                    F(2 * i, bp1 + 1), ONE),
        )])
        if i < p:
            tail = (F(3 * i, b2 + 2), F(2 * i + 3, bp1 + 2), F(2 * i + 2, bp1 + 2),
                    F(2 * i + 2, bp1 + 1), F(2 * i + 3, bn1 + 2),
                    F(2 * i + 2, bn1 + 2), F(2 * i + 2, bn1 + 1),
                    F(3 * i - 1, b2 + 1), ONE)
        else:
            tail = (F(3 * p, b2 + 2), F(3, ca + 2), F(2, ca + 2), F(2, ca + 1),
                    F(3 * p - 1, b2 + 1), ONE)
        blocks.append([roster.add(
            f"lit+{i}.2", RED, _listed(dom, *clause_six(c1, 0), *tail),
        )])
        d1 = neg[i][0]
        blocks.append([roster.add(
            f"lit-{i}.1", BLUE,
            _listed(dom, *clause_six(d1, 1), F(2 * i, bn1 + 2),
                    F(2 * i - 1, bn1 + 2), F(3 * i - 2, b2 + 2),
                    F(3 * i - 2, b2 + 1), F(2 * i - 1, bn1 + 1), ZERO),
        )])
        if i < p:
            tail = (F(3 * i - 2, b2 + 2), F(2 * i + 2, bp1 + 2),
                    F(2 * i + 1, bp1 + 2), F(2 * i + 1, bp1 + 1),
                    F(2 * i + 2, bn1 + 2), F(2 * i + 1, bn1 + 2),
                    F(2 * i + 1, bn1 + 1), F(3 * i - 2, b2 + 1), ZERO)
        else:
            tail = (F(3 * p - 2, b2 + 2), F(2, ca + 2), F(1, ca + 2), F(1, ca + 1),
                    F(3 * p - 2, b2 + 1), ZERO)
        blocks.append([roster.add(
            f"lit-{i}.2", BLUE, _listed(dom, *clause_six(d1, 1), *tail),
        )])

    blocks.append([roster.add(
        "trigger", RED,
        _listed(dom, F(3 * m + 3, ca + 2), F(3 * m + 2, ca + 2), F(3, bp1 + 2),
                F(2, bn1 + 2), F(2, bp1 + 1), F(2, bn1 + 1), F(3 * m + 2, ca + 1),
                ONE),
    )])

    for j in range(1, m + 2):
        order = _listed(dom, F(3 * j, ca + 2), F(3 * j - 1, ca + 2),
                        F(3 * j - 2, ca + 2), F(3 * j - 1, ca + 1),
                        F(3 * j - 2, ca + 1), F(3 * j - 2, ca))
        blocks.append(_colored(roster, f"clause{j}.", ca, 3 * j - 2, order))

    for i in range(1, p + 1):
        blocks.append(_colored(
            roster, f"pool+{i}.", bp1, 2 * i - 1,
            _listed(dom, F(2 * i + 1, bp1 + 2), F(2 * i, bp1 + 2),
                    F(2 * i, bp1 + 1), F(2 * i - 1, bp1 + 1), F(2 * i - 1, bp1)),
        ))
        blocks.append(_colored(
            roster, f"pool-{i}.", bn1, 2 * i - 1,
            _listed(dom, F(2 * i, bn1 + 2), F(2 * i - 1, bn1 + 2),
                    F(2 * i, bn1 + 1), F(2 * i - 1, bn1 + 1), F(2 * i - 1, bn1)),
        ))
        blocks.append(_colored(
            roster, f"relay+{i}.", b2, 3 * i - 2,
            _listed(dom, F(3 * i, b2 + 2), F(3 * i - 1, b2 + 1), F(3 * i - 2, b2)),
        ))
        blocks.append(_colored(
            roster, f"relay-{i}.", b2, 3 * i - 2,
            _listed(dom, F(3 * i - 2, b2 + 2), F(3 * i - 2, b2 + 1),
                    F(3 * i - 2, b2)),
        ))

    game = DiversityGame(roster.colors, roster.orders)
    assert game.reds == reds
    return NamedInstance(
        f"{kind}(m={m},p={p})", game, {"initial": Partition(blocks)},
        expected=(Claim("strict", holds=False),), labels=tuple(roster.labels),
    )


# ---------------------------------------------------------------------------
# average-weight encodings (exact cover)
# ---------------------------------------------------------------------------


def _coverage(problem: X3CInstance) -> dict:
    counts = {r: 0 for r in problem.ground}
    for s in problem.sets:
        for r in s:
            counts[r] += 1
    return counts


def _require_coverage(problem: X3CInstance, kind: str) -> dict:
    counts = _coverage(problem)
    missing = [r for r, c in counts.items() if c == 0]
    if missing:
        raise FormulaClassViolation(
            f"{kind}: element(s) {missing[:3]} appear in no candidate set"
        )
    return counts


def _cap_fhg(n: int, kind: str) -> None:
    if n == 0:
        raise ReductionError(f"{kind}: an empty cover input gives a game with no agents")
    if n > _FHG_AGENT_CAP:
        raise ReductionTooLarge(
            f"{kind} would create {n} agents; dense weight matrices are capped "
            f"at {_FHG_AGENT_CAP}"
        )


def _cover_for_scripts(problem: X3CInstance):
    if len(problem.sets) > _COVER_SEARCH_CAP:
        return None
    return brute_force_x3c(problem)


def _x3c_instance(kind: str, problem: X3CInstance, game, initial, claim, roster):
    return NamedInstance(
        f"{kind}(r={len(problem.ground)},s={len(problem.sets)})",
        game, {"initial": initial}, expected=(claim,), labels=tuple(roster.labels),
    )


def _set_agents(roster: Roster, problem: X3CInstance, *roles):
    """Per candidate set: one agent per role, then one per member.

    Returns one ``{set index: id}`` dict per role and the
    ``{(set index, element): id}`` dict of members.
    """
    heads = [{} for _ in roles]
    member = {}
    for si, s in enumerate(problem.sets):
        for head, role in zip(heads, roles):
            head[si] = roster.add(f"set{si + 1}{role}")
        for r in s:
            member[(si, r)] = roster.add(f"set{si + 1}.e{r}")
    return (*heads, member)


def _slot_agents(roster: Roster, problem: X3CInstance, copies: dict) -> dict:
    """``copies[r]`` parking agents per element ``r``, keyed ``(r, copy)``."""
    return {(r, v): roster.add(f"elem{r}.slot{v}")
            for r in problem.ground for v in range(1, copies[r] + 1)}


def _add_ring(roster: Roster, prefix: str) -> int:
    """The 15 agents ``{prefix}.a1 .. {prefix}.c5`` of one ring; returns the first."""
    return [roster.add(f"{prefix}.{role}{t}") for t in range(1, 6) for role in "abc"][0]


def _embed_ring(weights, base) -> None:
    ring = triangle_ring_weights(far=0)
    for i in range(15):
        row = weights[base + i]
        for j in range(15):
            row[base + j] = ring[i][j]


def _ring_agent(base, role, t):
    return base + 3 * (t - 1) + "abc".index(role)


def _ring_assembly_hops(base):
    """Fold one fresh 15-agent ring into its two 6-blocks and the 1-pair."""
    a = lambda t: _ring_agent(base, "a", t)
    b = lambda t: _ring_agent(base, "b", t)
    c = lambda t: _ring_agent(base, "c", t)
    hops = [(a(3), b(3)), (c(3), a(3)), (a(2), a(3)), (b(2), a(3)), (c(2), a(3))]
    hops += [(a(5), b(5)), (c(5), a(5)), (a(4), a(5)), (b(4), a(5)), (c(4), a(5))]
    hops += [(b(1), c(1))]
    return hops


def _ring_rotation_hops(base):
    """The 15-move loop that rotates the 1+2+2 triangle split one notch."""
    hops = []
    for source, target in ((5, 1), (3, 4), (1, 2), (4, 5), (2, 3)):
        anchor = _ring_agent(base, "a", target)
        for role in "abc":
            hops.append((_ring_agent(base, role, source), anchor))
    return hops


def _reduce_x3c_symfhg_exists(problem: X3CInstance, params) -> NamedInstance:
    kind = "x3c-to-symfhg-exists"
    _no_params(kind, params)
    counts = _require_coverage(problem, kind)
    copies = {r: counts[r] - 1 for r in problem.ground}
    n = 4 * len(problem.sets) + 15 * sum(copies.values())
    _cap_fhg(n, kind)

    roster = Roster()
    hub, member = _set_agents(roster, problem, ".hub")
    ring_base = {(r, v): _add_ring(roster, f"elem{r}.c{v}")
                 for r in problem.ground for v in range(1, copies[r] + 1)}

    weights = [[0] * n for _ in range(n)]
    for base in ring_base.values():
        _embed_ring(weights, base)
    for si, s in enumerate(problem.sets):
        group = [hub[si]] + [member[(si, r)] for r in s]
        for x, y in itertools.combinations(group, 2):
            weights[x][y] = weights[y][x] = 304
    for (si, r), mid in member.items():
        for v in range(1, copies[r] + 1):
            gate = ring_base[(r, v)]  # the a1 agent of that copy
            weights[mid][gate] = weights[gate][mid] = 304

    instance = _x3c_instance(
        kind, problem, FractionalGame(weights), Partition.singletons(n),
        Claim("fhg-traits", params={"symmetric": True, "nonnegative": True}), roster,
    )
    cover = _cover_for_scripts(problem)
    if cover is not None:
        hops = []
        for key in sorted(ring_base):
            hops.extend(_ring_assembly_hops(ring_base[key]))
        taken = {r: 0 for r in problem.ground}
        in_cover = set(cover)
        for si, s in enumerate(problem.sets):
            if si in in_cover:
                continue
            for r in s:
                taken[r] += 1
                hops.append((member[(si, r)], ring_base[(r, taken[r])]))
        for si in sorted(in_cover):
            ids = [member[(si, r)] for r in problem.sets[si]]
            hops += [(ids[1], ids[0]), (ids[2], ids[0]), (hub[si], ids[0])]
        instance.reach(
            "settle", "initial", "settled", hops,
            note="rings fold up, spare members pair off with copies, cover sets clump",
        )
        if n <= _STABLE_CLAIM_CAP:
            instance.expected += (Claim("stable", "settled"),)
    return instance


def _reduce_x3c_symfhg_converge(problem: X3CInstance, params) -> NamedInstance:
    kind = "x3c-to-symfhg-converge"
    surplus = len(problem.sets) - len(problem.ground) // 3
    if surplus < 1:
        raise FormulaClassViolation(
            f"{kind}: needs more candidate sets than an exact cover uses "
            f"(surplus is {surplus})"
        )
    default_alpha = Fraction(152) * (
        Fraction(surplus + 1, surplus) + Fraction(surplus + 2, surplus + 1)
    ) / 2
    (alpha,) = _scales(kind, params, {"link-weight": default_alpha})
    _need(alpha > 0, "link-weight must be positive")
    _need(Fraction(surplus, surplus + 1) * alpha < 152,
          f"link-weight {alpha} too large: a {surplus}-tail hold must stay "
          "below the triangle pull 152")
    _need(152 < Fraction(surplus + 1, surplus + 2) * alpha,
          f"link-weight {alpha} too small: a {surplus + 1}-tail hold must stay "
          "above the triangle pull 152")

    n = len(problem.ground) + 5 * len(problem.sets) + 15
    _cap_fhg(n, kind)

    roster = Roster()
    elem = {r: roster.add(f"elem{r}") for r in problem.ground}
    core, tail, member = _set_agents(roster, problem, ".core", ".tail")
    ring = _add_ring(roster, "ring")

    weights = [[0] * n for _ in range(n)]
    _embed_ring(weights, ring)
    a1 = _ring_agent(ring, "a", 1)
    for si, s in enumerate(problem.sets):
        weights[a1][tail[si]] = weights[tail[si]][a1] = alpha
        weights[core[si]][tail[si]] = weights[tail[si]][core[si]] = alpha
        for r in s:
            mid = member[(si, r)]
            weights[core[si]][mid] = weights[mid][core[si]] = alpha
            weights[mid][elem[r]] = weights[elem[r]][mid] = 2 * alpha

    blocks = [[elem[r]] for r in problem.ground]
    blocks += [[core[si]] + [member[(si, r)] for r in problem.sets[si]]
               for si in range(len(problem.sets))]
    blocks.append([a1] + [tail[si] for si in range(len(problem.sets))])
    blocks.append([_ring_agent(ring, "b", 1), _ring_agent(ring, "c", 1)])
    blocks.append([_ring_agent(ring, role, t) for t in (2, 3) for role in "abc"])
    blocks.append([_ring_agent(ring, role, t) for t in (4, 5) for role in "abc"])
    instance = _x3c_instance(
        kind, problem, FractionalGame(weights), Partition(blocks),
        Claim("fhg-traits", params={"symmetric": True, "nonnegative": True}), roster,
    )
    cover = _cover_for_scripts(problem)
    if cover is not None:
        hops = []
        for si in sorted(cover):
            for r in problem.sets[si]:
                hops.append((member[(si, r)], elem[r]))
        for si in sorted(cover):
            hops.append((tail[si], core[si]))
        hops.append((a1, _ring_agent(ring, "b", 1)))
        instance.reach(
            "stages", "initial", "staged", hops,
            note="cover sets release their members, their tails follow, the ring closes",
        )
        _loop(instance, "ring-loop", instance.starts["staged"], _ring_rotation_hops(ring),
              note="the freed ring rotates forever")
    return instance


def _reduce_x3c_asymfhg_exists(problem: X3CInstance, params) -> NamedInstance:
    kind = "x3c-to-asymfhg-exists"
    _no_params(kind, params)
    counts = _require_coverage(problem, kind)
    copies = {r: counts[r] - 1 for r in problem.ground}
    surplus = len(problem.sets) - len(problem.ground) // 3
    n = sum(copies.values()) + 4 * len(problem.sets) + 3 * surplus
    _cap_fhg(n, kind)

    roster = Roster()
    slot = _slot_agents(roster, problem, copies)
    setag, member = _set_agents(roster, problem, "")
    tri = {(v, t): roster.add(f"tri{v}.{t}")
           for v in range(1, surplus + 1) for t in (1, 2, 3)}

    arcs = {}
    for si, s in enumerate(problem.sets):
        for r in s:
            arcs[(setag[si], member[(si, r)])] = 1
            for v in range(1, copies[r] + 1):
                arcs[(member[(si, r)], slot[(r, v)])] = 1
        for v in range(1, surplus + 1):
            arcs[(setag[si], tri[(v, 1)])] = 1
    for v in range(1, surplus + 1):
        arcs[(tri[(v, 1)], tri[(v, 2)])] = 1
        arcs[(tri[(v, 2)], tri[(v, 3)])] = 1
        arcs[(tri[(v, 3)], tri[(v, 1)])] = 1

    blocks = [[setag[si]] + [member[(si, r)] for r in problem.sets[si]]
              for si in range(len(problem.sets))]
    blocks += [[a] for a in slot.values()]
    blocks += [[a] for a in tri.values()]
    instance = _x3c_instance(
        kind, problem, FractionalGame.from_arcs(n, arcs), Partition(blocks),
        Claim("fhg-traits", params={
            "simple": True, "simple_asymmetric": True, "nonnegative": True,
            "acyclic": surplus == 0,
        }),
        roster,
    )
    cover = _cover_for_scripts(problem)
    if cover is not None:
        hops = []
        taken = {r: 0 for r in problem.ground}
        in_cover = set(cover)
        spare_sets = [si for si in range(len(problem.sets)) if si not in in_cover]
        for si in spare_sets:
            for r in problem.sets[si]:
                taken[r] += 1
                hops.append((member[(si, r)], slot[(r, taken[r])]))
        for v, si in enumerate(spare_sets, start=1):
            hops.append((setag[si], tri[(v, 1)]))
        for v in range(1, surplus + 1):
            hops.append((tri[(v, 2)], tri[(v, 3)]))
        instance.reach(
            "settle", "initial", "settled", hops,
            note="spare members park on copies, spare sets feed the triangles",
        )
        if n <= _STABLE_CLAIM_CAP:
            instance.expected += (Claim("stable", "settled"),)
    return instance


def _reduce_x3c_asymfhg_converge(problem: X3CInstance, params) -> NamedInstance:
    kind = "x3c-to-asymfhg-converge"
    _no_params(kind, params)
    counts = _require_coverage(problem, kind) if problem.ground else {}
    copies = {r: counts[r] - 1 for r in problem.ground}
    feeds = len(problem.ground) // 3
    n = sum(copies.values()) + 5 * len(problem.sets) + 3 + feeds
    _cap_fhg(n, kind)

    roster = Roster()
    slot = _slot_agents(roster, problem, copies)
    core, tail, member = _set_agents(roster, problem, ".core", ".tail")
    hub1, hub2, hub3 = (roster.add(f"hub{h}") for h in (1, 2, 3))
    feed = {v: roster.add(f"feed{v}") for v in range(1, feeds + 1)}

    arcs = {(hub1, hub2): 1, (hub2, hub3): 1, (hub3, hub1): 1}
    for si, s in enumerate(problem.sets):
        arcs[(tail[si], core[si])] = 1
        arcs[(hub1, tail[si])] = 1
        for r in s:
            arcs[(core[si], member[(si, r)])] = 1
            for v in range(1, copies[r] + 1):
                arcs[(member[(si, r)], slot[(r, v)])] = 1
    for v in range(1, feeds + 1):
        arcs[(feed[v], hub1)] = 1

    blocks = [[a] for a in slot.values()]
    blocks += [[core[si]] + [member[(si, r)] for r in problem.sets[si]]
               for si in range(len(problem.sets))]
    blocks.append([hub1] + [tail[si] for si in range(len(problem.sets))]
                  + [feed[v] for v in range(1, feeds + 1)])
    blocks += [[hub2], [hub3]]
    instance = _x3c_instance(
        kind, problem, FractionalGame.from_arcs(n, arcs), Partition(blocks),
        Claim("fhg-traits", params={
            "simple": True, "simple_asymmetric": True, "nonnegative": True,
            "acyclic": False,
        }),
        roster,
    )
    cover = _cover_for_scripts(problem)
    if cover is not None:
        hops = []
        taken = {r: 0 for r in problem.ground}
        in_cover = set(cover)
        for si in range(len(problem.sets)):
            if si in in_cover:
                continue
            for r in problem.sets[si]:
                taken[r] += 1
                hops.append((member[(si, r)], slot[(r, taken[r])]))
            hops.append((tail[si], core[si]))
        hops.append((hub1, hub2))
        instance.reach(
            "stages", "initial", "staged", hops,
            note="spare sets empty out and their tails leave; the hub breaks free",
        )
        _loop(instance, "spin", instance.starts["staged"],
              [(hub2, hub3), (hub3, hub1), (hub1, hub2)],
              note="the freed hub triangle spins forever")
    return instance


def _reduce_x3c_simplefhg_exists(problem: X3CInstance, params) -> NamedInstance:
    kind = "x3c-to-simplefhg-exists"
    _no_params(kind, params)
    surplus = len(problem.sets) - len(problem.ground) // 3
    if surplus < 0:
        raise FormulaClassViolation(
            f"{kind}: {len(problem.sets)} sets cannot cover "
            f"{len(problem.ground)} elements"
        )
    n = 3 * len(problem.ground) + 6 * len(problem.sets) + 3 * surplus
    _cap_fhg(n, kind)

    roster = Roster()
    elem = {(r, t): roster.add(f"elem{r}.{t}") for r in problem.ground for t in (1, 2, 3)}
    outer = {}
    inner = {}
    for si, s in enumerate(problem.sets):
        for r in s:
            outer[(si, r)] = roster.add(f"set{si + 1}.e{r}a")
            inner[(si, r)] = roster.add(f"set{si + 1}.e{r}b")
    team = {(w, t): roster.add(f"team{w}.{t}")
            for w in range(1, surplus + 1) for t in (1, 2, 3)}

    arcs = {}
    for r in problem.ground:
        arcs[(elem[(r, 1)], elem[(r, 2)])] = 1
        arcs[(elem[(r, 2)], elem[(r, 3)])] = 1
        arcs[(elem[(r, 3)], elem[(r, 1)])] = 1
    for si, s in enumerate(problem.sets):
        for r in s:
            arcs[(elem[(r, 1)], outer[(si, r)])] = 1
            arcs[(outer[(si, r)], elem[(r, 1)])] = 1
            arcs[(outer[(si, r)], inner[(si, r)])] = 1
            arcs[(inner[(si, r)], outer[(si, r)])] = 1
        for x, y in itertools.combinations(s, 2):
            arcs[(outer[(si, x)], outer[(si, y)])] = 1
            arcs[(outer[(si, y)], outer[(si, x)])] = 1
    for w in range(1, surplus + 1):
        arcs[(team[(w, 1)], team[(w, 2)])] = 1
        arcs[(team[(w, 2)], team[(w, 3)])] = 1
        arcs[(team[(w, 3)], team[(w, 1)])] = 1
        for si, s in enumerate(problem.sets):
            for r in s:
                arcs[(team[(w, 1)], outer[(si, r)])] = 1

    instance = _x3c_instance(
        kind, problem, FractionalGame.from_arcs(n, arcs), Partition.singletons(n),
        Claim("fhg-traits", params={
            "simple": True, "simple_asymmetric": False, "nonnegative": True,
        }),
        roster,
    )
    cover = _cover_for_scripts(problem)
    if cover is not None:
        owner = {}
        for si in cover:
            for r in problem.sets[si]:
                owner[r] = si
        hops = []
        for r in problem.ground:
            hops.append((elem[(r, 2)], elem[(r, 3)]))
        for r in problem.ground:
            hops.append((outer[(owner[r], r)], elem[(r, 1)]))
        spare_sets = [si for si in range(len(problem.sets)) if si not in set(cover)]
        for w, si in enumerate(spare_sets, start=1):
            first, second, third = problem.sets[si]
            hops.append((team[(w, 1)], outer[(si, first)]))
            hops.append((outer[(si, second)], team[(w, 1)]))
            hops.append((outer[(si, third)], team[(w, 1)]))
        for w in range(1, surplus + 1):
            hops.append((team[(w, 2)], team[(w, 3)]))
        instance.reach(
            "settle", "initial", "settled", hops,
            note="cover members dock on their elements, spare sets form team blocks",
        )
        if n <= _STABLE_CLAIM_CAP:
            instance.expected += (Claim("stable", "settled"),)
    return instance


# ---------------------------------------------------------------------------
# approval encodings (dichotomous games)
# ---------------------------------------------------------------------------


def _occurrence_agents(roster: Roster, slots) -> dict:
    """One agent per clause slot, keyed by its (variable, polarity, occurrence)."""
    return {(i, polarity, t): roster.add(f"lit{'+' if polarity else '-'}{i}.{t}")
            for clause in slots for (i, polarity, t) in clause}


def _reduce_sat_dhg_exists(formula: SatFormula, params) -> NamedInstance:
    kind = "sat-to-dhg-exists"
    _no_params(kind, params)
    _require_compatible_occurrence_class(formula)
    m, p = formula.m, formula.num_vars
    slots = formula.clause_slots()

    roster = Roster()
    gate, gate2, gate3 = {}, {}, {}
    for j in range(1, m + 1):
        gate[j] = roster.add(f"cl{j}")
        gate2[j] = roster.add(f"cl{j}.b")
        gate3[j] = roster.add(f"cl{j}.c")
    anchor, anchor2, anchor3 = {}, {}, {}
    for i in range(1, p + 1):
        anchor[i] = roster.add(f"var{i}")
        anchor2[i] = roster.add(f"var{i}.b")
        anchor3[i] = roster.add(f"var{i}.c")
    lit = _occurrence_agents(roster, slots)
    n = len(roster.labels)

    pos, neg = formula.occurrence_table()
    side = {}
    for i in range(1, p + 1):
        side[(i, True)] = [lit[(i, True, t)] for t in range(1, len(pos[i]) + 1)]
        side[(i, False)] = [lit[(i, False, t)] for t in range(1, len(neg[i]) + 1)]

    approvals = [[] for _ in range(n)]
    for j, clause in enumerate(slots, start=1):
        for key in clause:
            approvals[gate[j]].append([gate[j], lit[key]])
        approvals[gate[j]].append([gate[j], gate2[j]])
        approvals[gate2[j]].append([gate2[j], gate3[j]])
        approvals[gate3[j]].append([gate[j], gate3[j]])
    for i in range(1, p + 1):
        approvals[anchor[i]].append([anchor[i]] + side[(i, True)])
        approvals[anchor[i]].append([anchor[i]] + side[(i, False)])
        approvals[anchor[i]].append([anchor[i], anchor2[i]])
        approvals[anchor2[i]].append([anchor2[i], anchor3[i]])
        approvals[anchor3[i]].append([anchor[i], anchor3[i]])
    for (i, polarity, t), agent in lit.items():
        mates = side[(i, polarity)]
        approvals[agent].append(list(mates))
        approvals[agent].append(mates + [anchor[i]])
        cl = (pos if polarity else neg)[i][t - 1]
        approvals[agent].append([agent, gate[cl]])

    instance = NamedInstance(
        f"{kind}(m={m},p={p})", DichotomousGame(n, approvals),
        {"initial": Partition.singletons(n)},
        expected=(Claim("dhg-symmetric", holds=False),), labels=tuple(roster.labels),
    )
    assignment = brute_force_sat(formula)
    if assignment is not None:
        hops = []
        used = set()
        for j, clause in enumerate(slots, start=1):
            choice = next(key for key in clause if assignment[key[0]] == key[1])
            agent = lit[choice]
            used.add(agent)
            if len(side[(choice[0], choice[1])]) == 1:
                hops.append((gate[j], agent))  # a lone occurrence never moves
            else:
                hops.append((agent, gate[j]))
        for i in range(1, p + 1):
            false_side = side[(i, not assignment[i])]
            true_side = side[(i, assignment[i])]
            if len(false_side) == 2:
                hops.append((false_side[0], false_side[1]))
            if false_side and true_side:
                # with an empty side the anchor is already content alone
                hops.append((anchor[i], false_side[0]))
            free = [a for a in true_side if a not in used]
            if len(free) == 2:
                hops.append((free[0], free[1]))
        for j in range(1, m + 1):
            hops.append((gate2[j], gate3[j]))
        for i in range(1, p + 1):
            hops.append((anchor2[i], anchor3[i]))
        instance.reach(
            "settle", "initial", "settled", hops,
            note="clauses adopt a chosen occurrence; variables lock their false side",
        )
        instance.expected += (Claim("stable", "settled"),)
    return instance


def _subsets_with(universe, required, keep=None):
    """All coalitions (as lists) that contain ``required`` inside ``universe``."""
    rest = [a for a in universe if a not in required]
    base = list(required)
    out = []
    for count in range(len(rest) + 1):
        for extra in itertools.combinations(rest, count):
            coal = base + list(extra)
            if keep is None or keep(coal):
                out.append(coal)
    return out


def _reduce_sat_dhg_converge(formula: SatFormula, params) -> NamedInstance:
    kind = "sat-to-dhg-converge"
    _no_params(kind, params)
    _require_multi_clause(formula)
    m, p = formula.m, formula.num_vars
    slots = formula.clause_slots()

    total_slots = sum(len(c) for c in slots)
    n = 2 * m + total_slots
    if n > _DHG_EXTENSIONAL_CAP:
        raise ReductionTooLarge(
            f"{kind} stores approval families extensionally; {n} agents exceed "
            f"the cap of {_DHG_EXTENSIONAL_CAP}"
        )

    roster = Roster()
    gate = {}
    latch = {}
    for j in range(1, m + 1):
        gate[j] = roster.add(f"cl{j}.gate")
        latch[j] = roster.add(f"cl{j}.latch")
    lit = _occurrence_agents(roster, slots)
    everyone = list(range(n))

    var_agents = {i: [] for i in range(1, p + 1)}
    opposite = {}
    for (i, polarity, t), agent in lit.items():
        var_agents[i].append(agent)
    for (i, polarity, t), agent in lit.items():
        opposite[agent] = [lit[key] for key in lit
                           if key[0] == i and key[1] is not polarity]

    clause_lits = {j: [lit[key] for key in clause]
                   for j, clause in enumerate(slots, start=1)}
    pos, neg = formula.occurrence_table()

    approvals = [[] for _ in range(n)]
    for (i, polarity, t), agent in lit.items():
        cl = (pos if polarity else neg)[i][t - 1]
        approvals[agent] += _subsets_with(everyone, [agent, latch[cl]])
        opp = opposite[agent]
        others = [a for a in var_agents[i] if a != agent]
        for count in range(len(others) + 1):
            for extra in itertools.combinations(others, count):
                coal = [agent] + list(extra)
                if opp and not set(opp) <= set(coal):
                    approvals[agent].append(coal)
    for j in range(1, m + 1):
        succ = j % m + 1
        hooks = set(clause_lits[succ])
        approvals[gate[j]] += _subsets_with(
            everyone, [gate[j], latch[succ]],
            keep=lambda coal, hooks=hooks: bool(hooks.intersection(coal)),
        )
        approvals[latch[j]] += _subsets_with(everyone, [latch[j], gate[j]])

    blocks = [[gate[j], latch[j]] for j in range(1, m + 1)]
    blocks += [var_agents[i] for i in range(1, p + 1) if var_agents[i]]
    instance = NamedInstance(
        f"{kind}(m={m},p={p})", DichotomousGame(n, approvals),
        {"initial": Partition(blocks)},
        expected=(Claim("dhg-symmetric", holds=False),) if n <= 12 else (),
        labels=tuple(roster.labels),
    )
    assignment = brute_force_sat(formula)
    if assignment is not None:
        chosen = {}
        for j, clause in enumerate(slots, start=1):
            key = next(k for k in clause if assignment[k[0]] == k[1])
            chosen[j] = lit[key]
        instance.reach(
            "reach", "initial", "cycle-base",
            [(chosen[j], gate[j]) for j in range(1, m + 1)],
            note="one true occurrence per clause docks on its gate pair",
        )
        loop_hops = [(gate[j], latch[j % m + 1]) for j in range(1, m + 1)]
        loop_hops += [(latch[j], gate[j]) for j in range(1, m + 1)]
        loop_hops += [(chosen[j], latch[j]) for j in range(1, m + 1)]
        _loop(instance, "loop", instance.starts["cycle-base"], loop_hops,
              note="gates, latches and occurrences rotate in rounds")
    return instance


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


_REDUCERS = {
    "sat-to-ahg-exists": (_reduce_sat_ahg_exists, SatFormula),
    "sat-to-ahg-converge": (_reduce_sat_ahg_converge, SatFormula),
    "sat-to-hdg-exists": (_reduce_sat_hdg_exists, SatFormula),
    "sat-to-hdg-converge": (_reduce_sat_hdg_converge, SatFormula),
    "x3c-to-symfhg-exists": (_reduce_x3c_symfhg_exists, X3CInstance),
    "x3c-to-symfhg-converge": (_reduce_x3c_symfhg_converge, X3CInstance),
    "x3c-to-asymfhg-exists": (_reduce_x3c_asymfhg_exists, X3CInstance),
    "x3c-to-asymfhg-converge": (_reduce_x3c_asymfhg_converge, X3CInstance),
    "x3c-to-simplefhg-exists": (_reduce_x3c_simplefhg_exists, X3CInstance),
    "sat-to-dhg-exists": (_reduce_sat_dhg_exists, SatFormula),
    "sat-to-dhg-converge": (_reduce_sat_dhg_converge, SatFormula),
}

REDUCTION_KINDS = tuple(_REDUCERS)


def reduce(kind: str, problem, params: dict | None = None) -> NamedInstance:
    """Build the bundled instance for ``kind`` from a formula or cover input."""
    try:
        builder, expected = _REDUCERS[kind]
    except KeyError:
        raise UnknownReductionKind(
            f"unknown reduction {kind!r}; known kinds: {', '.join(REDUCTION_KINDS)}"
        ) from None
    if not isinstance(problem, expected):
        raise TypeError(f"{kind} expects a {expected.__name__}, got {type(problem).__name__}")
    return builder(problem, params)


# ---------------------------------------------------------------------------
# standalone fixtures
# ---------------------------------------------------------------------------


def variable_gadget_cycle() -> NamedInstance:
    """The two-probe cycle through a single variable gadget, in isolation.

    22 agents: probes ``z`` (0) and ``zb`` (1) plus three host blocks of 4, 7
    and 9 dummies whose favourite sizes differ by one arrival.  Neither probe
    ever rests: each one's departure re-opens the block the other just left.
    """
    F = _listed
    dom = SizeDomain(22)
    z = F(dom, 6, 8, 11, 10, 5)
    zb = F(dom, 11, 8, 6, 5, 10)
    host1 = F(dom, 6, 5, 4)
    host2 = F(dom, 8, 7)
    host3 = F(dom, 11, 10, 9)
    orders = [z, zb] + [host1] * 4 + [host2] * 7 + [host3] * 9
    game = AnonymousGame(orders)
    block1 = list(range(2, 6))
    block2 = list(range(6, 13))
    block3 = list(range(13, 22))
    start = Partition([block1, [1] + block2, [0] + block3])
    instance = NamedInstance(
        "variable-gadget-cycle",
        game,
        {"initial": start},
        labels=("z", "zb")
        + tuple(f"host1.{i}" for i in range(1, 5))
        + tuple(f"host2.{i}" for i in range(1, 8))
        + tuple(f"host3.{i}" for i in range(1, 10)),
    )
    _loop(instance, "loop", start, [(1, 13), (0, 6), (1, 2), (0, 2), (1, 6), (0, 13)],
          note="each probe's arrival makes the other block more attractive")
    instance.expected += (Claim("starts-at", "loop", params={"state": "initial"}),)
    return instance


def toy_formula_catalog() -> tuple[tuple[str, SatFormula], ...]:
    """Small formulas (3 variables or fewer) for oracle round-trip checks.

    All of them fit the occurrence class of the dichotomous "exists" encoding;
    the last one is unsatisfiable (any two-literal spread over one variable
    forces the other two variables both ways).
    """
    return (
        ("one-clause-distinct", SatFormula(((1, 2, 3),))),
        ("one-clause-repeat", SatFormula(((1, 1, 2),))),
        ("two-clause-chain", SatFormula(((1, 1, 2), (-1, -1, 2)))),
        ("two-clause-opposed", SatFormula(((1, 1, 2), (-1, -1, -2)))),
        ("three-clause-mixed", SatFormula(((1, 2, 3), (-1, 2, -3), (1, -2, -3)))),
        ("four-clause-unsat", SatFormula(((1, 2, 2), (1, -2, -2),
                                          (-1, 3, 3), (-1, -3, -3)))),
    )
