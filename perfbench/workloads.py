"""Seeded inputs, operations and exact-answer checks for the clgames benchmark.

Every workload is built by ``build(name, cg, seed, workdir)``: it generates
its inputs from the seed, writes the pair and structure files into
``workdir`` and returns the list of operations plus the checker for their
answers.  ``cg`` is the namespace returned by ``import_clgames()``; nothing
here imports clgames at module level, so the set-up timing can include the
import.

Game values are checked against closed forms, against each other across
independent solvers, or against the golden file that ``record_golden.py``
records from the oracles in ``tests/helpers.py``; formula values against
the reference evaluator below.  Only the theta and modulus reports, which
have no independent oracle, are compared with values recorded from the
package itself.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 0
WORKLOADS = ("small-pairs", "witness-families", "formulas-structures")

CLGAMES_MODULES = (
    "cli", "structures", "moduli", "formulas", "game", "infinitary", "witnesses", "rationals",
)

# Distances in [1/2, 1] satisfy the triangle inequality whatever is drawn,
# and the predicate modulus min(2t, 1) then allows any gap in [0, 1]; so
# every random structure is valid by construction.
DIST_GRID = tuple(Fraction(n, 8) for n in range(4, 9))
VALUE_GRID = tuple(Fraction(n, 4) for n in range(5))

# Side sizes and structure sizes are fixed lists, so the work in one pass
# depends on the seed only through the values drawn, not through the sizes.
PAIR_SIZES = tuple(product((3, 4, 5), repeat=2))
SMALL_PAIR_ROUNDS = 3
OMEGA_MAX_PAIRS = 12
VALIDATE_SIZES = tuple(range(12, 19))
FORMULA_STRUCTURE_SIZES = (8, 9, 10)
# The sentences are one fixed sample, the same for every seed; the seed
# draws the structures they are evaluated on.  Evaluation cost depends on
# a sentence's shape, not on the values, so operation latencies then
# compare across seeds.
FORMULA_QR = 3
FORMULA_COUNT = 40
FORMULA_SEED = 0
DISTANCE_WITNESS_MS = tuple(range(6, 17))
NESTED_LEVEL_MS = (4, 5, 6)
CARDINALITY_EPSILONS = (Fraction(1, 4), Fraction(1, 8))
CARDINALITY_ROUNDS = tuple(range(1, 6))


class OpFailed(RuntimeError):
    """An operation exited non-zero or raised."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    answer: Callable[[object], object] = lambda raw: raw


@dataclass
class Workload:
    name: str
    ops: list
    check: Callable[[dict], list]
    files: list = field(default_factory=list)
    cert_paths: list = field(default_factory=list)


def import_clgames() -> SimpleNamespace:
    """Import clgames afresh (dropping any earlier import) and return its modules."""
    for name in [m for m in sys.modules if m == "clgames" or m.startswith("clgames.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"clgames.{name}") for name in CLGAMES_MODULES}
    )


def build(name: str, cg, seed: int, workdir: Path) -> Workload:
    builders = {
        "small-pairs": _small_pairs,
        "witness-families": _witness_families,
        "formulas-structures": _formulas_structures,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    return builders[name](cg, seed, workdir)


def load_golden(workload: str) -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text()).get(workload, {})


# --- operations ------------------------------------------------------------------


def cli_op(cg, name: str, argv: list) -> Op:
    """One in-process ``clgames --json ...`` command with its output captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cg.cli.main(["--json", *argv])
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return Op(name, run, lambda raw: json.loads(raw))


def _rational(payload) -> Fraction:
    num, den = payload["value"]
    return Fraction(num, den)


# --- seeded inputs -----------------------------------------------------------------


def _signature(cg):
    s = cg.structures
    mod = cg.moduli.capped_linear(2)
    return s.Signature(predicates=(s.PredicateSymbol("P", 1, mod), s.PredicateSymbol("R", 2, mod)))


def random_structure(cg, rng: random.Random, sig, n: int):
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.choice(DIST_GRID)
    tables = {
        p.name: {args: rng.choice(VALUE_GRID) for args in product(range(n), repeat=p.arity)}
        for p in sig.predicates
    }
    return cg.structures.MetricStructure(
        signature=sig,
        points=tuple(f"p{i}" for i in range(n)),
        dist=tuple(tuple(row) for row in dist),
        predicate_tables=tables,
    )


def shuffled(cg, structure, rng: random.Random):
    """The same relational structure with its points stored in a seeded
    order; every point keeps its label, so labels in ``--start`` still name it."""
    n = structure.size
    order = list(range(n))
    rng.shuffle(order)  # new index i holds old point order[i]
    return cg.structures.MetricStructure(
        signature=structure.signature,
        points=tuple(structure.points[o] for o in order),
        dist=tuple(tuple(structure.dist[a][b] for b in order) for a in order),
        predicate_tables={
            name: {args: table[tuple(order[a] for a in args)] for args in table}
            for name, table in structure.predicate_tables.items()
        },
    )


# --- small-pairs ----------------------------------------------------------------------


def _small_pairs(cg, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    sig = _signature(cg)
    ops, files, certs = [], [], []
    rounds = str(SMALL_PAIR_ROUNDS)
    labels = []
    for i, (nl, nr) in enumerate(PAIR_SIZES):
        pair = cg.structures.NamedPair(
            random_structure(cg, rng, sig, nl), random_structure(cg, rng, sig, nr)
        )
        path = workdir / f"pair{i}.json"
        cert = workdir / f"pair{i}.strategy.json"
        cg.structures.save_pair(pair, path)
        files.append(path)
        certs.append(cert)
        label = f"{i}:{nl}x{nr}"
        labels.append((label, cert))
        p = str(path)
        ops += [
            cli_op(cg, f"game:{label}", ["game", "--pair", p, "--rounds", rounds, "--strategy", str(cert)]),
            cli_op(cg, f"ralpha:{label}", ["ralpha", "--pair", p, "--alpha", rounds]),
            cli_op(cg, f"dynamic:{label}", ["ralpha", "--pair", p, "--alpha", rounds, "--dynamic"]),
        ]
        if nl * nr <= OMEGA_MAX_PAIRS:
            ops.append(cli_op(cg, f"omega:{label}", ["ralpha", "--pair", p, "--alpha", "omega"]))
    golden = load_golden("small-pairs") if seed == DEFAULT_SEED else {}

    def check(answers: dict) -> list:
        bad = []
        for label, cert in labels:
            if f"game:{label}" not in answers:
                continue  # the operation failed; it is counted, not checked
            game = _rational(answers[f"game:{label}"])
            stored = Fraction(*json.loads(cert.read_text())["value"])
            if stored != game:
                bad.append(f"certificate {cert.name} records {stored}, game = {game}")
            for kind in ("ralpha", "dynamic", "omega"):
                if f"{kind}:{label}" not in answers:
                    continue
                other = _rational(answers[f"{kind}:{label}"])
                # the infinite game contains every finite one
                if other < game if kind == "omega" else other != game:
                    bad.append(f"{kind}:{label} = {other}, {rounds}-round game value = {game}")
        bad.extend(_against_golden(answers, golden, lambda payload: payload["value"]))
        return bad

    return Workload("small-pairs", ops, check, files, certs)


# --- witness-families -----------------------------------------------------------------


def _witness_families(cg, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    w, s = cg.witnesses, cg.structures
    ops, files = [], []
    expected = {}

    def add_pair(stem, pair):
        pair = s.NamedPair(shuffled(cg, pair.left, rng), shuffled(cg, pair.right, rng))
        path = workdir / f"{stem}.json"
        s.save_pair(pair, path)
        files.append(path)
        return str(path)

    # documented closed forms: the 2-round distance-witness value is 1/(m+1);
    # the level-preserving bijection of the nested-levels pair is off only
    # at the deepest level, by 1/m, and the spoiler forces that gap in one
    # round, so every round count gives 1/m; the cardinality pair from the
    # primed start p1/p1 has value eps/2
    for m in DISTANCE_WITNESS_MS:
        path = add_pair(f"distance_m{m}", w.distance_witness_pair(Fraction(1, 2), m))
        name = f"distance:m={m}:r=2"
        ops.append(cli_op(cg, name, ["game", "--pair", path, "--rounds", "2"]))
        expected[name] = Fraction(1, m + 1)
    for m in NESTED_LEVEL_MS:
        path = add_pair(f"nested_m{m}", cg.infinitary.build_nested_levels_pair(m, 2))
        for rounds in (1, 2):
            name = f"nested:m={m}:r={rounds}"
            ops.append(cli_op(cg, name, ["game", "--pair", path, "--rounds", str(rounds)]))
            expected[name] = Fraction(1, m)
    for eps in CARDINALITY_EPSILONS:
        path = add_pair(f"cardinality_{eps.denominator}", w.cardinality_witness_pair(eps))
        for rounds in CARDINALITY_ROUNDS:
            name = f"cardinality:eps={eps}:r={rounds}"
            argv = ["game", "--pair", path, "--rounds", str(rounds), "--start", "p1/p1"]
            ops.append(cli_op(cg, name, argv))
            expected[name] = eps / 2

    def check(answers: dict) -> list:
        return [
            f"{name} = {_rational(answers[name])}, expected {value}"
            for name, value in expected.items()
            if name in answers and _rational(answers[name]) != value
        ]

    return Workload("witness-families", ops, check, files)


# --- formulas-structures --------------------------------------------------------------


def _formulas_structures(cg, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    sig = _signature(cg)
    s, f = cg.structures, cg.formulas
    ops, files = [], []
    for n in VALIDATE_SIZES:
        path = workdir / f"validate_n{n}.json"
        s.save_structure(random_structure(cg, rng, sig, n), path)
        files.append(path)
        ops.append(cli_op(cg, f"validate:n={n}", ["validate", str(path)]))
    formulas = f.sample_formulas(sig, FORMULA_QR, FORMULA_COUNT, FORMULA_SEED)
    structures = {}
    for n in FORMULA_STRUCTURE_SIZES:
        structure = structures[n] = random_structure(cg, rng, sig, n)
        path = workdir / f"formulas_n{n}.json"
        s.save_structure(structure, path)
        files.append(path)
        ops.append(Op(f"load:n={n}", lambda path=path: s.load_structure(path)))
        # the check compares the loaded structure with this one, so the
        # formula operations can use either
        for k, phi in enumerate(formulas):
            tag = f"n={n}:phi={k}"
            ops += [
                Op(f"evaluate:{tag}", lambda phi=phi, st=structure: f.evaluate(phi, st)),
                Op(f"theta:{tag}", lambda phi=phi: f.theta_of(phi, sig), cg.moduli.modulus_to_json),
                Op(f"modulus:{tag}", lambda phi=phi: f.modulus_of(phi, sig), cg.moduli.modulus_to_json),
                Op(
                    f"roundtrip:{tag}",
                    lambda phi=phi: f.parse_formula(f.format_formula(phi), sig),
                    lambda parsed, phi=phi: parsed == phi,
                ),
            ]
    reference = {}  # filled on the first check, so set-up time excludes it
    golden = load_golden("formulas-structures") if seed == DEFAULT_SEED else {}
    first_seen = {}

    def check(answers: dict) -> list:
        if not reference:
            reference.update(
                (f"evaluate:n={n}:phi={k}", reference_value(phi, structures[n]))
                for n in FORMULA_STRUCTURE_SIZES
                for k, phi in enumerate(formulas)
            )
        bad = []
        for name, answer in answers.items():
            kind = name.split(":", 1)[0]
            if kind == "validate" and answer != {"notes": [], "ok": True, "violations": []}:
                bad.append(f"{name}: a valid-by-construction structure was reported {answer}")
            elif kind == "load" and answer != structures[int(name.split("=")[1])]:
                bad.append(f"{name}: loaded structure differs from the one written")
            elif kind == "evaluate" and answer != reference[name]:
                bad.append(f"{name} = {answer}, reference evaluator gives {reference[name]}")
            elif kind == "roundtrip" and answer is not True:
                bad.append(f"{name}: parse(format(phi)) != phi")
            elif kind in ("theta", "modulus"):
                # no independent oracle for these: golden on the default seed,
                # and the same answer on every pass
                if first_seen.setdefault(name, answer) != answer:
                    bad.append(f"{name} changed between passes")
        bad.extend(_against_golden(answers, golden, _json_value))
        return bad

    return Workload("formulas-structures", ops, check, files)


def _json_value(answer):
    if isinstance(answer, Fraction):
        return [answer.numerator, answer.denominator]
    return answer


def _against_golden(answers: dict, golden: dict, to_json) -> list:
    """Mismatches between answers (converted to their JSON form) and the
    golden entries recorded for them."""
    return [
        f"{name} = {to_json(answers[name])}, golden value {value}"
        for name, value in golden.items()
        if name in answers and to_json(answers[name]) != value
    ]


# --- reference evaluator --------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


def reference_value(phi, structure, env: tuple = ()) -> Fraction:
    """Value of a relational formula, written from the semantics of the
    connective basis and independent of ``clgames.formulas.evaluate``.

    ``env[i]`` is the point bound to variable ``x_i``.
    """
    kind = type(phi).__name__
    if kind == "Dist":
        return structure.dist[_point(phi.left, env)][_point(phi.right, env)]
    if kind == "Pred":
        return structure.predicate_tables[phi.name][tuple(_point(t, env) for t in phi.args)]
    if kind in ("Inf", "Sup"):
        values = []
        for p in range(structure.size):
            inner = list(env) + [None] * (phi.var + 1 - len(env))
            inner[phi.var] = p
            values.append(reference_value(phi.body, structure, tuple(inner)))
        return min(values) if kind == "Inf" else max(values)
    if kind != "Conn":
        raise TypeError(f"unexpected formula node {phi!r}")
    args = [reference_value(a, structure, env) for a in phi.args]
    conn = type(phi.conn).__name__
    if conn == "ConstVal":
        return phi.conn.value
    if conn == "Neg":
        return _ONE - args[0]
    if conn == "TruncSub":
        return max(_ZERO, args[0] - args[1])
    if conn == "TruncAdd":
        return min(_ONE, args[0] + args[1])
    if conn == "MinOf":
        return min(args)
    if conn == "MaxOf":
        return max(args)
    if conn == "Scale":
        return min(_ONE, phi.conn.factor * args[0])
    raise TypeError(f"unexpected connective {phi.conn!r}")


def _point(term, env: tuple) -> int:
    if type(term).__name__ != "Var":
        raise TypeError(f"only variables occur in relational sentences, got {term!r}")
    return env[term.index]
