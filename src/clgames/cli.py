"""Command-line front end.

Exit codes: 0 success, 1 domain violation (failed validation, lost check,
resource cap), 2 usage error.  ``--json`` switches every command to a
machine-readable report with exact rationals as [num, den] pairs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import infinitary, witnesses
from .formulas import (
    FormulaError,
    covering_sentence,
    evaluate,
    format_formula,
    modulus_of,
    parse_formula,
    qr,
    theta_of,
    logical_distance_corpus,
)
from .game import (
    Position,
    ResourceCapError,
    game_value,
    play_interactive,
    strategy_to_json,
)
from .moduli import modulus_to_json, weak_modulus_from_json
from .rationals import format_rat, rat, rat_to_json
from .structures import (
    StructureValidationError,
    load_pair,
    load_structure,
    save_pair,
    validate,
)

__all__ = ["main", "build_parser"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each subcommand sets ``run`` to
    its handler."""
    parser = argparse.ArgumentParser(
        prog="clgames",
        description=(
            "Exact workbench for [0,1]-valued first-order logic on finite metric "
            "structures and its approximate back-and-forth games."
        ),
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure file against all axioms")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("structure", type=Path)
    p.add_argument("--skip-validation", action="store_true", help="only parse, do not check")
    p.add_argument("--pseudometric", action="store_true", help="permit zero distances")

    p = sub.add_parser("eval", help="evaluate a formula on a structure")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--structure", type=Path, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--at", default=None, help="comma-separated points for x0, x1, ...")

    p = sub.add_parser("game", help="solve the finite-length game")
    p.set_defaults(run=_cmd_game)
    p.add_argument("--pair", type=Path, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--term-depth", type=int, default=0)
    p.add_argument("--epsilon", default=None, help="precision to compare against, e.g. 1/4")
    p.add_argument("--strategy", type=Path, default=None, help="write certificates as JSON")
    p.add_argument("--start", default=None, help="start position 'l0,l1/r0,r1' (labels)")
    p.add_argument("--max-positions", type=int, default=None)

    p = sub.add_parser("ralpha", help="rank recursion / dynamic-clock value")
    p.set_defaults(run=_cmd_ralpha)
    p.add_argument("--pair", type=Path, required=True)
    p.add_argument("--alpha", required=True, help="a natural number, or 'omega'")
    p.add_argument("--leaf", choices=["atomic", "omega"], default="atomic")
    p.add_argument("--omega", type=Path, default=None, help="weak modulus JSON (omega leaf)")
    p.add_argument("--term-depth", type=int, default=0)
    p.add_argument("--dynamic", action="store_true", help="the dynamic-clock game's value")
    p.add_argument("--max-positions", type=int, default=None)

    p = sub.add_parser("theta", help="report a formula's moduli")
    p.set_defaults(run=_cmd_theta)
    p.add_argument("--structure", type=Path, required=True, help="supplies the signature")
    p.add_argument("--formula", required=True)

    p = sub.add_parser("dist", help="logical distance over a corpus of structures")
    p.set_defaults(run=_cmd_dist)
    p.add_argument("--formula", action="append", required=True, help="give twice")
    p.add_argument("--corpus", type=Path, nargs="+", required=True)

    p = sub.add_parser("demo", help="reproduce a reference construction")
    p.set_defaults(run=_cmd_demo)
    p.add_argument("name", choices=["covering", "corollary54", "corollary55", "section6"])
    p.add_argument("--epsilon", default="1/4")
    p.add_argument("--delta", default="1/2")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--level-size", type=int, default=2)
    p.add_argument("--out", type=Path, default=None, help="directory for emitted files")

    p = sub.add_parser("play", help="play the game against the optimal solver")
    p.set_defaults(run=_cmd_play)
    p.add_argument("--pair", type=Path, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--human-side", choices=["I", "II"], default="I")
    p.add_argument("--term-depth", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cap = getattr(args, "max_positions", None)
    if cap is not None and cap < 1:
        parser.exit(2, f"error: --max-positions must be at least 1, got {cap}\n")
    depth = getattr(args, "term_depth", None)
    if depth is not None and depth < 0:
        parser.exit(2, f"error: --term-depth must be non-negative, got {depth}\n")
    try:
        return args.run(args)
    except (StructureValidationError, ResourceCapError, FormulaError,
            ValueError, KeyError, OSError, EOFError, json.JSONDecodeError) as exc:
        _error(exc)
        return 1
    except RecursionError as exc:
        # a formula or a JSON file nested deeper than the parsers can follow
        _error(f"input nested too deeply ({exc})")
        return 1


def _error(message):
    """One stderr line: the lines of a multi-line message joined by '; '.
    A KeyError's one argument is printed as it is, not as its repr."""
    if isinstance(message, KeyError) and len(message.args) == 1:
        message = message.args[0]
    lines = filter(None, map(str.strip, str(message).splitlines()))
    print("error: " + "; ".join(lines), file=sys.stderr)


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    structure = load_structure(args.structure, check=False)
    if args.skip_validation:
        _emit(args, {"parsed": True, "points": len(structure.points)},
              [f"parsed: {len(structure.points)} point(s), validation skipped"])
        return 0
    report = validate(structure, allow_pseudometric=args.pseudometric)
    payload = {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "witness": [str(w) for w in v.witness], "detail": v.detail}
            for v in report.violations
        ],
        "notes": report.notes,
    }
    _emit(args, payload, [str(report)])
    return 0 if report.ok else 1


def _parse_assignment(structure, raw):
    if not raw:
        return {}
    labels = [part.strip() for part in raw.split(",")]
    return {i: structure.point_index(lbl) for i, lbl in enumerate(labels)}


def _cmd_eval(args) -> int:
    structure = load_structure(args.structure)
    phi = parse_formula(args.formula, structure.signature)
    env = _parse_assignment(structure, args.at)
    value = evaluate(phi, structure, env)
    _emit(
        args,
        {"formula": format_formula(phi), "value": rat_to_json(value)},
        [format_rat(value)],
    )
    return 0


def _parse_start(pair, raw) -> Position:
    if not raw:
        return Position()
    left_raw, _, right_raw = raw.partition("/")
    left = tuple(
        pair.left.point_index(x.strip()) for x in left_raw.split(",") if x.strip()
    )
    right = tuple(
        pair.right.point_index(x.strip()) for x in right_raw.split(",") if x.strip()
    )
    return Position(left, right)


def _cmd_game(args) -> int:
    pair = load_pair(args.pair)
    start = _parse_start(pair, args.start)
    result = game_value(
        pair,
        start=start,
        rounds=args.rounds,
        term_depth=args.term_depth,
        build_strategies=args.strategy is not None,
        max_positions=args.max_positions,
    )
    lines = [f"game value ({args.rounds} round(s)): {format_rat(result.value)}"]
    if pair.signature.functions:
        lines.append(f"note: leaf checks truncated at term depth {args.term_depth}")
    payload = {
        "value": rat_to_json(result.value),
        "rounds": result.rounds,
        "term_depth": result.term_depth,
        "depth_truncated": bool(pair.signature.functions),
    }
    exit_code = 0
    if args.epsilon is not None:
        eps = rat(args.epsilon)
        winner = "II" if result.value <= eps else "I"
        payload["epsilon"] = rat_to_json(eps)
        payload["winner"] = winner
        lines.append(f"at eps = {format_rat(eps)}: {winner} wins")
        exit_code = 0 if winner == "II" else 1
    if args.strategy:
        strategy_to_json(result, args.strategy)
        lines.append(f"certificates written to {args.strategy}")
    _emit(args, payload, lines)
    return exit_code


def _cmd_ralpha(args) -> int:
    pair = load_pair(args.pair)
    if args.leaf == "omega":
        if args.omega is None:
            raise ValueError("--leaf omega needs --omega <weak-modulus.json>")
        omega = weak_modulus_from_json(json.loads(args.omega.read_text()))
        leaf = infinitary.OmegaLeaf(omega, term_depth=args.term_depth)
    else:
        leaf = infinitary.AtomicLeaf(term_depth=args.term_depth)
    if args.alpha.strip().lower() == "omega":
        if args.leaf != "atomic":
            raise ValueError("the infinite game supports only the atomic leaf")
        value = infinitary.omega_game_value_atomic(
            pair, term_depth=args.term_depth, max_positions=args.max_positions
        )
        _emit(args, {"alpha": "omega", "value": rat_to_json(value)},
              [f"r_omega = {format_rat(value)}"])
        return 0
    try:
        alpha = int(args.alpha)
    except ValueError:
        raise ValueError(f"--alpha must be an integer or 'omega', got {args.alpha!r}") from None
    if args.dynamic:
        result = infinitary.dynamic_game_value(
            pair, alpha, leaf=leaf, max_positions=args.max_positions
        )
        value = result.value
        label = f"dynamic game value (clock {alpha})"
    else:
        value = infinitary.r_alpha(pair, alpha=alpha, leaf=leaf, max_positions=args.max_positions)
        label = f"r_{alpha}"
    _emit(args, {"alpha": alpha, "value": rat_to_json(value), "leaf": args.leaf},
          [f"{label} = {format_rat(value)}"])
    return 0


def _cmd_theta(args) -> int:
    structure = load_structure(args.structure)
    phi = parse_formula(args.formula, structure.signature)
    theta = theta_of(phi, structure.signature)
    mod = modulus_of(phi, structure.signature)
    payload = {
        "formula": format_formula(phi),
        "qr": qr(phi),
        "theta": modulus_to_json(theta),
        "modulus": modulus_to_json(mod),
    }
    _emit(
        args,
        payload,
        [
            f"qr: {qr(phi)}",
            f"theta: {theta.describe()}",
            f"modulus: {mod.describe()}",
        ],
    )
    return 0


def _cmd_dist(args) -> int:
    if len(args.formula) != 2:
        raise ValueError("dist needs exactly two --formula arguments")
    corpus = [load_structure(p) for p in args.corpus]
    if not corpus:
        raise ValueError("empty corpus")
    sig = corpus[0].signature
    phi = parse_formula(args.formula[0], sig)
    psi = parse_formula(args.formula[1], sig)
    value = logical_distance_corpus(phi, psi, corpus)
    _emit(
        args,
        {"value": rat_to_json(value), "corpus_size": len(corpus), "semantics": "corpus-relative"},
        [
            f"corpus logical distance: {format_rat(value)}",
            "(a lower bound: the max is over the given corpus, not all structures)",
        ],
    )
    return 0


def _cmd_play(args) -> int:
    pair = load_pair(args.pair)
    play_interactive(
        pair,
        rounds=args.rounds,
        epsilon=rat(args.epsilon),
        human_side=args.human_side,
        term_depth=args.term_depth,
    )
    return 0


# --- demos -----------------------------------------------------------------

def _check(lines, checks, label, ok):
    checks.append(ok)
    lines.append(f"[{'PASS' if ok else 'FAIL'}] {label}")


def _cmd_demo(args) -> int:
    name = args.name
    lines: list[str] = []
    checks: list[bool] = []
    payload: dict = {"demo": name}
    if name == "covering":
        payload["cases"] = _demo_covering(lines, checks)
    elif name == "corollary54":
        payload["cases"] = _demo_distance_witness(args, lines, checks)
    elif name == "corollary55":
        payload["cases"] = _demo_cardinality_witness(args, lines, checks)
    elif name == "section6":
        payload["cases"] = _demo_nested_levels(args, lines, checks)
    ok = all(checks)
    payload["ok"] = ok
    lines.append(f"demo {name}: {'all checks passed' if ok else 'CHECKS FAILED'}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def brute_force_covering_value(structure, n: int) -> Fraction:
    """min over n-tuples of centers of the max point-to-nearest-center
    distance; the oracle for the covering sentence."""
    from itertools import product as iproduct

    best = None
    pts = range(structure.size)
    for centers in iproduct(pts, repeat=n):
        worst = max(min(structure.distance(y, c) for c in centers) for y in pts)
        if best is None or worst < best:
            best = worst
    return best


def _demo_covering(lines, checks):
    cases = []
    spaces = [
        ("discrete-5", witnesses.discrete_structure(5)),
        ("line-0,1/4,1/2,3/4,1", witnesses.line_structure(["0", "1/4", "1/2", "3/4", "1"])),
        ("line-0,1/2,1", witnesses.line_structure(["0", "1/2", "1"])),
    ]
    for label, space in spaces:
        for n in (1, 2, 3):
            sentence_value = evaluate(covering_sentence(n), space)
            oracle = brute_force_covering_value(space, n)
            ok = sentence_value == oracle
            _check(
                lines,
                checks,
                f"{label}: n={n} sentence value {format_rat(sentence_value)} == brute force",
                ok,
            )
            cases.append(
                {"space": label, "n": n, "value": rat_to_json(sentence_value), "ok": ok}
            )
    return cases


def _demo_distance_witness(args, lines, checks):
    delta = rat(args.delta)
    cases = []
    previous = None
    for m in (3, 6, 12):
        pair = witnesses.distance_witness_pair(delta, m)
        value = game_value(pair, rounds=2, build_strategies=False).value
        bound = Fraction(1, m + 1)
        ok = value <= bound and (previous is None or value < previous)
        _check(
            lines,
            checks,
            f"m={m}: 2-round value {format_rat(value)} <= 1/{m + 1}, strictly decreasing",
            ok,
        )
        cases.append({"m": m, "value": rat_to_json(value), "bound": rat_to_json(bound), "ok": ok})
        previous = value
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            save_pair(pair, args.out / f"distance_witness_m{m}.json")
    return cases


def _demo_cardinality_witness(args, lines, checks):
    eps = rat(args.epsilon)
    pair = witnesses.cardinality_witness_pair(eps)
    # start from the primed position 1 -> 1: the one pair the duplicator's
    # pretend map commits to before the near points come into play
    start = Position((1,), (1,))
    cases = []
    for rounds in (1, 2, 3):
        result = game_value(pair, start=start, rounds=rounds, build_strategies=False)
        ok = result.value == eps / 2
        _check(
            lines,
            checks,
            f"rounds={rounds}: value {format_rat(result.value)} == eps/2",
            ok,
        )
        cases.append({"rounds": rounds, "value": rat_to_json(result.value), "ok": ok})
    # the optimal duplicator replies must follow the map 0->0, 1->1, 2->1
    result = game_value(pair, start=start, rounds=1)
    strategy = result.ii_strategy
    expected = {("R", 0): 0, ("R", 1): 1, ("R", 2): 1}
    replies = {move: reply for move, (reply, _) in strategy.responses.items()}
    map_ok = all(replies[m] == r for m, r in expected.items())
    _check(lines, checks, "duplicator strategy matches the map 0->0, 1->1, 2->1", map_ok)
    cases.append({"strategy_map_ok": map_ok})
    lines.append("strategy replies: " + ", ".join(
        f"{side}{elt}->{reply}" for (side, elt), reply in sorted(replies.items())
    ))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        save_pair(pair, args.out / "cardinality_witness.json")
    return cases


def _demo_nested_levels(args, lines, checks):
    cases = []
    previous = None
    for m in (2, 4, 8):
        pair = infinitary.build_nested_levels_pair(m, args.level_size)
        for side, structure in (("left", pair.left), ("right", pair.right)):
            report = validate(structure)
            _check(lines, checks, f"m={m}: {side} structure valid", report.ok)
        value = game_value(pair, rounds=1, build_strategies=False).value
        bound = Fraction(2, m + 1)
        ok = value <= bound and (previous is None or value < previous)
        _check(
            lines,
            checks,
            f"m={m}: 1-round value {format_rat(value)} <= 2/{m + 1}, strictly decreasing",
            ok,
        )
        cases.append({"m": m, "value": rat_to_json(value), "bound": rat_to_json(bound), "ok": ok})
        previous = value
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            save_pair(pair, args.out / f"nested_levels_m{m}.json")
    requested = infinitary.build_nested_levels_pair(args.m, args.level_size)
    value = game_value(requested, rounds=1, build_strategies=False).value
    lines.append(
        f"requested m={args.m}, level_size={args.level_size}: 1-round value {format_rat(value)}"
    )
    cases.append({"m": args.m, "level_size": args.level_size, "value": rat_to_json(value)})
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        save_pair(requested, args.out / f"nested_levels_m{args.m}.json")
    return cases


if __name__ == "__main__":
    sys.exit(main())
