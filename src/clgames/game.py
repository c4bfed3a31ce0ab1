"""Exact solver for the finite-length approximate back-and-forth game.

Players alternate for a fixed number of rounds: the spoiler (I) picks an
element of either structure, the duplicator (II) answers in the other one.
II wins at precision eps when the played correspondence keeps every atomic
formula's value within eps across the two structures.

On finite structures the game value

    V_0(p)     = leaf discrepancy of the position
    V_{r+1}(p) = max( max_a min_b V_r(p + (a,b)),  max_b min_a V_r(p + (a,b)) )

is attained, so eps-queries reduce to one exact minimax quantity: II wins
the r-round game at precision eps iff V_r <= eps.  The solver memoizes on
positions (as sets of pairs when the leaf is atomic and the signature is
relational, where the order provably does not matter) and produces strategy
certificates for both players.  It is also the kernel of the rank recursion
in ``clgames.infinitary``, which only swaps the leaf's formula family.

With function symbols the leaf check ranges over atoms up to a stated term
depth and the value is labelled depth-truncated.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .formulas import enumerate_atomic, evaluate, is_delta_formula
from .moduli import PwlModulus
from .rationals import format_rat
from .structures import NamedPair

__all__ = [
    "Position",
    "GameValueResult",
    "ResourceCapError",
    "GameSolver",
    "atomic_discrepancy",
    "is_partial_eps_delta_iso",
    "game_value",
    "winning_strategy",
    "play_interactive",
    "strategy_to_json",
    "DEFAULT_MAX_POSITIONS",
]

_ZERO = Fraction(0)

_ENV_CAP = "CLGAMES_MAX_POSITIONS"
DEFAULT_MAX_POSITIONS = 500_000


def default_position_cap() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_POSITIONS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None


class ResourceCapError(RuntimeError):
    def __init__(self, cap: int):
        super().__init__(
            f"position table would exceed the cap of {cap} entries; "
            f"raise --max-positions (or {_ENV_CAP}) or shrink the instance"
        )
        self.cap = cap


@dataclass(frozen=True)
class Position:
    """Equal-length tuples of played points, in play order (left indices,
    right indices)."""

    left: tuple[int, ...] = ()
    right: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.left) != len(self.right):
            raise ValueError("position tuples must have equal length")

    def __len__(self):
        return len(self.left)

    def extended(self, a: int, b: int) -> "Position":
        return Position(self.left + (a,), self.right + (b,))

    def check_against(self, pair: NamedPair):
        for i in self.left:
            if not 0 <= i < pair.left.size:
                raise ValueError(f"left point index {i} out of range")
        for i in self.right:
            if not 0 <= i < pair.right.size:
                raise ValueError(f"right point index {i} out of range")


@dataclass(frozen=True)
class IIStrategyNode:
    """Optimal duplicator responses: for every spoiler move (side, element)
    the reply and the continuation."""

    responses: dict

    def respond(self, side: str, element: int):
        return self.responses[(side, element)]


@dataclass(frozen=True)
class IWitnessNode:
    """A forcing spoiler strategy: the move to make now and a continuation
    for every duplicator reply."""

    side: str
    element: int
    continuations: dict


@dataclass(frozen=True)
class GameValueResult:
    value: Fraction
    rounds: int
    term_depth: int
    ii_strategy: IIStrategyNode | None = None
    i_witness: IWitnessNode | None = None


class GameSolver:
    """Backward-induction solver for one structure pair.

    Caches the leaf's formula family per tuple length, leaf scores per
    position, and minimax values per (position, rounds).  Every memo entry,
    including those of the dynamic and infinite-game searches built on this
    solver, goes through ``memoize`` and is charged to one position cap.
    Positions are keyed by the set of played pairs when the leaf is atomic
    and the signature relational (the value is order- and
    multiplicity-invariant there); ordered tuples otherwise.  With set keys
    a leaf of more pairs than the largest atom can mention is the max over
    its subsets of that size.  A subclass with another leaf overrides
    ``family`` and clears ``atomic_leaf``.
    """

    atomic_leaf = True

    def __init__(self, pair: NamedPair, term_depth: int = 0, max_positions: int | None = None):
        self.pair = pair
        self.term_depth = term_depth
        self.cap = default_position_cap() if max_positions is None else max_positions
        self._set_keys = self.atomic_leaf and pair.signature.is_relational
        # an atom mentions at most this many played pairs
        self._width = max([2] + [p.arity for p in pair.signature.predicates])
        self._entries = 0
        self._families: dict[int, list] = {}
        self._leaf: dict = {}
        self._values: dict = {}

    def _key(self, position: Position):
        """The memo key: the sorted distinct played pairs with set keys, else
        the ordered tuples."""
        if self._set_keys:
            return tuple(sorted(set(zip(position.left, position.right))))
        return (position.left, position.right)

    def memoize(self, table: dict, key, value):
        """Store ``table[key] = value``, charging the entry to the cap."""
        if self._entries >= self.cap:
            raise ResourceCapError(self.cap)
        self._entries += 1
        table[key] = value
        return value

    def family(self, k: int) -> list:
        """The formulas in x0..x{k-1} that score a k-pair leaf: the atoms at
        the solver's term depth."""
        return enumerate_atomic(self.pair.signature, k, self.term_depth)

    def leaf(self, position: Position) -> Fraction:
        """Largest value gap over the leaf family at the position; for the
        atomic family, the least eps making it a partial eps-isomorphism."""
        key = self._key(position)
        if key in self._leaf:
            return self._leaf[key]
        return self._leaf_at(key)

    def _leaf_at(self, key) -> Fraction:
        if key in self._leaf:
            return self._leaf[key]
        if self._set_keys and len(key) > self._width:
            # every atom lies within some width-pair subset of the position
            best = max(self._leaf_at(sub) for sub in combinations(key, self._width))
        else:
            if self._set_keys:
                left = tuple(a for a, _ in key)
                right = tuple(b for _, b in key)
            else:
                left, right = key
            k = len(left)
            if k not in self._families:
                self._families[k] = self.family(k)
            best = _max_gap(self.pair, self._families[k], left, right)
        return self.memoize(self._leaf, key, best)

    def moves(self):
        yield from (("L", a) for a in range(self.pair.left.size))
        yield from (("R", b) for b in range(self.pair.right.size))

    def responses(self, side: str) -> range:
        return range(self.pair.right.size if side == "L" else self.pair.left.size)

    def child(self, position: Position, side: str, element: int, reply: int) -> Position:
        if side == "L":
            return position.extended(element, reply)
        return position.extended(reply, element)

    def value(self, position: Position, rounds: int) -> Fraction:
        if rounds == 0:
            return self.leaf(position)
        key = (self._key(position), rounds)
        if key in self._values:
            return self._values[key]
        return self.memoize(self._values, key, self.best_move(position, rounds)[2])

    def best_move(self, position: Position, rounds: int):
        """I's value-maximizing move as (side, element, value), first in
        canonical order on ties."""
        best = None
        for side, element in self.moves():
            _, worst = self.best_reply(position, side, element, rounds)
            if best is None or worst > best[2]:
                best = (side, element, worst)
        return best

    def best_reply(self, position: Position, side: str, element: int, rounds_left: int):
        """II's value-minimizing reply (first in canonical order on ties)."""
        best_reply, best_val = None, None
        for reply in self.responses(side):
            v = self.value(self.child(position, side, element, reply), rounds_left - 1)
            if best_val is None or v < best_val:
                best_reply, best_val = reply, v
        return best_reply, best_val

    def ii_strategy_tree(self, position: Position, rounds: int) -> IIStrategyNode | None:
        if rounds == 0:
            return None
        responses = {}
        for side, element in self.moves():
            reply, _ = self.best_reply(position, side, element, rounds)
            responses[(side, element)] = (
                reply,
                self.ii_strategy_tree(self.child(position, side, element, reply), rounds - 1),
            )
        return IIStrategyNode(responses)

    def i_witness_tree(self, position: Position, rounds: int) -> IWitnessNode | None:
        if rounds == 0:
            return None
        side, element, _ = self.best_move(position, rounds)
        continuations = {
            reply: self.i_witness_tree(self.child(position, side, element, reply), rounds - 1)
            for reply in self.responses(side)
        }
        return IWitnessNode(side, element, continuations)


def _max_gap(pair: NamedPair, formulas, left: tuple, right: tuple) -> Fraction:
    """Largest |value on the left - value on the right| over the formulas,
    with x_i bound to left[i] and right[i]; 0 for no formulas."""
    env_l = dict(enumerate(left))
    env_r = dict(enumerate(right))
    best = _ZERO
    for phi in formulas:
        gap = abs(evaluate(phi, pair.left, env_l) - evaluate(phi, pair.right, env_r))
        if gap > best:
            best = gap
    return best


def atomic_discrepancy(pair: NamedPair, position: Position, term_depth: int = 0) -> Fraction:
    """Max over atomic formulas of the value gap at the position: the least
    eps making the played map a partial eps-isomorphism (at this term depth)."""
    position.check_against(pair)
    return GameSolver(pair, term_depth).leaf(position)


def is_partial_eps_delta_iso(
    pair: NamedPair,
    position: Position,
    epsilon,
    delta: PwlModulus,
    term_depth: int = 0,
) -> bool:
    """Check the position against atomic delta-formulas only."""
    position.check_against(pair)
    sig = pair.signature
    atoms = [
        atom
        for atom in enumerate_atomic(sig, len(position), term_depth)
        if is_delta_formula(atom, sig, delta)
    ]
    return _max_gap(pair, atoms, position.left, position.right) <= epsilon


def game_value(
    pair: NamedPair,
    start: Position | None = None,
    rounds: int = 0,
    term_depth: int = 0,
    build_strategies: bool = True,
    max_positions: int | None = None,
) -> GameValueResult:
    """Exact minimax value of the rounds-long game from the start position,
    with optimal-strategy certificates for both players."""
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    start = start or Position()
    start.check_against(pair)
    solver = GameSolver(pair, term_depth, max_positions)
    value = solver.value(start, rounds)
    ii_tree = i_tree = None
    if build_strategies:
        ii_tree = solver.ii_strategy_tree(start, rounds)
        i_tree = solver.i_witness_tree(start, rounds)
    return GameValueResult(
        value=value,
        rounds=rounds,
        term_depth=term_depth,
        ii_strategy=ii_tree,
        i_witness=i_tree,
    )


def winning_strategy(
    pair: NamedPair,
    rounds: int,
    epsilon,
    term_depth: int = 0,
    start: Position | None = None,
    max_positions: int | None = None,
):
    """II's strategy when she wins at precision epsilon, else I's forcing play.

    Returns ("II", tree) or ("I", tree).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    result = game_value(
        pair, start=start, rounds=rounds, term_depth=term_depth, max_positions=max_positions
    )
    if result.value <= epsilon:
        return "II", result.ii_strategy
    return "I", result.i_witness


def strategy_to_json(node) -> dict | None:
    if node is None:
        return None
    if isinstance(node, IIStrategyNode):
        return {
            "kind": "duplicator",
            "responses": {
                f"{side}:{element}": {
                    "reply": reply,
                    "next": strategy_to_json(child),
                }
                for (side, element), (reply, child) in sorted(node.responses.items())
            },
        }
    if isinstance(node, IWitnessNode):
        return {
            "kind": "spoiler",
            "move": f"{node.side}:{node.element}",
            "continuations": {
                str(reply): strategy_to_json(child)
                for reply, child in sorted(node.continuations.items())
            },
        }
    raise TypeError(f"not a strategy node: {node!r}")


def play_interactive(
    pair: NamedPair,
    rounds: int,
    epsilon,
    human_side: str = "I",
    term_depth: int = 0,
    in_stream=None,
    out_stream=None,
    start: Position | None = None,
) -> dict:
    """Terminal play against the optimal solver.

    The human plays I (spoiler) or II (duplicator); moves are entered as
    ``A <point>`` / ``B <point>`` for the spoiler (structure side first) or
    as a bare point label for the duplicator.  Returns a transcript dict.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    stdin = in_stream if in_stream is not None else sys.stdin
    stdout = out_stream if out_stream is not None else sys.stdout
    human_side = human_side.upper()
    if human_side not in ("I", "II"):
        raise ValueError("human side must be 'I' or 'II'")

    def say(text=""):
        print(text, file=stdout)

    def ask(prompt: str) -> str:
        print(prompt, end="", file=stdout)
        if hasattr(stdout, "flush"):
            stdout.flush()
        line = stdin.readline()
        if not line:
            raise EOFError("input ended mid-game")
        return line.strip()

    solver = GameSolver(pair, term_depth)
    position = start or Position()
    position.check_against(pair)
    transcript = []
    say(f"game of {rounds} round(s) at precision {format_rat(Fraction(epsilon))}")
    for rnd in range(rounds):
        left_rounds = rounds - rnd
        if human_side == "I":
            side, element = _prompt_spoiler_move(pair, ask, say)
        else:
            side, element, _ = solver.best_move(position, left_rounds)
            label = (pair.left if side == "L" else pair.right).points[element]
            say(f"I plays {'A' if side == 'L' else 'B'} {label}")
        if human_side == "II":
            reply = _prompt_duplicator_reply(pair, side, ask, say)
        else:
            reply, _ = solver.best_reply(position, side, element, left_rounds)
            label = (pair.right if side == "L" else pair.left).points[reply]
            say(f"II replies {label}")
        transcript.append((side, element, reply))
        position = solver.child(position, side, element, reply)
    final = solver.leaf(position)
    verdict = "II" if final <= epsilon else "I"
    say(f"final discrepancy: {format_rat(final)}")
    say(f"verdict: {verdict} wins at eps = {format_rat(Fraction(epsilon))}")
    return {
        "transcript": transcript,
        "discrepancy": final,
        "winner": verdict,
        "position": position,
    }


def _prompt_spoiler_move(pair: NamedPair, ask, say):
    while True:
        raw = ask("I's move (A <point> or B <point>): ")
        parts = raw.split()
        if len(parts) != 2 or parts[0].upper() not in ("A", "B"):
            say("  malformed move; expected e.g. 'A p0'")
            continue
        side = "L" if parts[0].upper() == "A" else "R"
        structure = pair.left if side == "L" else pair.right
        try:
            element = structure.point_index(parts[1])
        except KeyError:
            say(f"  no point {parts[1]!r} on that side")
            continue
        return side, element


def _prompt_duplicator_reply(pair: NamedPair, side: str, ask, say):
    structure = pair.right if side == "L" else pair.left
    side_name = "B" if side == "L" else "A"
    while True:
        raw = ask(f"II's reply in {side_name} (<point>): ")
        try:
            return structure.point_index(raw.strip())
        except KeyError:
            say(f"  no point {raw.strip()!r} in {side_name}")
