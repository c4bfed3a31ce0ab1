"""Dynamic-clock and infinite-length games, and the rank recursion they match.

The rank recursion on a structure pair:

    r_0(p)     = leaf discrepancy of p
    r_{a+1}(p) = max( sup_a inf_b r_a(p + (a,b)),  sup_b inf_a r_a(p + (a,b)) )

The dynamic game lets the spoiler also spend a strictly decreasing clock
value each round; its least winning precision for the duplicator equals
r_alpha, so ``dynamic_game_value`` takes it from the game kernel.  The
test-suite checks the equality with two independent implementations: the
kernel's recursion, and ``tests/helpers.DynamicSolver``, an explicit
game-tree search over (position, remaining-clock) states with its own
move and reply loops and its own memo of exact values.

Leaf families:

* ``AtomicLeaf`` scores a position by the atomic discrepancy (exactly the
  finite game's winning condition).
* ``OmegaLeaf`` scores it over an explicitly generated family of basic
  formulas (one connective over atoms) whose moduli are certified against a
  coordinate-indexed weak modulus.  The generated family is finite, so this
  is a certified lower bound of the sup over all basic formulas respecting
  the weak modulus.

The infinite game with the atomic leaf, on any signature, is the finite
game at u rounds, u being the number of points on both sides that the start
leaves uncovered: a spoiler move on a covered point is answered by a stay,
and every other move covers a point (``omega_game_value_atomic`` has the
proof).  It is solved by the game kernel itself.  The reduction needs
positions that are sets of pairs, so it does not apply to the
coordinate-indexed omega leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import lcm

from .formulas import (
    Conn,
    Formula,
    MaxOf,
    MinOf,
    Neg,
    Scale,
    TruncAdd,
    TruncSub,
    enumerate_atomic,
    free_vars,
    is_atomic,
    modulus_of,
)
from .game import GameSolver, Position, _gap_scorer, rounds_within_stack
from .moduli import WeakModulus, linear_modulus, modulus_leq
from .structures import MetricStructure, NamedPair, PredicateSymbol, Signature

__all__ = [
    "AtomicLeaf",
    "OmegaLeaf",
    "RAlphaSolver",
    "r_alpha",
    "DynamicGameResult",
    "dynamic_game_value",
    "omega_game_value_atomic",
    "check_basic_omega",
    "generate_basic_family",
    "build_section6_counterexample",
    "build_nested_levels_pair",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class AtomicLeaf:
    term_depth: int = 0


@dataclass(frozen=True)
class OmegaLeaf:
    omega: WeakModulus
    term_depth: int = 0
    scale_factors: tuple = (Fraction(2), Fraction(1, 2))


def check_basic_omega(phi: Formula, sig: Signature, omega: WeakModulus) -> bool:
    """Sufficient syntactic certificate that a basic formula respects the
    weak modulus truncated at its arity.

    Basic means one connective applied to atoms (a bare atom counts).  The
    check compares the formula's modulus against the coordinate modulus of
    every free variable; True certifies, False only means "not certified".
    """
    if not _is_basic(phi):
        raise ValueError("only basic formulas (one connective over atoms) can be certified")
    m = modulus_of(phi, sig)
    return all(modulus_leq(m, omega.coordinate(i)) for i in free_vars(phi))


def _is_basic(phi: Formula) -> bool:
    if is_atomic(phi):
        return True
    return isinstance(phi, Conn) and all(is_atomic(a) for a in phi.args)


def generate_basic_family(
    sig: Signature, arity: int, omega: WeakModulus, term_depth: int = 0, scale_factors=()
) -> list:
    """Certified basic formulas in variables x0..x{arity-1}: atoms, their
    negations and scalings, and two-atom combinations, filtered through
    check_basic_omega."""
    atoms = enumerate_atomic(sig, arity, term_depth)
    candidates: list[Formula] = []
    candidates.extend(atoms)
    candidates.extend(Conn(Neg(), (a,)) for a in atoms)
    for q in scale_factors:
        candidates.extend(Conn(Scale(Fraction(q)), (a,)) for a in atoms)
    for a, b in combinations(atoms, 2):
        candidates.append(Conn(MinOf(2), (a, b)))
        candidates.append(Conn(MaxOf(2), (a, b)))
        candidates.append(Conn(TruncAdd(), (a, b)))
    for a, b in product(atoms, repeat=2):
        if a != b:
            candidates.append(Conn(TruncSub(), (a, b)))
    return [phi for phi in candidates if check_basic_omega(phi, sig, omega)]


class RAlphaSolver(GameSolver):
    """Memoized rank recursion over one structure pair: the finite game's
    minimax with the leaf scored over the chosen family.

    With the atomic leaf this is the kernel itself; an ``OmegaLeaf`` is
    coordinate-indexed, so play order matters, and gives an ``_OmegaLeafSolver``.
    """

    def __new__(cls, pair: NamedPair, leaf: AtomicLeaf | OmegaLeaf, max_positions: int | None = None):
        return super().__new__(_OmegaLeafSolver if isinstance(leaf, OmegaLeaf) else cls)

    def __init__(self, pair: NamedPair, leaf: AtomicLeaf | OmegaLeaf, max_positions: int | None = None):
        super().__init__(pair, leaf.term_depth, max_positions)


class _OmegaLeafSolver(RAlphaSolver):
    """The rank recursion with the coordinate-indexed ``OmegaLeaf``: keys in
    play order, leaves as integers over the family compiled once per arity.
    A stay appends to an ordered key, so the kernel's shortcuts for set keys
    (the rounds clamp and the pairwise last ply) are off."""

    _set_keys = False

    def __init__(self, pair: NamedPair, leaf: OmegaLeaf, max_positions: int | None = None):
        super().__init__(pair, leaf, max_positions)
        # every key is scored whole: the family has no w-pair subset rule
        self._width = float("inf")
        # p/s-scaled formulas have N = s * (side's den): the product keeps den // N whole
        self._den *= lcm(*(Fraction(q).denominator for q in leaf.scale_factors))
        self._scorer = cache(lambda k: _gap_scorer(pair, generate_basic_family(
            pair.signature, k, leaf.omega, leaf.term_depth, leaf.scale_factors), k, self._den))

    def _key(self, position: Position):
        return tuple(zip(position.left, position.right))

    def _child(self, key, side: str, element: int, reply: int):
        return key + ((element, reply) if side == "L" else (reply, element),)

    def _score(self, key):
        return self._scorer(len(key))(tuple(a for a, _ in key), tuple(b for _, b in key))


def r_alpha(
    pair: NamedPair,
    position: Position | None = None,
    alpha: int = 0,
    leaf: AtomicLeaf | OmegaLeaf | None = None,
    max_positions: int | None = None,
) -> Fraction:
    """Rank recursion value at a finite clock stage."""
    solver = RAlphaSolver(pair, leaf or AtomicLeaf(), max_positions)
    return solver.value(position or Position(), alpha)


@dataclass(frozen=True)
class DynamicGameResult:
    value: Fraction
    clock: int
    principal_variation: tuple
    # principal variation entries: (clock_spent, side, spoiler_element, reply)


def dynamic_game_value(
    pair: NamedPair,
    clock: int,
    leaf: AtomicLeaf | OmegaLeaf | None = None,
    start: Position | None = None,
    max_positions: int | None = None,
) -> DynamicGameResult:
    """Least precision at which the duplicator survives the dynamic game, and
    a line of optimal play.

    Each round the spoiler picks an element and a clock value strictly below
    the remaining one; the round with clock 0 is still played, then the leaf
    is scored.  A round that spends s, and the rounds after it, are worth
    V_{s+1}, which grows with s because the leaf only grows along play (the
    omega leaf's arity-k family lies in its arity-(k+1) family).  So the
    best spend is c - 1, and the value at clock c is the kernel's V_c, with
    its rounds clamp: a deep clock costs no deeper a search than the pair's
    points.  ``tests/helpers.DynamicSolver`` searches the spends instead.

    The principal variation holds (clock spent, side, element, reply) per
    round: the least spend s whose scan ``_scan(key, s + 1)`` reaches the
    value, the scan's first best move, and the first reply that keeps the
    value, which then stays the same along the line.
    """
    game = RAlphaSolver(pair, leaf or AtomicLeaf(), max_positions)
    key = game._enter(start or Position(), clock, name="clock")
    line, left = [], clock
    with rounds_within_stack(clock):
        target = game._value(key, clock)
        while left > 0:
            for spent in range(left):
                side, element, best = game._scan(key, spent + 1)
                if best == target:
                    break
            reply, _ = game._reply(key, side, element, spent + 1)
            line.append((spent, side, element, reply))
            left, key = spent, game._child(key, side, element, reply)
    return DynamicGameResult(game._fraction(target), clock, tuple(line))


def omega_game_value_atomic(
    pair: NamedPair,
    term_depth: int = 0,
    start: Position | None = None,
    max_positions: int | None = None,
) -> Fraction:
    """Value of the never-ending game: the least precision the duplicator can
    hold forever.

    Positions are the kernel's sets of pairs, function symbols included.
    A spoiler move on a covered point is answered by a stay (repeating the
    played pair forever) and imposes nothing; a move on an uncovered point
    forces the min over its replies.  So the value is

        omega(S) = leaf(S)                                 if S covers every point,
        omega(S) = max over uncovered moves of min over replies of omega(child),

    and leaf(S) <= omega(S), by induction on the uncovered points, because
    the leaf is monotone in the set (with function symbols its terms, the
    set's closed ``term_depth`` times, grow with the set).  With u(S) the number of points on both
    sides that S leaves uncovered, the finite game's value V_r(S) equals
    omega(S) for every r >= u(S), so this returns the kernel's value at
    |L| + |R| rounds, which its rounds clamp cuts to u(start):

    * V_r <= omega for every r, by induction on r from V_0 = leaf <= omega.
      II answers a move on a covered point with the stay, whose child is S
      itself, and a move on an uncovered point with the infinite game's
      optimal reply, whose child's omega is at most omega(S).
    * V_r >= omega for r >= u(S).  At a full cover V_r(S) >= leaf(S) =
      omega(S), because the leaf only grows along play.  Otherwise I plays
      the infinite game's optimal move, which covers at least one point, so
      every reply gives a child with u <= r - 1, where by induction on u
      V_{r-1} >= omega.
    """
    solver = GameSolver(pair, term_depth, max_positions)
    return solver.value(start or Position(), pair.left.size + pair.right.size)


def build_nested_levels_pair(m: int, level_size: int) -> NamedPair:
    """Discrete structures with nested level predicates P_0 ... P_{m-1} of
    moduli t/(i+1); the left side has a distinguished point lying in every
    level, the right side lacks it at the deepest level (which is then
    empty, so its predicate is the constant 1/m).

    The 1-round atomic game value is exactly 1/m: the spoiler shows the
    distinguished left point, and every right point misses the deepest level
    by 1/m.
    """
    if m < 1:
        raise ValueError("need at least one level predicate")
    if level_size < 1:
        raise ValueError("need at least one point per level")
    sig = Signature(
        predicates=tuple(
            PredicateSymbol(f"P{i}", 1, linear_modulus(Fraction(1, i + 1))) for i in range(m)
        )
    )
    labels = ["star"] + [f"L{i}_{j}" for i in range(m - 1) for j in range(level_size)]
    n = len(labels)
    dist = tuple(
        tuple(_ZERO if i == j else _ONE for j in range(n)) for i in range(n)
    )

    def depth(idx: int, star_depth) -> int:
        if idx == 0:
            return star_depth
        return (idx - 1) // level_size

    def tables(star_depth):
        out = {}
        for i in range(m):
            out[f"P{i}"] = {
                (p,): (_ZERO if depth(p, star_depth) >= i else Fraction(1, i + 1))
                for p in range(n)
            }
        return out

    left = MetricStructure(
        signature=sig, points=tuple(labels), dist=dist, predicate_tables=tables(m - 1)
    )
    right = MetricStructure(
        signature=sig, points=tuple(labels), dist=dist, predicate_tables=tables(m - 2)
    )
    return NamedPair(left, right)


# alias under the demo's published name
build_section6_counterexample = build_nested_levels_pair
