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
  coordinate-indexed weak modulus, less negations, minima and maxima, which
  never raise the leaf.  The family is finite, so this is a certified lower
  bound of the sup over all basic formulas respecting the weak modulus.

The infinite game with the atomic leaf, on any signature, is the finite
game at u rounds, u being the number of points on both sides that the start
leaves uncovered: a spoiler move on a covered point is answered by a stay,
and every other move covers a point (``omega_game_value_atomic`` has the
proof).  It is solved by the game kernel itself.  The reduction needs
positions that are sets of pairs, so it does not apply to the
coordinate-indexed omega leaf, whose keys keep the first coordinates in
play order and a repeated pair as a second copy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import lcm

from .formulas import (
    Conn,
    Formula,
    Scale,
    TruncAdd,
    TruncSub,
    compile_formula,
    enumerate_atomic,
    free_vars,
    is_atomic,
    modulus_of,
)
from .game import GameSolver, Position
from .moduli import WeakModulus, linear_modulus, modulus_leq
from .structures import MetricStructure, NamedPair, PredicateSymbol, Signature

__all__ = [
    "AtomicLeaf",
    "OmegaLeaf",
    "rank_solver",
    "r_alpha",
    "DynamicGameResult",
    "dynamic_game_value",
    "omega_game_value_atomic",
    "check_basic_omega",
    "generate_basic_family",
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
    return is_atomic(phi) or (isinstance(phi, Conn) and all(is_atomic(a) for a in phi.args))


def generate_basic_family(
    sig: Signature, arity: int, omega: WeakModulus, term_depth: int = 0, scale_factors=()
) -> list:
    """Certified basic formulas in variables x0..x{arity-1}: atoms, their
    scalings, and truncated sums and differences of two atoms, filtered
    through check_basic_omega.  Negations, minima and maxima of atoms never
    raise the leaf, so they are left out: their modulus, the ``modulus_max``
    of their atoms' (the connective's is the identity), is certified only if
    each atom's is, and their gap is at most their atoms' largest."""
    atoms = enumerate_atomic(sig, arity, term_depth)
    candidates = atoms + [Conn(Scale(Fraction(q)), (a,)) for q in scale_factors for a in atoms]
    candidates += [Conn(TruncAdd(), pair) for pair in combinations(atoms, 2)]
    candidates += [Conn(TruncSub(), pair) for pair in permutations(atoms, 2)]
    return [phi for phi in candidates if check_basic_omega(phi, sig, omega)]


def _family_size(sig: Signature, arity: int, term_depth: int, scales: int, limit: int) -> int:
    """The number of candidates ``generate_basic_family`` checks, counted
    without building any, or some number above ``limit`` when the count is.

    Terms follow T_d = arity + constants + the sum over functions f of
    T_{d-1}^arity(f); n = C(T, 2) + the sum over predicates P of
    T^arity(P) atoms give n(1 + scales) + n(n-1)/2 + n(n-1) candidates.  T
    is held at limit + 2, which keeps every count past it above ``limit``
    (C(limit + 2, 2) > limit) and the integers small at any term depth."""
    terms = base = arity + len(sig.constants)
    for _ in range(term_depth if sig.functions else 0):
        terms = min(base + sum(terms ** f.arity for f in sig.functions), limit + 2)
    atoms = terms * (terms - 1) // 2 + sum(terms ** p.arity for p in sig.predicates)
    return atoms * (1 + scales) + 3 * atoms * (atoms - 1) // 2


def _gap_scorer(pair: NamedPair, formulas, arity: int, den: int):
    """The function of the left and right points for x0..x{arity-1} giving
    ``den`` times the largest |left value - right value| over the formulas, 0
    for none; each is compiled once per side and scaled by den // N."""
    terms = []
    for phi in formulas:
        (run_l, n_l), (run_r, n_r) = (
            compile_formula(phi, side, range(arity)) for side in (pair.left, pair.right))
        terms.append((run_l, den // n_l, run_r, den // n_r))
    return lambda left, right: max(
        [abs(k * f(left) - m * g(right)) for f, k, g, m in terms], default=0)


def rank_solver(pair: NamedPair, leaf: AtomicLeaf | OmegaLeaf, max_positions: int | None = None):
    """The memoized rank recursion over one structure pair: the finite
    game's minimax with the leaf scored over the chosen family.  With the
    atomic leaf this is the kernel itself; an ``OmegaLeaf`` is
    coordinate-indexed, so the order of the pairs at its prefix coordinates
    matters, and gives an ``_OmegaLeafSolver``."""
    if isinstance(leaf, OmegaLeaf):
        return _OmegaLeafSolver(pair, leaf, max_positions)
    return GameSolver(pair, leaf.term_depth, max_positions)


class _OmegaLeafSolver(GameSolver):
    """The rank recursion with the coordinate-indexed ``OmegaLeaf``, its
    leaves integers over the family compiled once per arity.

    A key is the kernel's, with a prefix of c = ``len(omega.coords)`` pairs
    in play order and the rest a sorted multiset.  This is exact.  The
    coordinates at or after c all share the tail modulus, each arity's
    family is closed under renaming variables, and ``check_basic_omega``
    depends only on a formula's modulus and on the coordinate moduli of its
    free variables; so permuting the tail positions leaves the leaf as it
    is.  Once the prefix is full a child's new pair lands in the tail, so
    positions with one key have children with one key, and every V_r
    agrees, by induction on r.  The prefix stays ordered and a repeated
    tail pair stays a second copy, because either can change the leaf.  A
    stay then adds a copy to the key, so the kernel's three shortcuts for
    set keys (the rounds clamp, the skip of I's moves on covered points and
    the child's leaf from its parent's) are off, and the depth rule counts
    every round.

    The leaves are integers over ``_den``, the sides' common denominator
    times the lcm of the scale factors' denominators.  Every family
    formula's own denominator N divides it, so ``_gap_scorer`` scales each
    formula by a whole den // N: an atom's N is a side's denominator, a
    p/s-scaled atom's is s times it, and a truncated sum or difference of
    two atoms has the lcm of theirs."""

    _set_keys = False

    def __init__(self, pair: NamedPair, leaf: OmegaLeaf, max_positions: int | None = None):
        super().__init__(pair, leaf.term_depth, max_positions)
        self._prefix = len(leaf.omega.coords)
        # the family's moduli and compiled formulas recurse through its
        # terms, two frames a level of term depth
        self._leaf_frames = 40 + 2 * leaf.term_depth
        self._den *= lcm(*(Fraction(q).denominator for q in leaf.scale_factors))

        def family(k):
            # counted first: a family over the cap is refused before it is
            # built, with its count, a lower bound once the terms are held
            size = _family_size(pair.signature, k, leaf.term_depth, len(leaf.scale_factors),
                                self.cap)
            if size > self.cap:
                raise self._cap_error("family", f" at arity {k}, at least {size:,} candidates")
            return generate_basic_family(
                pair.signature, k, leaf.omega, leaf.term_depth, leaf.scale_factors)

        self._scorer = cache(lambda k: _gap_scorer(pair, family(k), k, self._den))

    def _score(self, key):
        return self._scorer(len(key))(tuple(a for a, _ in key), tuple(b for _, b in key))

    def _too_deep(self, rounds: int, frames: int = 0) -> ValueError:
        """The kernel's refusal, but naming the term depth when its frames
        alone take the search to the limit at 0 rounds."""
        if frames - 2 * self.term_depth < sys.getrecursionlimit() <= frames:
            return ValueError(f"term depth {self.term_depth} needs a recursion deeper than the "
                              f"interpreter's limit of {sys.getrecursionlimit()} frames; "
                              "use a smaller term depth")
        return super()._too_deep(rounds)


def r_alpha(
    pair: NamedPair,
    position: Position | None = None,
    alpha: int = 0,
    leaf: AtomicLeaf | OmegaLeaf | None = None,
    max_positions: int | None = None,
) -> Fraction:
    """Rank recursion value at a finite clock stage."""
    solver = rank_solver(pair, leaf or AtomicLeaf(), max_positions)
    key = solver._enter(position or Position(), alpha, name="alpha")
    with solver._guard(alpha):
        return solver._fraction(solver._value(key, alpha))


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
    round: the least spend s with V_{s+1} reaching the value, and the first
    best move of the scan ``_scan(key, s + 1, ...)`` and its first reply
    that keeps the value, which then stays the same along the line.  Along
    it V_{s+1} <= V_left = value, so each spend is tested in the null window
    (value - 1, value) of the integer values, and only the spend kept is
    scanned in full.
    """
    game = rank_solver(pair, leaf or AtomicLeaf(), max_positions)
    key = game._enter(start or Position(), clock, name="clock")
    line, left = [], clock
    with game._guard(clock):
        target = game._value(key, clock)
        while left > 0:
            spent = next(
                s for s in range(left) if game._value(key, s + 1, target - 1, target) >= target)
            side, element, reply, _ = game._scan(key, spent + 1)
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

    Positions are the kernel's sets of pairs, function symbols included,
    each holding the constants' pairs (c^L, c^R), so a constant's points
    count as covered from the start.  A spoiler move on a covered point is
    answered by a stay (repeating the played pair, or the constant's,
    forever) and imposes nothing; a move on an uncovered point forces the
    min over its replies.  So the value is

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

    The max over uncovered moves is the kernel's own: every value search on
    set keys scans only I's moves on uncovered points (``GameSolver``).
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
        return star_depth if idx == 0 else (idx - 1) // level_size

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
