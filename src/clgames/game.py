"""Exact solver for the finite-length approximate back-and-forth game.

Players alternate for a fixed number of rounds: the spoiler (I) picks an
element of either structure, the duplicator (II) answers in the other one.
II wins at precision eps when the played correspondence keeps every atomic
formula's value within eps across the two structures.

On finite structures the game value

    V_0(p)     = leaf discrepancy of the position
    V_{r+1}(p) = max( max_a min_b V_r(p + (a,b)),  max_b min_a V_r(p + (a,b)) )

is attained, so eps-queries reduce to one exact minimax quantity: II wins
the r-round game at precision eps iff V_r <= eps.  The solver produces
strategy certificates for both players and is the kernel of the rank
recursion in ``clgames.infinitary``.

It memoizes on sets of played pairs, function symbols included: the atoms
at a term depth over a position are closed under renaming its variables,
and a repeated pair adds no new term value, so the atomic leaf, and with it
every game value, depends only on the set of distinct played pairs.  Values
are integers over one common denominator inside the solver.  The search is
an exact fail-soft alpha-beta (Knuth & Moore 1975) whose memo entries are
(lower, upper) bounds (Marsland 1986).  The leaf only grows along play, so
V_r(p) >= leaf(p): a lower bound starts there, and a move whose replies
already reach the best value so far cannot be I's first best move.  Every
public method searches with the full window, so values, best moves and
certificates are those of the full scan.

On set keys a stay (II repeating a played pair) leaves the key as it is, so
the rounds clamp at the points a key leaves uncovered (V_r = V_u for r >= u),
and, when every atom mentions at most two played pairs, the last round is
one scan per position over every move, scoring each child from its
parent's leaf with no memo entry (``GameSolver`` has both rules).  The
strategy certificates share one node per (key, rounds), held in the
solver's ``certificate`` table under the same cap, and ``strategy_to_json``
writes each as a table of those nodes.

With function symbols the leaf check ranges over atoms up to a stated term
depth and the value is labelled depth-truncated.
"""

from __future__ import annotations

import json
import os
import sys
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm

from .formulas import compile_formula, enumerate_atomic, is_delta_formula
from .moduli import PwlModulus
from .rationals import format_rat, rat_to_json
from .structures import IntegerForm, NamedPair

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

# the full window of the alpha-beta search
_LOW, _HIGH = float("-inf"), float("inf")

_ENV_CAP = "CLGAMES_MAX_POSITIONS"
DEFAULT_MAX_POSITIONS = 500_000


def default_position_cap() -> int:
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_POSITIONS
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{_ENV_CAP} must be at least 1, got {cap}")
    return cap


@contextmanager
def rounds_within_stack(rounds: int):
    """Turn a search too deep for the interpreter's recursion limit into a
    ValueError: the minimax recursion is as deep as the rounds."""
    try:
        yield
    except RecursionError:
        raise ValueError(
            f"{rounds} rounds need a recursion deeper than the interpreter's limit "
            f"of {sys.getrecursionlimit()} frames; use fewer rounds"
        ) from None


class ResourceCapError(RuntimeError):
    """A solve that would outgrow the position cap.  ``table`` names the memo
    table whose new entry reached the cap; ``entries`` maps each memo table
    to the entries it held."""

    def __init__(self, cap: int, table: str, entries: dict):
        held = ", ".join(f"{name} {count}" for name, count in entries.items())
        super().__init__(
            f"position table would exceed the cap of {cap} entries; "
            f"reached by the {table} table (entries held: {held}); "
            f"raise --max-positions (or {_ENV_CAP}) or shrink the instance"
        )
        self.cap = cap
        self.table = table
        self.entries = entries


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

    Positions are keyed by the sorted tuple of distinct played pairs, and
    the minimax recurses over these keys.  The pair is compiled once into
    integer tables, the sides' ``integer_form`` over their common
    denominator; a key's terms are its pairs and the constants, closed
    ``term_depth`` times under the function tables.  An atom mentions at
    most w = max(2, largest predicate arity) * max(1, largest function
    arity)^term_depth played pairs, so a key of at most w pairs is scored
    directly, over the same atoms as ``enumerate_atomic``, and a longer key
    is the max over its w-pair subsets.  Memos hold integers; the public
    methods return ``Fraction``s.

    The public methods check their inputs: the rounds must be non-negative
    (at least 1 for ``best_move`` and ``best_reply``) and every played point
    in range, and a search deeper than the interpreter's recursion limit
    ends in a one-line ``ValueError``.

    The minimax is a fail-soft alpha-beta: ``_value``, ``_scan`` and
    ``_reply`` take a window (alpha, beta).  A value entry is a (lower,
    upper) pair, lower starting at leaf(p); a search returns at once when
    the entry is exact or outside the window, and otherwise tightens the
    entry in place.  The replies to a move stop at the first
    one no greater than the best value so far, or than leaf(p) or alpha
    before any move is scored, and the moves stop once the best reaches
    beta.  Replies are tried in canonical order, so the full window, which
    every public method uses, gives the first best move and reply.  Every
    memo entry, including the certificates' nodes (the ``certificate``
    table, made by the first certificate built), goes through ``memoize``
    and is charged to one position cap, once: a tightened entry is not
    charged again.

    Two shortcuts rest on the keys being sets, so that a stay (II repeating
    a played pair) leaves the key as it is; ``_OmegaLeafSolver``, whose keys
    are in play order, opts out of both through ``_set_keys``:

    * The rounds clamp at u(key), the points on both sides the key leaves
      uncovered: V_r(S) = V_u(S) for r >= u(S), by the lemma in
      ``infinitary.omega_game_value_atomic``'s docstring, which needs only
      the stay and a leaf that grows along play, so function symbols
      included.
    * At width 2 the last round is one pass per key over the moves asked
      for (``_last_ply``, under ``_scan`` and ``_reply``), which scores the
      children without keys or memo entries: the leaf of S + {p} is the
      max of leaf(S), leaf({p}) (a table filled once per solver, constants
      included) and the atoms on p and one pair q of S, which are d(p, q)
      and each binary predicate in both argument orders, read off the
      integer tables.  Wider keys (ternary predicates) and function terms
      at a positive term depth, which couple pairs through the closure,
      keep the memoized path.
    """

    _set_keys = True

    def __init__(self, pair: NamedPair, term_depth: int = 0, max_positions: int | None = None):
        if term_depth < 0:
            raise ValueError(f"term depth must be non-negative, got {term_depth}")
        self.pair = pair
        self.term_depth = term_depth
        if max_positions is None:
            max_positions = default_position_cap()
        elif max_positions < 1:
            raise ValueError(f"the position cap must be at least 1, got {max_positions}")
        self.cap = max_positions
        # an atom mentions at most this many played pairs; no key holds more than |L| * |R|
        n_left, n_right = pair.left.size, pair.right.size
        sig, depth = pair.signature, min(term_depth, n_left * n_right)
        arities = [f.arity for f in sig.functions]
        self._width = max([2] + [p.arity for p in sig.predicates]) * max([1] + arities) ** depth
        self._points = n_left + n_right
        self._moves = [("L", a) for a in range(n_left)] + [("R", b) for b in range(n_right)]
        self._replies = {"L": range(n_right), "R": range(n_left)}
        self._entries = 0
        self._tables: dict = {}
        self._leaf = self.memo_table("leaf")
        self._values = self.memo_table("value")
        self._compile()
        self._pairwise = self._set_keys and self._width == 2 and not (self._funcs and depth)
        self._ply: dict | None = None

    def _compile(self):
        """Integer distance and predicate tables of both sides over one
        common denominator ``_den``, the function tables and the constants'
        point pairs."""
        sig, sides = self.pair.signature, (self.pair.left, self.pair.right)
        self._den = den = lcm(*(s.integer_form.den for s in sides))
        left, right = (
            s.integer_form if s.integer_form.den == den else IntegerForm.of(s, den) for s in sides
        )
        self._dist = [left.dist, right.dist]
        self._preds = [
            (p.arity, left.predicates[p.name], right.predicates[p.name]) for p in sig.predicates
        ]
        self._funcs = [
            (f.arity, *(s.function_tables[f.name] for s in sides)) for f in sig.functions
        ]
        self._constants = tuple(tuple(s.constant_map[c] for s in sides) for c in sig.constants)

    def _fraction(self, v) -> Fraction:
        """A memoized integer as a Fraction over the common denominator."""
        return Fraction(v, self._den)

    def _key(self, position: Position):
        """The memo key: the sorted distinct played pairs."""
        return tuple(sorted(set(zip(position.left, position.right))))

    def _enter(self, position: Position, rounds: int = 0, least: int = 0, name: str = "rounds"):
        """The key of a public method's start, after checking that the rounds
        (``name``) are at least ``least`` and that every played point is in
        range."""
        if rounds < least:
            need = f"at least {least}" if least else "non-negative"
            raise ValueError(f"{name} must be {need}, got {rounds}")
        position.check_against(self.pair)
        return self._key(position)

    def _child(self, key, side: str, element: int, reply: int):
        """The key after the spoiler plays ``element`` on ``side`` and the
        duplicator ``reply`` on the other side."""
        pair = (element, reply) if side == "L" else (reply, element)
        i = bisect_left(key, pair)
        if i < len(key) and key[i] == pair:
            return key
        return key[:i] + (pair,) + key[i:]

    def memo_table(self, name: str) -> dict:
        """A new empty memo table, filled through ``memoize`` under ``name``."""
        table = self._tables[name] = {}
        return table

    def memoize(self, table: str, key, value):
        """Store ``key -> value`` in the named memo table, charging the entry
        to the cap."""
        if self._entries >= self.cap:
            entries = {name: len(memo) for name, memo in self._tables.items()}
            raise ResourceCapError(self.cap, table, entries)
        self._entries += 1
        self._tables[table][key] = value
        return value

    def leaf(self, position: Position) -> Fraction:
        """Largest atomic value gap at the position: the least eps making it
        a partial eps-isomorphism."""
        return self._fraction(self._leaf_at(self._enter(position)))

    def _leaf_at(self, key):
        if key in self._leaf:
            return self._leaf[key]
        if len(key) > self._width:
            # every atom lies within some width-pair subset of the position
            best = max(self._leaf_at(sub) for sub in combinations(key, self._width))
        else:
            best = self._score(key)
        return self.memoize("leaf", key, best)

    def _score(self, key) -> int:
        """Largest integer gap over the atoms of a set key: d(t, u) for
        distinct terms and P over all term tuples, the terms being the pairs
        and the constants closed ``term_depth`` times under the functions."""
        terms = key + self._constants
        for _ in range(self.term_depth if self._funcs else 0):
            new = {
                (table_l[tuple(a for a, _ in args)], table_r[tuple(b for _, b in args)])
                for arity, table_l, table_r in self._funcs
                for args in product(terms, repeat=arity)
            }.difference(terms)
            if not new:
                break
            terms += tuple(new)
        lefts = [a for a, _ in terms]
        rights = [b for _, b in terms]
        dist_l, dist_r = self._dist
        best = 0
        for i in range(len(terms)):
            row_l, row_r = dist_l[lefts[i]], dist_r[rights[i]]
            for j in range(i + 1, len(terms)):
                gap = abs(row_l[lefts[j]] - row_r[rights[j]])
                if gap > best:
                    best = gap
        for arity, table_l, table_r in self._preds:
            for xs, ys in zip(product(lefts, repeat=arity), product(rights, repeat=arity)):
                gap = abs(table_l[xs] - table_r[ys])
                if gap > best:
                    best = gap
        return best

    def _ply_tables(self) -> dict:
        """Per spoiler side: leaf({p}) by (element, reply), the side's
        coordinate in a pair, and the (played side, reply side) matrices
        whose entries at (element, q) and (q, reply) are the two sides of
        an atom on p and q: the distances, and each binary predicate with p
        first and with p second."""
        n_left, n_right = self.pair.left.size, self.pair.right.size
        single = [[self._score(((a, b),)) for b in range(n_right)] for a in range(n_left)]
        dist_l, dist_r = self._dist
        mats_l, mats_r = [(dist_l, dist_r)], [(dist_r, dist_l)]
        for arity, table_l, table_r in self._preds:
            if arity == 2:
                rows_l = [[table_l[x, y] for y in range(n_left)] for x in range(n_left)]
                rows_r = [[table_r[x, y] for y in range(n_right)] for x in range(n_right)]
                cols_l, cols_r = [list(c) for c in zip(*rows_l)], [list(c) for c in zip(*rows_r)]
                mats_l += [(rows_l, cols_r), (cols_l, rows_r)]
                mats_r += [(rows_r, cols_l), (cols_r, rows_l)]
        return {"L": (single, 0, mats_l), "R": ([list(c) for c in zip(*single)], 1, mats_r)}

    def _last_ply(self, key, moves, alpha=_LOW, beta=_HIGH, replies=None):
        """``_scan`` at one round left, at width 2, over ``moves``: the first
        best move, its reply and value as (side, element, reply, value).
        Each child's leaf is scored from the key's, with no key and no memo
        entry; the key's half of each pair gap is built once per side.  Given
        a ``replies`` dict, it maps every move to its first best reply and
        that reply's value instead, and the result is None."""
        if self._ply is None:
            self._ply = self._ply_tables()
        base = self._leaf_at(key)
        bound = base if base > alpha else alpha
        best, seen = None, None
        for side, element in moves:
            if side != seen:
                seen = side
                single, mine, mats = self._ply[side]
                # per atom on p and a pair q of the key: the played side's
                # matrix, q's coordinate in it and the reply side's column
                halves = [
                    (played, q[mine], other[q[1 - mine]]) for played, other in mats for q in key
                ]
            fixed = [(played[element][c], col) for played, c, col in halves]
            best_reply, worst = None, None
            for reply, v in enumerate(single[element]):
                if v < base:
                    v = base
                for x, col in fixed:
                    gap = x - col[reply]
                    if gap < 0:
                        gap = -gap
                    if gap > v:
                        v = gap
                if worst is None or v < worst:
                    best_reply, worst = reply, v
                    if v <= bound:
                        break
            if replies is not None:
                replies[side, element] = best_reply, worst
            elif best is None or worst > best[3]:
                best = (side, element, best_reply, worst)
                if worst >= beta:
                    break
                if worst > bound:
                    bound = worst
        return best

    def child(self, position: Position, side: str, element: int, reply: int) -> Position:
        if side == "L":
            return position.extended(element, reply)
        return position.extended(reply, element)

    def value(self, position: Position, rounds: int) -> Fraction:
        key = self._enter(position, rounds)
        with rounds_within_stack(rounds):
            return self._fraction(self._value(key, rounds))

    def _value(self, key, rounds: int, alpha=_LOW, beta=_HIGH):
        """V_rounds(key), fail-soft in the window (alpha, beta): a result
        g <= alpha bounds the value from above, g >= beta from below, and
        any g in between is the value.  The memo holds (lower, upper)
        bounds, lower starting at leaf(key)."""
        # u(key) >= points - 2 |key|, so most calls skip counting it
        if self._set_keys and rounds > self._points - 2 * len(key):
            uncovered = self._points - len({a for a, _ in key}) - len({b for _, b in key})
            rounds = min(rounds, uncovered)
        if rounds == 0:
            return self._leaf_at(key)
        memo_key = (key, rounds)
        entry = self._values.get(memo_key)
        lower, upper = entry or (self._leaf_at(key), _HIGH)
        if lower == upper or lower >= beta:
            return lower
        if upper <= alpha:
            return upper
        g = self._scan(key, rounds, alpha, beta)[2]
        if g <= alpha:
            upper = g
        elif g >= beta:
            lower = g
        else:
            lower = upper = g
        if entry is None:
            self.memoize("value", memo_key, (lower, upper))
        else:
            # a tightened entry is the same entry: nothing new to charge
            self._values[memo_key] = (lower, upper)
        return g

    def best_move(self, position: Position, rounds: int):
        """I's value-maximizing move as (side, element, value), first in
        canonical order on ties."""
        key = self._enter(position, rounds, least=1)
        with rounds_within_stack(rounds):
            side, element, worst = self._scan(key, rounds)
        return side, element, self._fraction(worst)

    def _scan(self, key, rounds: int, alpha=_LOW, beta=_HIGH):
        # a move's replies stop at the first one at most ``bound``, the best
        # so far (before the first move, the larger of alpha and leaf(p),
        # below which no child value lies): such a move cannot beat it; the
        # moves stop once the best reaches beta
        if rounds == 1 and self._pairwise:
            side, element, _, worst = self._last_ply(key, self._moves, alpha, beta)
            return side, element, worst
        leaf = self._leaf_at(key)
        bound = leaf if leaf > alpha else alpha
        best = None
        for side, element in self._moves:
            _, worst = self._reply(key, side, element, rounds, bound, beta)
            if best is None or worst > best[2]:
                best = (side, element, worst)
                if worst >= beta:
                    break
                if worst > bound:
                    bound = worst
        return best

    def best_reply(self, position: Position, side: str, element: int, rounds_left: int):
        """II's value-minimizing reply (first in canonical order on ties)."""
        key = self._enter(position, rounds_left, least=1)
        with rounds_within_stack(rounds_left):
            reply, worst = self._reply(key, side, element, rounds_left)
        return reply, self._fraction(worst)

    def _reply(self, key, side: str, element: int, rounds: int, bound=_LOW, beta=_HIGH):
        """II's first value-minimizing reply and its value, or the first reply
        whose value is at most ``bound``; fail-soft in (bound, beta) like
        ``_value``."""
        if rounds == 1 and self._pairwise:
            # a bound below the leaf acts as the leaf: no child's leaf is lower
            return self._last_ply(key, ((side, element),), bound, beta)[2:]
        best_reply, best_val, top = None, None, beta
        for reply in self._replies[side]:
            v = self._value(self._child(key, side, element, reply), rounds - 1, bound, top)
            if best_val is None or v < best_val:
                best_reply, best_val = reply, v
                if v <= bound:
                    break
                if v < top:
                    top = v
        return best_reply, best_val

    def ii_strategy_tree(self, position: Position, rounds: int) -> IIStrategyNode | None:
        """II's optimal replies to every spoiler move, as a DAG with one node
        per (key, rounds)."""
        return self._certificate(self._ii_node, position, rounds)

    def i_witness_tree(self, position: Position, rounds: int) -> IWitnessNode | None:
        """I's first best move and a continuation for every reply, as a DAG
        with one node per (key, rounds)."""
        return self._certificate(self._i_node, position, rounds)

    def _certificate(self, node, position: Position, rounds: int):
        """The root ``node(key, rounds)`` of a certificate.  Its nodes are
        memoized in the ``certificate`` table, made on first use, so the cap
        bounds the certificates as they are built."""
        key = self._enter(position, rounds)
        if "certificate" not in self._tables:
            self.memo_table("certificate")
        with rounds_within_stack(rounds):
            return node(key, rounds)

    def _ii_node(self, key, rounds: int) -> IIStrategyNode | None:
        if rounds == 0:
            return None
        node = self._tables["certificate"].get(("II", key, rounds))
        if node is None:
            if rounds == 1 and self._pairwise:
                # every move's reply in one pass; the children are leaves
                replies = {}
                self._last_ply(key, self._moves, replies=replies)
                responses = {move: (reply, None) for move, (reply, _) in replies.items()}
            else:
                responses = {}
                for side, element in self._moves:
                    reply, _ = self._reply(key, side, element, rounds)
                    child = self._child(key, side, element, reply)
                    responses[side, element] = (reply, self._ii_node(child, rounds - 1))
            node = self.memoize("certificate", ("II", key, rounds), IIStrategyNode(responses))
        return node

    def _i_node(self, key, rounds: int) -> IWitnessNode | None:
        if rounds == 0:
            return None
        node = self._tables["certificate"].get(("I", key, rounds))
        if node is None:
            side, element, _ = self._scan(key, rounds)
            continuations = {
                reply: self._i_node(self._child(key, side, element, reply), rounds - 1)
                for reply in self._replies[side]
            }
            node = IWitnessNode(side, element, continuations)
            self.memoize("certificate", ("I", key, rounds), node)
        return node


def _gap_scorer(pair: NamedPair, formulas, arity: int, den: int):
    """The function of the left and right points for x0..x{arity-1} giving
    ``den`` times the largest |left value - right value| over the formulas, 0
    for none; each is compiled once per side and scaled by den // N."""
    terms = []
    for phi in formulas:
        (run_l, n_l), (run_r, n_r) = (
            compile_formula(phi, side, range(arity)) for side in (pair.left, pair.right))
        if den % n_l or den % n_r:
            raise ValueError(f"a formula's denominator {n_l} or {n_r} does not divide {den}")
        terms.append((run_l, den // n_l, run_r, den // n_r))
    return lambda left, right: max(
        [abs(k * f(left) - m * g(right)) for f, k, g, m in terms], default=0)


def atomic_discrepancy(pair: NamedPair, position: Position, term_depth: int = 0) -> Fraction:
    """Max over atomic formulas of the value gap at the position: the least
    eps making the played map a partial eps-isomorphism (at this term depth)."""
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
    sig, k = pair.signature, len(position)
    atoms = [a for a in enumerate_atomic(sig, k, term_depth) if is_delta_formula(a, sig, delta)]
    den = lcm(pair.left.integer_form.den, pair.right.integer_form.den)
    return _gap_scorer(pair, atoms, k, den)(position.left, position.right) <= epsilon * den


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
    start = start or Position()
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

    Returns ("II", tree) or ("I", tree); only the returned tree is built.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    start = start or Position()
    solver = GameSolver(pair, term_depth, max_positions)
    if solver.value(start, rounds) <= epsilon:
        return "II", solver.ii_strategy_tree(start, rounds)
    return "I", solver.i_witness_tree(start, rounds)


def strategy_to_json(result: GameValueResult, path) -> None:
    """Write ``result``'s value and both certificates to ``path`` as one
    line of ``json.dumps({"value", "ii_strategy", "i_witness"})`` and a
    newline.  A certificate is the list of its DAG's nodes in depth-first
    pre-order, node 0 the root (``null`` for a 0-round game): a duplicator
    node maps each spoiler move "side:element" to its ``reply`` and the
    ``next`` node's index, a spoiler node holds its ``move`` and the node
    index of each reply's continuation, ``null`` after the last round.  The
    nodes were charged to the solve's cap as they were built, so the file
    is bounded by the cap too."""
    blob = {
        "value": rat_to_json(result.value),
        "ii_strategy": _node_table(result.ii_strategy),
        "i_witness": _node_table(result.i_witness),
    }
    text = json.dumps(blob) + "\n"
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _node_table(root) -> list | None:
    """A certificate DAG's nodes as JSON objects in depth-first pre-order,
    each child replaced by its index."""
    if root is None:
        return None
    index, table = {}, []

    def visit(node):
        if node is None:
            return None
        if id(node) in index:
            return index[id(node)]
        i = index[id(node)] = len(table)
        table.append(None)  # filled once the children have their indices
        if isinstance(node, IIStrategyNode):
            table[i] = {"kind": "duplicator", "responses": {
                f"{side}:{element}": {"reply": reply, "next": visit(child)}
                for (side, element), (reply, child) in sorted(node.responses.items())
            }}
        elif isinstance(node, IWitnessNode):
            table[i] = {"kind": "spoiler", "move": f"{node.side}:{node.element}", "continuations": {
                str(reply): visit(child) for reply, child in sorted(node.continuations.items())
            }}
        else:
            raise TypeError(f"not a strategy node: {node!r}")
        return i

    visit(root)
    return table


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
    # the rounds and the start are checked before the first line is printed
    solver._enter(position, rounds)
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
