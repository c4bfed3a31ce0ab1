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
every game value, depends only on the set of distinct played pairs.  A
constant c is a pair (c^L, c^R) that every position starts with: the game
from a position is the game on the two expansions that name its points by
constants (``structures.expand_with_constants``), and playing a constant's
pair adds no term, so every key starts at the constants' pairs.  The
same key rule, with an ordered prefix and repeats kept, serves the
coordinate-indexed omega leaf of ``clgames.infinitary``.  Values
are integers over one common denominator inside the solver.  The search is
an exact fail-soft alpha-beta (Knuth & Moore 1975) whose memo entries are
(lower, upper) bounds (Marsland 1986).  The leaf only grows along play, so
V_r(p) >= leaf(p): a lower bound starts there, and a move whose replies
already reach the best value so far cannot be I's first best move.  Every
public method searches with the full window, so values, best moves and
certificates are those of the full scan.  Every scan tries I's moves in
canonical order.  Value searches try II's replies to a move from the one
that last refuted it, a history heuristic (Schaeffer 1989); the scans that
name a move try them in canonical order.

On set keys a stay (II repeating a played pair, or answering c^L by c^R)
leaves the key as it is, so the rounds clamp at the points a key leaves
uncovered, the constants' points counted as covered (V_r = V_u for r >= u),
a value search scans only I's moves on uncovered points (the spoiler gains
nothing by replaying a point, as in the classical Ehrenfeucht-Fraisse
game), and, when every atom mentions at most two played pairs, every
child's leaf is scored from its parent's, with no memo entry
(``GameSolver`` has the three rules).  The strategy certificates share one
node per (key, rounds), held in the solver's ``certificate`` table under
the same cap, and ``strategy_to_json`` writes each as a table of those
nodes.

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
from functools import cached_property
from itertools import combinations, product
from math import lcm

from .formulas import enumerate_atomic, evaluate, is_delta_formula
from .moduli import PwlModulus
from .rationals import format_rat, rat_to_json
from .structures import NamedPair, _is_point

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


class ResourceCapError(RuntimeError):
    """A solve that would outgrow the position cap.  ``table`` names the memo
    table whose new entry reached the cap, or ``family`` for an omega-leaf
    family with more candidates than the cap, which ``detail`` then counts;
    ``entries`` maps each memo table to the entries it held."""

    def __init__(self, cap: int, table: str, entries: dict, detail: str = ""):
        held = ", ".join(f"{name} {count}" for name, count in entries.items())
        super().__init__(
            f"position table would exceed the cap of {cap} entries; "
            f"reached by the {table} table{detail} (entries held: {held}); "
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
            if not _is_point(i, pair.left.size):
                raise ValueError(f"left point index {i!r} out of range")
        for i in self.right:
            if not _is_point(i, pair.right.size):
                raise ValueError(f"right point index {i!r} out of range")


@dataclass(frozen=True)
class IIStrategyNode:
    """Optimal duplicator responses: for every spoiler move (side, element)
    the reply and the continuation."""

    responses: dict


@dataclass(frozen=True)
class IWitnessNode:
    """A forcing spoiler strategy: the move to make now, a continuation for
    every duplicator reply, and the game value here, which the move forces."""

    side: str
    element: int
    continuations: dict
    value: Fraction


@dataclass(frozen=True)
class GameValueResult:
    value: Fraction
    rounds: int
    term_depth: int
    ii_strategy: IIStrategyNode | None = None
    i_witness: IWitnessNode | None = None


class GameSolver:
    """Backward-induction solver for one structure pair.

    Positions are keyed by one rule, in ``_child``: the first ``_prefix``
    played pairs in play order, then the rest sorted, as a set on set keys
    (``_set_keys``) and as a multiset otherwise.  Here the prefix is empty,
    and a key is the sorted tuple of distinct pairs that starts, in
    ``_key``, at ``_start``, the constants' pairs (c^L, c^R), and grows by
    the played pairs; the minimax recurses over these keys.  This is exact:
    a constant's pair is a term of every position, so a key's terms, at
    every term depth, are those of its played pairs and the constants, and
    playing a constant's pair adds none; every leaf, and so every value, is
    the same as with the constants held apart.  The pair is compiled once
    into integer tables, the sides' ``integer_form`` over their common
    denominator; a key's terms are its pairs, closed ``term_depth`` times
    under the function tables.  An atom mentions at most w = max(2, largest
    predicate arity) * max(1, largest function arity)^term_depth of a key's
    pairs, so ``_score`` scores a key of at most w pairs directly, over the
    same atoms as ``enumerate_atomic``, and a longer key as the max over its
    w-pair subsets.  Memos hold integers; the public methods return
    ``Fraction``s.

    The public methods check their inputs in ``_enter``: the rounds must be
    non-negative (at least 1 for ``best_move`` and ``best_reply``) and every
    played point in range, and a search deeper than the interpreter's
    recursion limit is refused before the search starts, each in a
    one-line ``ValueError``.  A search the rule admits runs in ``_guard``,
    which ends in the same line a ``RecursionError`` that the search still
    meets: Python 3.10 and 3.11 also count the caller's C-level calls
    against the limit, and the rule sees frames only.

    The minimax is a fail-soft alpha-beta in two functions that take a
    window (alpha, beta): ``_value`` looks a key up and ``_scan`` holds the
    one loop over I's moves and II's replies.  A value entry is a (lower,
    upper) pair, lower starting at leaf(p); a search returns at once when
    the entry is exact or outside the window, and otherwise tightens the
    entry in place.  The replies to a move stop at the first
    one no greater than the best value so far, or than leaf(p) or alpha
    before any move is scored, and the moves stop once the best reaches
    beta.  The scans that name a move (``best_move``, ``best_reply``, the
    certificates and ``dynamic_game_value``'s line) try moves and replies
    in canonical order, so the full window, which they use, gives the first
    best move and reply.

    A value search (the scan ``_value`` starts, the one with
    ``value_search`` on) also tries I's moves in canonical order, but orders
    II's replies by the solver's history.  Per side, each move keeps the
    reply that last refuted it, the reply at which its reply loop last
    stopped at or below the bound, and its replies start there and wrap
    around.  The orders are the rotations of ``_replies``, all built with
    the solver, so a move costs two list indexings.  Alpha-beta is exact
    under any order, so every value is the same; the history carries over
    from one public call to the next, the searches below a certificate
    included, and no option turns it off.  A scan that names a move only
    compares each child's fail-soft result with its window, and which side
    of the window a result falls on depends on the child's value alone, so
    the order of the searches below a certificate changes its table, not
    its choices.  ``game_value`` reads the value off the root scan of I's
    certificate, which is exact, and searches it only without certificates.

    Every memo entry, including the certificates' nodes (the ``certificate``
    table, made by the first certificate built), goes through ``memoize``
    and is charged to one position cap, once: a tightened entry is not
    charged again.

    Three shortcuts rest on the keys being sets, so that a stay (II
    repeating a played pair) leaves the key as it is.  A constant's pair is
    in every key, so a move on c^L answered by c^R is a stay too, and the
    shortcuts count the constants' points as covered.  ``_OmegaLeafSolver``,
    whose keys keep an ordered prefix and repeated pairs and start empty,
    its family scoring the constants as terms, opts out of all three
    through ``_set_keys``:

    * The rounds clamp at u(key), the points on both sides the key leaves
      uncovered: V_r(S) = V_u(S) for r >= u(S), by the lemma in
      ``infinitary.omega_game_value_atomic``'s docstring, which needs only
      the stay and a leaf that grows along play, so function symbols
      included.
    * ``_value``'s scan, at r >= 1 rounds and so, after the clamp, u(S) >=
      1, skips I's moves on covered points: V_r(S) = W_r(S), the max over
      the moves on uncovered points only.  A covered move is answered by
      its stay, whose child is S, so it is worth at most V_{r-1}(S); and
      V_{r-1}(S) <= W_r(S) by induction on r: V_0(S) = leaf(S) <= W_1(S),
      as every child's leaf is at least leaf(S), and V_{r-1}(S) <=
      max(W_{r-1}(S), V_{r-2}(S)) <= W_r(S), as V and W grow with the
      rounds.  The same two facts as the clamp's, so function symbols
      included.  The covered set of each side is built where the scan
      switches sides, so a move costs one membership test.  The scans that
      name a move (``best_move``, ``best_reply``, the certificates and
      ``dynamic_game_value``'s line) keep every move: on ties a covered
      move can be the first best one, as on identical sides.
    * At width 2 ``_scan`` scores every child's leaf from its parent's,
      with no memo entry: the leaf of S + {p} is the max of leaf(S),
      leaf({p}) and the atoms on p and one pair q of S, which are d(p, q)
      and each binary predicate in both argument orders, read off the
      integer tables.  leaf({p}), a table filled once per solver, holds the
      atoms on p alone, P(p) and P(p, p).  The constants need no rows of
      their own: their pairs are pairs q of S, and leaf(S) already holds
      their own atoms.  At one round left the child's leaf is its value;
      otherwise it starts the child's search, so a value solve memoizes the
      start's leaf only.  Wider keys
      (ternary predicates) and function terms at a positive term depth,
      which couple pairs through the closure, keep the memoized
      ``_leaf_at``.
    """

    _set_keys = True
    _prefix = 0
    # frames a search takes beyond its two a round: the leaf's scoring, the
    # result's conversion, and the C-level calls, in the search and below
    # its caller, that Python 3.10 and 3.11 count against the limit though
    # they are no frames (a test runner's stack holds several)
    _leaf_frames = 24

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
        # an atom mentions at most this many of a key's pairs, the constants'
        # included; no key holds more than |L| * |R|
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
        # the value searches' reply order (``_scan``): per spoiler side, the
        # rotations of its n replies, by the reply they start at, and, per
        # move, the reply that last refuted it (the canonical first to start with)
        self._orders = {
            side: ([(*range(s, n), *range(s)) for s in range(n)], [0] * moves)
            for side, moves, n in (("L", n_left, n_right), ("R", n_right, n_left))
        }

    def _compile(self):
        """Integer distance and predicate tables of both sides over one
        common denominator ``_den``, the function tables and ``_start``, the
        key every position starts at."""
        sig, sides = self.pair.signature, (self.pair.left, self.pair.right)
        self._den = den = lcm(*(s.integer_form.den for s in sides))
        left, right = (s.integer_form.over(den) for s in sides)
        self._dist = [left.dist, right.dist]
        self._preds = [
            (p.arity, left.predicates[p.name], right.predicates[p.name]) for p in sig.predicates
        ]
        self._funcs = [
            (f.arity, *(s.function_tables[f.name] for s in sides)) for f in sig.functions
        ]
        # on set keys the constants' pairs (c^L, c^R), sorted for ``_child`` to bisect
        pairs = {tuple(s.constant_map[c] for s in sides) for c in sig.constants}
        self._start = tuple(sorted(pairs)) if self._set_keys else ()

    def _fraction(self, v) -> Fraction:
        """A memoized integer as a Fraction over the common denominator."""
        return Fraction(v, self._den)

    def _key(self, position: Position):
        """The memo key: the position's pairs added in play order by ``_child``
        to ``_start``."""
        key = self._start
        for pair in zip(position.left, position.right):
            key = self._child(key, "L", *pair)
        return key

    def _enter(self, position: Position, rounds: int = 0, least: int = 0, name: str = "rounds",
               clamp: bool = True):
        """The key of a public method's start, after checking that the rounds
        (``name``) are at least ``least``, that every played point is in
        range and that the search fits the interpreter's recursion limit.

        The search takes two frames a round (``_value`` and ``_scan``) for
        the rounds, clamped at u(key) on set keys unless ``clamp`` is off
        (the certificates span every round), and ``_leaf_frames`` more; it
        is refused before it starts if that and the caller's frames reach
        the limit."""
        if rounds < least:
            need = f"at least {least}" if least else "non-negative"
            raise ValueError(f"{name} must be {need}, got {rounds}")
        position.check_against(self.pair)
        key = self._key(position)
        depth = min(rounds, self._uncovered(key)) if clamp and self._set_keys else rounds
        frame, frames = sys._getframe(1), self._leaf_frames
        while frame is not None:
            frame, frames = frame.f_back, frames + 1
        if frames + 2 * depth >= sys.getrecursionlimit():
            raise self._too_deep(rounds, frames)
        return key

    def _too_deep(self, rounds: int, frames: int = 0) -> ValueError:
        """The refusal of a search too deep for the recursion limit, which
        takes ``frames`` frames before its rounds."""
        return ValueError(f"{rounds} rounds need a recursion deeper than the interpreter's "
                          f"limit of {sys.getrecursionlimit()} frames; use fewer rounds")

    @contextmanager
    def _guard(self, rounds: int):
        """Runs the search of a public call that ``_enter`` admitted, and
        ends a ``RecursionError`` raised in it as ``_enter``'s refusal.  The
        frame walk sees Python frames only, while Python 3.10 and 3.11 also
        count C-level calls (a class's ``__call__``, say) against the limit,
        so a caller deep in such calls can still overflow.  Every memo entry
        is made by a finished search, and the history only orders replies,
        so the solver answers later calls as before."""
        try:
            yield
        except RecursionError:
            raise self._too_deep(rounds) from None

    def _uncovered(self, key) -> int:
        """u(key): the points on both sides that the key leaves uncovered."""
        return self._points - len({a for a, _ in key}) - len({b for _, b in key})

    def _child(self, key, side: str, element: int, reply: int):
        """The key after the spoiler plays ``element`` on ``side`` and the
        duplicator ``reply`` on the other side.  The first ``_prefix`` pairs
        stay in play order (bisecting from past the end appends); the pair
        goes into the sorted rest, where a repeat is dropped on set keys."""
        pair = (element, reply) if side == "L" else (reply, element)
        i = bisect_left(key, pair, self._prefix)
        if self._set_keys and i < len(key) and key[i] == pair:
            return key
        return key[:i] + (pair,) + key[i:]

    def memo_table(self, name: str) -> dict:
        """The memo table filled through ``memoize`` under ``name``, made
        empty on first use."""
        return self._tables.setdefault(name, {})

    def memoize(self, table: str, key, value):
        """Store ``key -> value`` in the named memo table, charging the entry
        to the cap."""
        if self._entries >= self.cap:
            raise self._cap_error(table)
        self._entries += 1
        self._tables[table][key] = value
        return value

    def _cap_error(self, table: str, detail: str = "") -> ResourceCapError:
        """The refusal of ``table``, with the entries each memo table holds."""
        held = {name: len(memo) for name, memo in self._tables.items()}
        return ResourceCapError(self.cap, table, held, detail)

    def leaf(self, position: Position) -> Fraction:
        """Largest atomic value gap at the position: the least eps making it
        a partial eps-isomorphism."""
        return self._fraction(self._leaf_at(self._enter(position)))

    def _leaf_at(self, key):
        if key in self._leaf:
            return self._leaf[key]
        return self.memoize("leaf", key, self._score(key))

    def _score(self, key) -> int:
        """Largest integer gap over the atoms of a set key: d(t, u) for
        distinct terms and P over all term tuples, the terms being the key's
        pairs, the constants' among them, closed ``term_depth`` times under
        the functions.  A key of more than w pairs is the max of its w-pair
        subsets' memoized leaves."""
        if len(key) > self._width:
            # every atom lies within some width-pair subset of the position
            return max(self._leaf_at(sub) for sub in combinations(key, self._width))
        terms = key
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
        """Per spoiler side: leaf({p}) by (element, reply), the gaps of the
        atoms on p alone, P(p) and P(p, p), and the (played side, reply
        side) matrices whose entries at (element, q) and (q, reply) are the
        two sides of an atom on p and q: the distances, and each binary
        predicate with p first and with p second.  The constants' atoms are
        in no row: a constant's pair is a pair q of every key."""
        n_left, n_right = self.pair.left.size, self.pair.right.size
        dist_l, dist_r = self._dist
        single = [[0] * n_right for _ in range(n_left)]
        for arity, table_l, table_r in self._preds:
            right = [table_r[(b,) * arity] for b in range(n_right)]
            for a, row in enumerate(single):
                left = table_l[(a,) * arity]
                single[a] = [max(v, abs(left - r)) for v, r in zip(row, right)]
        mats_l, mats_r = [(dist_l, dist_r)], [(dist_r, dist_l)]
        for arity, table_l, table_r in self._preds:
            if arity == 2:
                rows_l = [[table_l[x, y] for y in range(n_left)] for x in range(n_left)]
                rows_r = [[table_r[x, y] for y in range(n_right)] for x in range(n_right)]
                cols_l, cols_r = [list(c) for c in zip(*rows_l)], [list(c) for c in zip(*rows_r)]
                mats_l += [(rows_l, cols_r), (cols_l, rows_r)]
                mats_r += [(rows_r, cols_l), (cols_r, rows_l)]
        return {"L": (single, mats_l), "R": ([list(c) for c in zip(*single)], mats_r)}

    _ply = cached_property(_ply_tables)

    def child(self, position: Position, side: str, element: int, reply: int) -> Position:
        return position.extended(*((element, reply) if side == "L" else (reply, element)))

    def value(self, position: Position, rounds: int) -> Fraction:
        key = self._enter(position, rounds)
        with self._guard(rounds):
            return self._fraction(self._value(key, rounds))

    def _value(self, key, rounds: int, alpha=_LOW, beta=_HIGH, leaf=None):
        """V_rounds(key), fail-soft in the window (alpha, beta): a result
        g <= alpha bounds the value from above, g >= beta from below, and
        any g in between is the value.  The memo holds (lower, upper)
        bounds, lower starting at the key's ``leaf``, scored here if not
        given."""
        # u(key) >= points - 2 |key|, so most calls skip counting it
        if self._set_keys and rounds > self._points - 2 * len(key):
            rounds = min(rounds, self._uncovered(key))
        if leaf is None:
            leaf = self._leaf_at(key)
        if rounds == 0:
            return leaf
        memo_key = (key, rounds)
        entry = self._values.get(memo_key)
        lower, upper = entry or (leaf, _HIGH)
        if lower == upper or lower >= beta:
            return lower
        if upper <= alpha:
            return upper
        g = self._scan(key, rounds, leaf, alpha, beta, value_search=True)[3]
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
        with self._guard(rounds):
            side, element, _, worst = self._scan(key, rounds)
        return side, element, self._fraction(worst)

    def best_reply(self, position: Position, side: str, element: int, rounds_left: int):
        """II's value-minimizing reply (first in canonical order on ties) to
        the spoiler's move ``element`` on ``side``, "L" or "R"."""
        key = self._enter(position, rounds_left, least=1)
        if side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {side!r}")
        name, structure = ("left", self.pair.left) if side == "L" else ("right", self.pair.right)
        if not _is_point(element, structure.size):
            raise ValueError(f"{name} point index {element!r} out of range")
        with self._guard(rounds_left):
            _, _, reply, worst = self._scan(key, rounds_left, moves=((side, element),))
        return reply, self._fraction(worst)

    def _scan(self, key, rounds: int, leaf=None, alpha=_LOW, beta=_HIGH, moves=None,
              replies=None, value_search=False):
        """I's first best move over ``moves`` (default: all), II's first best
        reply to it and their value at ``rounds`` >= 1 from a key whose leaf
        is ``leaf`` (looked up if not given), as (side, element, reply,
        value), fail-soft in (alpha, beta) like ``_value``.  Given a
        ``replies`` dict, it maps every move to its first best reply and
        that reply's value instead, and the result is None.

        A move's replies stop at the first one at most ``bound``: the best
        so far, or before the first move the larger of alpha and the leaf,
        below which no child's value lies, so such a move cannot beat it;
        the moves stop once the best reaches beta.  The moves go in
        canonical order, and so do the replies unless ``value_search`` is
        on.  A value search (``_value``'s) skips the moves on points the key
        covers on set keys, and starts a move's replies at the one that last
        refuted it (see the class docstring).  Both leave the value as it
        is, but not the first best move and reply."""
        pairwise = self._pairwise
        if leaf is None:
            leaf = self._leaf_at(key)
        if moves is None:
            moves = self._moves
        uncovered = value_search and self._set_keys
        bound = leaf if leaf > alpha else alpha
        best, seen, covered = None, None, ()
        for side, element in moves:
            if side != seen:
                seen, mine = side, 0 if side == "L" else 1
                order = self._replies[side]
                if value_search:
                    rotations, refuted = self._orders[side]
                if uncovered:
                    covered = {q[mine] for q in key}
                if pairwise:
                    single, mats = self._ply[side]
                    # per atom on p and a pair q of the key: the played
                    # side's matrix, q's coordinate in it and the reply
                    # side's column
                    halves = [
                        (played, q[mine], other[q[1 - mine]]) for played, other in mats for q in key
                    ]
            if element in covered:
                continue
            if pairwise:
                row = single[element]
            if value_search:
                order = rotations[refuted[element]]
            best_reply, worst, top = None, None, beta
            for reply in order:
                v = None  # wider keys: ``_value`` looks the child's leaf up
                if pairwise:
                    # the child's leaf: max(leaf, leaf({p}), the atoms on p
                    # and one pair q of the key)
                    v = row[reply]
                    if v < leaf:
                        v = leaf
                    for played, c, col in halves:
                        gap = played[element][c] - col[reply]
                        if gap < 0:
                            gap = -gap
                        if gap > v:
                            v = gap
                if rounds > 1 or v is None:
                    child = self._child(key, side, element, reply)
                    v = self._value(child, rounds - 1, bound, top, v)
                if worst is None or v < worst:
                    best_reply, worst = reply, v
                    if v <= bound:
                        if value_search:
                            refuted[element] = reply
                        break
                    if v < top:
                        top = v
            if replies is not None:
                replies[side, element] = best_reply, worst
            elif best is None or worst > best[3]:
                best = (side, element, best_reply, worst)
                if worst >= beta:
                    break
                if worst > bound:
                    bound = worst
        return best

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
        bounds the certificates as they are built.  The value searches below
        its scans order II's replies by the history, as every value search
        does: that order changes the table, not the moves and replies the
        scans name."""
        key = self._enter(position, rounds, clamp=False)
        self.memo_table("certificate")
        with self._guard(rounds):
            return node(key, rounds) if rounds else None

    def _ii_node(self, key, rounds: int) -> IIStrategyNode:
        node = self._tables["certificate"].get(("II", key, rounds))
        if node is None:
            replies = {}
            self._scan(key, rounds, replies=replies)
            # at one round left every continuation is None: no child is keyed
            responses = {
                (side, element): (reply, self._ii_node(
                    self._child(key, side, element, reply), rounds - 1) if rounds > 1 else None)
                for (side, element), (reply, _) in replies.items()
            }
            node = self.memoize("certificate", ("II", key, rounds), IIStrategyNode(responses))
        return node

    def _i_node(self, key, rounds: int) -> IWitnessNode:
        node = self._tables["certificate"].get(("I", key, rounds))
        if node is None:
            side, element, _, worst = self._scan(key, rounds)
            continuations = dict.fromkeys(self._replies[side]) if rounds == 1 else {
                reply: self._i_node(self._child(key, side, element, reply), rounds - 1)
                for reply in self._replies[side]
            }
            node = IWitnessNode(side, element, continuations, self._fraction(worst))
            self.memoize("certificate", ("I", key, rounds), node)
        return node


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
    """Whether the position is a partial (epsilon, delta)-isomorphism: the
    largest |phi^L - phi^R| at its points over the atomic delta-formulas
    phi, 0 for none, is at most epsilon."""
    position.check_against(pair)
    sig, k = pair.signature, len(position)
    atoms = [a for a in enumerate_atomic(sig, k, term_depth) if is_delta_formula(a, sig, delta)]
    left, right = dict(enumerate(position.left)), dict(enumerate(position.right))
    gaps = [abs(evaluate(a, pair.left, left) - evaluate(a, pair.right, right)) for a in atoms]
    return max(gaps, default=0) <= epsilon


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
    ii_tree = i_tree = None
    if build_strategies:
        ii_tree = solver.ii_strategy_tree(start, rounds)
        i_tree = solver.i_witness_tree(start, rounds)
    return GameValueResult(
        value=solver.value(start, rounds) if i_tree is None else i_tree.value,
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
    text = (f'{{"value": {json.dumps(rat_to_json(result.value))}, '
            f'"ii_strategy": {_node_table(result.ii_strategy)}, '
            f'"i_witness": {_node_table(result.i_witness)}}}\n')
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _node_table(root) -> str:
    """A certificate DAG's nodes in depth-first pre-order, each child
    replaced by its index, as the JSON text ``json.dumps`` gives the list of
    their objects, written as the DAG is walked."""
    if root is None:
        return "null"
    index, table = {}, []

    def visit(node) -> str:
        if node is None:
            return "null"
        if id(node) in index:
            return str(index[id(node)])
        i = index[id(node)] = len(table)
        table.append(None)  # filled once the children have their indices
        if isinstance(node, IIStrategyNode):
            responses = ", ".join(
                f'"{side}:{element}": {{"reply": {reply}, "next": {visit(child)}}}'
                for (side, element), (reply, child) in sorted(node.responses.items()))
            text = f'{{"kind": "duplicator", "responses": {{{responses}}}}}'
        elif isinstance(node, IWitnessNode):
            continuations = ", ".join(
                f'"{reply}": {visit(child)}'
                for reply, child in sorted(node.continuations.items()))
            text = (f'{{"kind": "spoiler", "move": "{node.side}:{node.element}", '
                    f'"continuations": {{{continuations}}}}}')
        else:
            raise TypeError(f"not a strategy node: {node!r}")
        table[i] = text
        return str(i)

    visit(root)
    return f"[{', '.join(table)}]"


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
    # the rounds and the start are checked before the first line is printed,
    # one frame down, as deep as best_move and best_reply check them again
    (lambda: solver._enter(position, rounds))()
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
