"""Shared test utilities: random fixtures and independent oracles.

Random structures draw distances from [1/2, 1] so the triangle inequality
holds automatically, and give predicates the modulus min(2t, 1), which is
never binding at those distances; fixtures are therefore always valid.
Tighter-modulus fixtures for perturbation tests are built explicitly.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

from clgames.formulas import (
    ComposedConnective,
    Conn,
    Const,
    ConstVal,
    Dist,
    FormulaError,
    Inf,
    MaxOf,
    MinOf,
    Neg,
    Pred,
    Scale,
    Sup,
    Term,
    TruncAdd,
    TruncSub,
    Var,
    _Slot,
    enumerate_atomic,
)
from clgames.game import IIStrategyNode, Position
from clgames.infinitary import AtomicLeaf, RAlphaSolver, generate_basic_family
from clgames.moduli import (
    PwlModulus,
    _hull,
    _preimage,
    cap_at_one,
    capped_linear,
    identity_modulus,
    zero_modulus,
)
from clgames.rationals import format_rat
from clgames.structures import (
    MetricStructure,
    NamedPair,
    FunctionSymbol,
    PredicateSymbol,
    Signature,
    ValidationReport,
)

F = Fraction

DIST_GRID = (F(1, 2), F(5, 8), F(3, 4), F(7, 8), F(1))
VALUE_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
# grids with pairwise coprime denominators, for the integer tables' common
# denominator; the distances stay in [1/2, 1]
COPRIME_DIST_GRID = (F(1, 2), F(4, 7), F(3, 5), F(2, 3), F(1))
COPRIME_VALUE_GRID = (F(0), F(1, 3), F(2, 5), F(3, 7), F(1))


def random_signature(
    rng: random.Random,
    max_predicates: int = 2,
    with_constant: bool = False,
    with_function: bool = False,
    with_ternary: bool = False,
):
    """A unary function symbol, when asked for, gets the modulus min(2t, 1):
    any point map respects it at distances >= 1/2; so does the ternary
    predicate T added by ``with_ternary``."""
    preds = []
    for i in range(rng.randint(1, max_predicates)):
        arity = rng.choice((1, 1, 2))
        preds.append(PredicateSymbol(f"P{i}", arity, capped_linear(2)))
    if with_ternary:
        preds.append(PredicateSymbol("T", 3, capped_linear(2)))
    constants = ("c",) if with_constant else ()
    functions = (FunctionSymbol("f", 1, capped_linear(2)),) if with_function else ()
    return Signature(predicates=tuple(preds), functions=functions, constants=constants)


def random_structure(
    rng: random.Random,
    signature: Signature,
    n_points: int | None = None,
    max_points: int = 4,
    values: tuple = VALUE_GRID,
    distances: tuple = DIST_GRID,
) -> MetricStructure:
    """Valid when every predicate modulus allows diffs of max(values)-min(values)
    at distance 1/2 and the distances lie in [1/2, 1]; the default grids suit
    the min(2t,1) modulus."""
    n = n_points if n_points is not None else rng.randint(2, max_points)
    dist = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(distances)
            dist[i][j] = dist[j][i] = v
    tables = {
        p.name: {args: rng.choice(values) for args in product(range(n), repeat=p.arity)}
        for p in signature.predicates
    }
    funcs = {
        f.name: {args: rng.randrange(n) for args in product(range(n), repeat=f.arity)}
        for f in signature.functions
    }
    cmap = {c: rng.randrange(n) for c in signature.constants}
    return MetricStructure(
        signature=signature,
        points=tuple(f"p{i}" for i in range(n)),
        dist=tuple(tuple(row) for row in dist),
        predicate_tables=tables,
        function_tables=funcs,
        constant_map=cmap,
    )


def random_pair(
    rng: random.Random,
    max_points: int = 4,
    with_constant: bool = False,
    with_function: bool = False,
    with_ternary: bool = False,
) -> NamedPair:
    sig = random_signature(
        rng, with_constant=with_constant, with_function=with_function, with_ternary=with_ternary
    )
    return NamedPair(
        random_structure(rng, sig, max_points=max_points),
        random_structure(rng, sig, max_points=max_points),
    )


def redrawn_copy(structure: MetricStructure, rng: random.Random, entries: int) -> MetricStructure:
    """The structure with ``entries`` predicate-table entries redrawn: paired
    with the original it is nearly isomorphic, so a few atoms decide the
    game, where random pairs mostly differ everywhere."""
    tables = {name: dict(table) for name, table in structure.predicate_tables.items()}
    for _ in range(entries):
        name = rng.choice(sorted(tables))
        tables[name][rng.choice(sorted(tables[name]))] = rng.choice(VALUE_GRID)
    return replace(structure, predicate_tables=tables)


def permuted_copy(structure: MetricStructure, rng: random.Random) -> MetricStructure:
    """An isomorphic structure with shuffled point order and fresh labels."""
    n = structure.size
    order = list(range(n))
    rng.shuffle(order)  # new index i holds old point order[i]
    inv = [0] * n
    for new, old in enumerate(order):
        inv[old] = new
    dist = tuple(
        tuple(structure.dist[order[i]][order[j]] for j in range(n)) for i in range(n)
    )
    tables = {
        name: {
            args: table[tuple(order[a] for a in args)]
            for args in product(range(n), repeat=_arity(structure, name))
        }
        for name, table in structure.predicate_tables.items()
    }
    funcs = {
        name: {
            args: inv[table[tuple(order[a] for a in args)]]
            for args in product(range(n), repeat=_farity(structure, name))
        }
        for name, table in structure.function_tables.items()
    }
    cmap = {c: inv[i] for c, i in structure.constant_map.items()}
    return MetricStructure(
        signature=structure.signature,
        points=tuple(f"q{i}" for i in range(n)),
        dist=dist,
        predicate_tables=tables,
        function_tables=funcs,
        constant_map=cmap,
    )


def _arity(structure, name):
    return structure.signature.predicate(name).arity


def _farity(structure, name):
    return structure.signature.function(name).arity


def conn_apply(conn, values) -> Fraction:
    if isinstance(conn, ConstVal):
        return conn.value
    if isinstance(conn, Neg):
        return max(F(0), F(1) - values[0])
    if isinstance(conn, TruncSub):
        return max(F(0), values[0] - values[1])
    if isinstance(conn, MinOf):
        return min(values)
    if isinstance(conn, MaxOf):
        return max(values)
    if isinstance(conn, TruncAdd):
        return min(F(1), values[0] + values[1])
    if isinstance(conn, Scale):
        return min(F(1), conn.factor * values[0])
    if isinstance(conn, ComposedConnective):

        def go(node):
            if isinstance(node, _Slot):
                return values[node.index]
            return conn_apply(node.base, [go(c) for c in node.children])

        return go(conn.tree)
    raise FormulaError(f"unknown connective {conn!r}")


# --- the modulus calculus through the hull alone -----------------------------

def hull_compose(outer: PwlModulus, inner: PwlModulus) -> PwlModulus:
    """``moduli.compose`` without its identity and zero shortcuts: every
    composition goes through the hull."""
    # candidate kinks: inner's own breakpoints plus the points where inner
    # crosses one of outer's breakpoint inputs
    xs = {x for x, _ in inner.breakpoints}
    for u, _ in outer.breakpoints:
        if u == 0:
            continue
        x = _preimage(inner, u)
        if x is not None:
            xs.add(x)
    pts = {x: outer.evaluate(inner.evaluate(x)) for x in xs}
    if inner.final_slope == 0 or outer.final_slope == 0:
        # one factor is eventually constant, hence so is the composite
        final = F(0)
    else:
        final = outer.final_slope * inner.final_slope
    return _hull(pts, final)


def hull_modulus_max(*moduli: PwlModulus) -> PwlModulus:
    """``moduli.modulus_max`` without its equal-arguments shortcut."""
    points = {F(0): F(0)}
    for m in moduli:
        for x, y in m.breakpoints:
            points[x] = max(points.get(x, F(0)), y)
    return _hull(points, max((m.final_slope for m in moduli), default=F(0)))


def _hull_term_modulus(t: Term, sig: Signature) -> PwlModulus:
    if isinstance(t, Var):
        return identity_modulus()
    if isinstance(t, Const):
        return zero_modulus()
    sym = sig.function(t.func)
    return hull_modulus_max(*(hull_compose(sym.modulus, _hull_term_modulus(a, sig)) for a in t.args))


def _hull_conn_modulus(conn) -> PwlModulus:
    if isinstance(conn, ConstVal):
        return zero_modulus()
    if isinstance(conn, (Neg, MinOf, MaxOf)):
        return identity_modulus()
    if isinstance(conn, (TruncSub, TruncAdd)):
        return capped_linear(2)
    if isinstance(conn, Scale):
        return capped_linear(conn.factor)
    raise FormulaError(f"no oracle modulus for {conn!r}")


def hull_modulus_of(phi, sig: Signature) -> PwlModulus:
    """``formulas.modulus_of`` over ``hull_compose`` and ``hull_modulus_max``."""
    if isinstance(phi, (Dist, Pred)):
        if isinstance(phi, Dist):
            atom, terms = capped_linear(2), (phi.left, phi.right)
        else:
            atom, terms = sig.predicate(phi.name).modulus, phi.args
        return cap_at_one(
            hull_modulus_max(*(hull_compose(atom, _hull_term_modulus(t, sig)) for t in terms))
        )
    if isinstance(phi, Conn):
        conn = _hull_conn_modulus(phi.conn)
        return hull_modulus_max(*(hull_compose(conn, hull_modulus_of(f, sig)) for f in phi.args))
    return hull_modulus_of(phi.body, sig)


def hull_theta_of(phi, sig: Signature) -> PwlModulus:
    """``formulas.theta_of`` over ``hull_compose`` and ``hull_modulus_max``."""
    if isinstance(phi, (Dist, Pred)):
        return identity_modulus()
    if isinstance(phi, Conn):
        return hull_compose(
            _hull_conn_modulus(phi.conn),
            hull_modulus_max(*(hull_theta_of(f, sig) for f in phi.args)),
        )
    return hull_theta_of(phi.body, sig)


def _eval_term(t: Term, structure: MetricStructure, assignment: dict) -> int:
    if isinstance(t, Var):
        try:
            return assignment[t.index]
        except KeyError:
            raise FormulaError(f"unassigned free variable x{t.index}") from None
    if isinstance(t, Const):
        return structure.constant(t.name)
    return structure.func_value(t.func, tuple(_eval_term(a, structure, assignment) for a in t.args))


def fraction_evaluate(phi, structure: MetricStructure, assignment: dict | None = None) -> Fraction:
    """``formulas.evaluate`` as it ran on Fractions before the integer
    form: a tree walk over the structure's own numbers, with one assignment
    dict per quantified point."""
    asg = dict(assignment) if assignment else {}

    def go(f, env: dict) -> Fraction:
        if isinstance(f, Dist):
            return structure.distance(_eval_term(f.left, structure, env), _eval_term(f.right, structure, env))
        if isinstance(f, Pred):
            return structure.pred_value(
                f.name, tuple(_eval_term(a, structure, env) for a in f.args)
            )
        if isinstance(f, Conn):
            return conn_apply(f.conn, [go(a, env) for a in f.args])
        if isinstance(f, Inf):
            return min(go(f.body, {**env, f.var: p}) for p in range(structure.size))
        if isinstance(f, Sup):
            return max(go(f.body, {**env, f.var: p}) for p in range(structure.size))
        raise FormulaError(f"unknown formula node {f!r}")

    return go(phi, asg)


def _max_gap(pair: NamedPair, formulas, left: tuple, right: tuple) -> Fraction:
    env_l = dict(enumerate(left))
    env_r = dict(enumerate(right))
    best = F(0)
    for phi in formulas:
        gap = abs(fraction_evaluate(phi, pair.left, env_l) - fraction_evaluate(phi, pair.right, env_r))
        best = max(best, gap)
    return best


def plain_leaf(pair: NamedPair, left: tuple, right: tuple, term_depth: int = 0) -> Fraction:
    """Order-respecting leaf discrepancy, independent of the solver caches."""
    return _max_gap(pair, enumerate_atomic(pair.signature, len(left), term_depth), left, right)


def _ordered_minimax(pair: NamedPair, left: tuple, right: tuple, rounds: int, leaf) -> Fraction:
    if rounds == 0:
        return leaf(left, right)
    best = F(0)
    for a in range(pair.left.size):
        worst = min(
            _ordered_minimax(pair, left + (a,), right + (b,), rounds - 1, leaf)
            for b in range(pair.right.size)
        )
        best = max(best, worst)
    for b in range(pair.right.size):
        worst = min(
            _ordered_minimax(pair, left + (a,), right + (b,), rounds - 1, leaf)
            for a in range(pair.left.size)
        )
        best = max(best, worst)
    return best


def brute_force_game_value(
    pair: NamedPair, left: tuple, right: tuple, rounds: int, term_depth: int = 0
) -> Fraction:
    """Unmemoized minimax over ordered positions: the game-tree oracle."""
    return _ordered_minimax(
        pair, left, right, rounds, lambda lp, rp: plain_leaf(pair, lp, rp, term_depth)
    )


def first_best_move(
    pair: NamedPair, left: tuple, right: tuple, rounds: int, term_depth: int = 0
):
    """I's first value-maximizing move in canonical order (left points, then
    right points) as (side, element, value), by a full scan over the
    brute-force values of the children."""
    best = None
    for side, size in (("L", pair.left.size), ("R", pair.right.size)):
        for element in range(size):
            _, worst = first_best_reply(pair, left, right, side, element, rounds, term_depth)
            if best is None or worst > best[2]:
                best = (side, element, worst)
    return best


def first_best_reply(
    pair: NamedPair,
    left: tuple,
    right: tuple,
    side: str,
    element: int,
    rounds: int,
    term_depth: int = 0,
):
    """II's first value-minimizing reply to I's move as (reply, value), by a
    full scan over the brute-force values of the children."""
    best = None
    for reply in range(pair.right.size if side == "L" else pair.left.size):
        a, b = (element, reply) if side == "L" else (reply, element)
        v = brute_force_game_value(pair, left + (a,), right + (b,), rounds - 1, term_depth)
        if best is None or v < best[1]:
            best = (reply, v)
    return best


def last_ply_scan(pair: NamedPair, left: tuple, right: tuple, alpha, beta, moves=None):
    """The one-round alpha-beta scan by its stated rules, over ``plain_leaf``
    values: the moves (default: all, left points then right points) and the
    replies in canonical order; a move's value is that of its first reply
    at most the bound, the largest of alpha, the position's leaf and the
    best so far, or else of its first least reply; the best changes only
    on a strictly larger value, and the scan stops once the best reaches
    beta.  Returns (side, element, reply, value) of the best move."""
    if moves is None:
        moves = [("L", a) for a in range(pair.left.size)]
        moves += [("R", b) for b in range(pair.right.size)]
    bound = max(alpha, plain_leaf(pair, left, right))
    best = None
    for side, element in moves:
        worst = None
        for reply in range(pair.right.size if side == "L" else pair.left.size):
            a, b = (element, reply) if side == "L" else (reply, element)
            v = plain_leaf(pair, left + (a,), right + (b,))
            if worst is None or v < worst[1]:
                worst = (reply, v)
                if v <= bound:
                    break
        if best is None or worst[1] > best[3]:
            best = (side, element) + worst
            if best[3] >= beta:
                break
            bound = max(bound, best[3])
    return best


def brute_force_rank_omega_leaf(
    pair: NamedPair, left: tuple, right: tuple, alpha: int, leaf
) -> Fraction:
    """Unmemoized rank recursion over ordered positions whose leaves are
    scored over ``generate_basic_family`` for the OmegaLeaf ``leaf``: the
    oracle for ``r_alpha`` with the omega leaf."""
    families = {}

    def score(lp: tuple, rp: tuple) -> Fraction:
        k = len(lp)
        if k not in families:
            families[k] = generate_basic_family(
                pair.signature, k, leaf.omega, leaf.term_depth, leaf.scale_factors
            )
        return _max_gap(pair, families[k], lp, rp)

    return _ordered_minimax(pair, left, right, alpha, score)


class DynamicSolver:
    """The dynamic-clock game by an explicit search over (position,
    remaining-clock) states: the oracle for ``dynamic_game_value``.

    Each round the spoiler picks an element and a clock value strictly below
    the remaining one; the round with clock 0 is still played, then the leaf
    is scored.  The spoiler's clock choice is searched, not assumed maximal:
    the value at clock c is the better of spending c - 1 now and spending
    less, which is the value at clock c - 1.  Every clock, 1 included, runs
    its own move and reply loops, with an alpha cutoff of its own (a move's
    replies stop at the first one no better than the best so far), over a
    plain memo of exact values with no cap.  Of the kernel it uses only the
    position keys and leaves (``_key``, ``_child``, ``_leaf_at``), which
    ``test_leaf_matches_plain_leaf`` pins to ``plain_leaf``, and
    ``_fraction`` for the result.
    """

    def __init__(self, pair: NamedPair, leaf=None):
        self.game = RAlphaSolver(pair, leaf or AtomicLeaf())
        self.moves = [("L", a) for a in range(pair.left.size)]
        self.moves += [("R", b) for b in range(pair.right.size)]
        self.replies = {"L": range(pair.right.size), "R": range(pair.left.size)}
        self.memo = {}

    def value(self, position: Position, clock: int) -> Fraction:
        return self.game._fraction(self._value(self.game._key(position), clock))

    def _value(self, key, clock: int):
        if clock == 0:
            return self.game._leaf_at(key)
        if (clock, key) not in self.memo:
            best = self._value(key, clock - 1)
            for side, element in self.moves:
                worst = None
                for reply in self.replies[side]:
                    v = self._value(self.game._child(key, side, element, reply), clock - 1)
                    if worst is None or v < worst:
                        worst = v
                        if v <= best:
                            break
                best = max(best, worst)
            self.memo[clock, key] = best
        return self.memo[clock, key]

    def principal_variation(self, position: Position, clock: int) -> list:
        """(clock spent, side, element, reply) per round along a line of
        optimal play: the first spend, move and reply that keep the value."""
        key, line = self.game._key(position), []
        while clock > 0:
            target = self._value(key, clock)
            found = None
            for spent in range(clock):
                for side, element in self.moves:
                    replies = [
                        self._value(self.game._child(key, side, element, reply), spent)
                        for reply in self.replies[side]
                    ]
                    if min(replies) == target:
                        found = (spent, side, element, replies.index(target))
                        break
                if found:
                    break
            line.append(found)
            clock, side, element, reply = found
            key = self.game._child(key, side, element, reply)
        return line


def _extend(position: Position, side: str, element: int, reply: int) -> Position:
    if side == "L":
        return position.extended(element, reply)
    return position.extended(reply, element)


def worst_leaf_following_ii(pair, position, node, term_depth: int = 0) -> Fraction:
    """Max final discrepancy over all spoiler plays when II follows the tree."""
    if node is None:
        return plain_leaf(pair, position.left, position.right, term_depth)
    worst = F(0)
    for (side, element), (reply, child) in node.responses.items():
        nxt = _extend(position, side, element, reply)
        worst = max(worst, worst_leaf_following_ii(pair, nxt, child, term_depth))
    return worst


def best_leaf_against_i(pair, position, node, term_depth: int = 0) -> Fraction:
    """Min final discrepancy over all duplicator replies to the witness tree."""
    if node is None:
        return plain_leaf(pair, position.left, position.right, term_depth)
    best = None
    for reply, child in node.continuations.items():
        nxt = _extend(position, node.side, node.element, reply)
        v = best_leaf_against_i(pair, nxt, child, term_depth)
        best = v if best is None else min(best, v)
    return best


def strategy_dict(node) -> dict | None:
    """A certificate as the dict tree its JSON holds, each shared node
    expanded once per path: the oracle for ``game.strategy_to_json``."""
    if node is None:
        return None
    if isinstance(node, IIStrategyNode):
        return {
            "kind": "duplicator",
            "responses": {
                f"{side}:{element}": {"reply": reply, "next": strategy_dict(child)}
                for (side, element), (reply, child) in sorted(node.responses.items())
            },
        }
    return {
        "kind": "spoiler",
        "move": f"{node.side}:{node.element}",
        "continuations": {
            str(reply): strategy_dict(child) for reply, child in sorted(node.continuations.items())
        },
    }


def tree_from_table(nodes: list | None, index: int = 0) -> dict | None:
    """A certificate file's node table expanded back into the dict tree of
    its node ``index``, each shared node once per path: compared with
    ``strategy_dict`` of the in-memory DAG."""
    if nodes is None or index is None:
        return None
    node = nodes[index]
    if node["kind"] == "duplicator":
        return {
            "kind": "duplicator",
            "responses": {
                move: {"reply": step["reply"], "next": tree_from_table(nodes, step["next"])}
                for move, step in node["responses"].items()
            },
        }
    return {
        "kind": "spoiler",
        "move": node["move"],
        "continuations": {
            reply: tree_from_table(nodes, child) for reply, child in node["continuations"].items()
        },
    }


def value_iteration_omega(
    pair: NamedPair, term_depth: int = 0, start: Position | None = None
) -> Fraction:
    """Infinite-game value from ``start`` (default: no pairs played) by
    repeated clock sweeps over every set of pairs until the whole table is
    stable: the independent oracle for the memoized fixpoint solver."""
    nl, nr = pair.left.size, pair.right.size
    pair_list = [(a, b) for a in range(nl) for b in range(nr)]
    masks = range(1 << len(pair_list))
    start_mask = 0
    if start is not None:
        for ab in zip(start.left, start.right):
            start_mask |= 1 << pair_list.index(ab)

    def leaf(mask: int) -> Fraction:
        pairs = [pair_list[i] for i in range(len(pair_list)) if mask >> i & 1]
        return plain_leaf(
            pair, tuple(a for a, _ in pairs), tuple(b for _, b in pairs), term_depth
        )

    leaves = {m: leaf(m) for m in masks}
    values = dict(leaves)
    while True:
        nxt = {}
        for mask in masks:
            v = leaves[mask]
            for a in range(nl):
                forced = min(values[mask | 1 << pair_list.index((a, b))] for b in range(nr))
                v = max(v, forced)
            for b in range(nr):
                forced = min(values[mask | 1 << pair_list.index((a, b))] for a in range(nl))
                v = max(v, forced)
            nxt[mask] = v
        if nxt == values:
            return values[start_mask]
        values = nxt


def _tuples(n_points: int, arity: int):
    return product(range(n_points), repeat=arity)


def fraction_validate(
    structure: MetricStructure, allow_pseudometric: bool = False
) -> ValidationReport:
    """``structures.validate`` as it ran on Fractions before the integer
    form: every check compares the structure's own numbers, and every tuple
    pair with a non-negative gap evaluates the modulus.  The oracle for the
    integer validation."""
    report = ValidationReport()
    n = structure.size
    labels = structure.points
    d = structure.dist

    if len(d) != n or any(len(row) != n for row in d):
        report.add("matrix-shape", (), f"distance matrix must be {n}x{n}")
        return report

    for i in range(n):
        if d[i][i] != 0:
            report.add("self-distance", (labels[i],), f"d(x,x) = {format_rat(d[i][i])} != 0")
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                report.add(
                    "symmetry",
                    (labels[i], labels[j]),
                    f"d = {format_rat(d[i][j])} vs {format_rat(d[j][i])}",
                )
            if d[i][j] < 0:
                report.add("negative-distance", (labels[i], labels[j]), format_rat(d[i][j]))
            if d[i][j] > 1:
                report.add(
                    "diameter", (labels[i], labels[j]), f"d = {format_rat(d[i][j])} > 1"
                )
            if d[i][j] == 0:
                if allow_pseudometric:
                    report.notes.append(
                        f"pseudometric: d({labels[i]},{labels[j]}) = 0 (non-conforming)"
                    )
                else:
                    report.add("identity-of-indiscernibles", (labels[i], labels[j]), "d = 0")
    for i, j, k in product(range(n), repeat=3):
        if d[i][k] > d[i][j] + d[j][k]:
            report.add(
                "triangle",
                (labels[i], labels[j], labels[k]),
                f"d({labels[i]},{labels[k]}) = {format_rat(d[i][k])} > "
                f"{format_rat(d[i][j])} + {format_rat(d[j][k])}",
            )

    for sym in structure.signature.predicates:
        table = structure.predicate_tables.get(sym.name)
        if table is None:
            report.add("missing-table", (sym.name,), "predicate table absent")
            continue
        for args in _tuples(n, sym.arity):
            if args not in table:
                report.add("incomplete-table", (sym.name, args), "missing entry")
        for args, value in table.items():
            if not (0 <= value <= 1):
                report.add(
                    "predicate-bound", (sym.name, args), f"value {format_rat(value)} not in [0,1]"
                )
        for xs in _tuples(n, sym.arity):
            if xs not in table:
                continue
            for ys in _tuples(n, sym.arity):
                if ys <= xs or ys not in table:
                    continue
                gap = max(d[x][y] for x, y in zip(xs, ys))
                if gap < 0:
                    continue  # reported as a negative distance
                bound = sym.modulus.evaluate(gap)
                diff = abs(table[xs] - table[ys])
                if diff > bound:
                    report.add(
                        "predicate-modulus",
                        (sym.name, xs, ys),
                        f"|{format_rat(table[xs])} - {format_rat(table[ys])}| "
                        f"> modulus({format_rat(gap)}) = {format_rat(bound)}",
                    )
    for sym in structure.signature.functions:
        table = structure.function_tables.get(sym.name)
        if table is None:
            report.add("missing-table", (sym.name,), "function table absent")
            continue
        for args in _tuples(n, sym.arity):
            if args not in table:
                report.add("incomplete-table", (sym.name, args), "missing entry")
        for args, value in table.items():
            if not (isinstance(value, int) and 0 <= value < n):
                report.add("function-range", (sym.name, args), f"image {value!r} not a point")
        for xs in _tuples(n, sym.arity):
            if xs not in table:
                continue
            for ys in _tuples(n, sym.arity):
                if ys <= xs or ys not in table:
                    continue
                fx, fy = table[xs], table[ys]
                if not all(isinstance(f, int) and 0 <= f < n for f in (fx, fy)):
                    continue  # reported as out of range
                gap = max(d[x][y] for x, y in zip(xs, ys))
                if gap < 0:
                    continue  # reported as a negative distance
                bound = sym.modulus.evaluate(gap)
                if d[fx][fy] > bound:
                    report.add(
                        "function-modulus",
                        (sym.name, xs, ys),
                        f"d(f(x),f(y)) = {format_rat(d[fx][fy])} "
                        f"> modulus({format_rat(gap)}) = {format_rat(bound)}",
                    )
    for name in structure.signature.constants:
        if name not in structure.constant_map:
            report.add("missing-constant", (name,), "constant not interpreted")
        else:
            idx = structure.constant_map[name]
            if not (isinstance(idx, int) and 0 <= idx < n):
                report.add("constant-range", (name,), f"image {idx!r} not a point")
    for name in structure.constant_map:
        if name not in structure.signature.constants:
            report.add("stray-constant", (name,), "interpreted constant not in signature")
    for name in structure.predicate_tables:
        if not any(p.name == name for p in structure.signature.predicates):
            report.add("stray-table", (name,), "predicate table without a symbol")
    for name in structure.function_tables:
        if not any(f.name == name for f in structure.signature.functions):
            report.add("stray-table", (name,), "function table without a symbol")
    return report


def negative_gap_structure(symbol: str) -> MetricStructure:
    """A unary symbol on two points at distance -1/5: the only tuple pair has
    a negative gap, and the function's images are that same pair."""
    sig = Signature(
        predicates=(PredicateSymbol("P", 1, identity_modulus()),) if symbol == "predicate" else (),
        functions=(FunctionSymbol("f", 1, identity_modulus()),) if symbol == "function" else (),
    )
    return MetricStructure(
        signature=sig,
        points=("a", "b"),
        dist=((F(0), F(-1, 5)), (F(-1, 5), F(0))),
        predicate_tables={"P": {(0,): F(0), (1,): F(1)}} if symbol == "predicate" else {},
        function_tables={"f": {(0,): 0, (1,): 1}} if symbol == "function" else {},
    )
