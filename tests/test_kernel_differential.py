"""Differential tests of the game kernel's integer leaf tables and exact
cutoff against the unmemoized oracles in ``helpers``.

The drawn pairs have a constant and either a ternary predicate or a unary
function symbol (solved at term depth 0-2), values on grids with coprime
denominators (so the common denominator is a real lcm), and are often
nearly isomorphic (a permuted copy with a few entries redrawn), so that
replies tie and cutoffs fire.
"""

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clgames import game
from clgames.game import GameSolver, Position, game_value
from clgames.infinitary import AtomicLeaf, dynamic_game_value, omega_game_value_atomic
from clgames.moduli import capped_linear
from clgames.structures import (
    FunctionSymbol,
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
)
from clgames.witnesses import distance_witness_pair

import helpers

F = Fraction


@st.composite
def pairs(draw, max_left=3, max_right=3, near=None, functions=True, ternary=True, constant=True):
    rng = draw(st.randoms(use_true_random=False))
    grids = {}
    if draw(st.booleans()):
        grids = {"values": helpers.COPRIME_VALUE_GRID, "distances": helpers.COPRIME_DIST_GRID}
    # the ternary predicate would make the oracle's leaves over function
    # terms too slow, so a pair has one or the other
    function = functions and draw(st.booleans())
    sig = helpers.random_signature(
        rng, with_constant=constant, with_function=function, with_ternary=ternary and not function
    )
    left = helpers.random_structure(rng, sig, n_points=draw(st.integers(1, max_left)), **grids)
    if near is None:
        near = left.size <= max_right and draw(st.booleans())
    if near:
        # permuted, so that the best replies are not the identity
        right = helpers.permuted_copy(left, rng)
        right = helpers.redrawn_copy(right, rng, entries=draw(st.integers(1, 3)))
    else:
        right = helpers.random_structure(
            rng, sig, n_points=draw(st.integers(1, max_right)), **grids
        )
    return NamedPair(left, right)


@st.composite
def pairs_and_starts(draw, max_start=2, **pair_options):
    """A pair and a start of up to ``max_start`` played pairs, often with one
    of them repeated."""
    pair = draw(pairs(**pair_options))
    played = draw(
        st.lists(
            st.tuples(
                st.integers(0, pair.left.size - 1), st.integers(0, pair.right.size - 1)
            ),
            max_size=max_start,
        )
    )
    if played and draw(st.booleans()):
        played.insert(draw(st.integers(0, len(played))), played[0])
    return pair, tuple(a for a, _ in played), tuple(b for _, b in played)


def reduced_fraction(value) -> bool:
    return type(value) is Fraction and math.gcd(value.numerator, value.denominator) == 1


@settings(max_examples=40, deadline=None)
@given(pairs_and_starts(), st.integers(0, 2), st.integers(0, 2))
def test_game_value_matches_brute_force(case, rounds, depth):
    pair, left, right = case
    expected = helpers.brute_force_game_value(pair, left, right, rounds, depth)
    start = Position(left, right)
    value = game_value(
        pair, start=start, rounds=rounds, term_depth=depth, build_strategies=False
    ).value
    assert value == expected and reduced_fraction(value)
    dynamic = dynamic_game_value(pair, rounds, leaf=AtomicLeaf(depth), start=start).value
    assert dynamic == expected and reduced_fraction(dynamic)


@settings(max_examples=150, deadline=None)
@given(pairs_and_starts(max_start=4, near=False), st.integers(0, 2))
def test_leaf_matches_plain_leaf(case, depth):
    # the game values above rarely hinge on the deepest terms, so the leaf
    # is also compared on its own, on unrelated sides
    pair, left, right = case
    leaf = GameSolver(pair, depth).leaf(Position(left, right))
    assert leaf == helpers.plain_leaf(pair, left, right, depth) and reduced_fraction(leaf)


@settings(max_examples=40, deadline=None)
@given(pairs_and_starts(max_start=3, max_left=2, max_right=3, functions=False))
def test_omega_matches_value_iteration(case):
    pair, left, right = case
    start = Position(left, right)
    value = omega_game_value_atomic(pair, start=start)
    expected = helpers.value_iteration_omega(pair, start=start)
    assert value == expected
    assert reduced_fraction(value)
    # the finite game reaches the infinite game's value at u rounds, u being
    # the points the start leaves uncovered, and stays at or below it before
    u = uncovered(pair, left, right)
    solver = GameSolver(pair)
    for rounds in range(u + 2):
        finite = solver.value(start, rounds)
        assert finite == expected if rounds >= u else finite <= expected


@settings(max_examples=40, deadline=None)
@given(pairs_and_starts(functions=False, ternary=False), st.integers(1, 2))
def test_pairwise_last_ply_matches_brute_force(case, rounds):
    # a relational pair of arity <= 2 with a constant: the last ply scores
    # its children from the parent's leaf, leaf({p}) and the pair gaps
    pair, left, right = case
    solver = GameSolver(pair)
    assert solver._pairwise
    start = Position(left, right)
    expected = helpers.brute_force_game_value(pair, left, right, rounds)
    assert solver.value(start, rounds) == expected
    assert solver.best_move(start, rounds) == helpers.first_best_move(pair, left, right, rounds)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_last_ply_matches_the_stated_rules(data):
    # the pairwise last ply's fail-soft results themselves, not only their
    # bounds, against the oracle that applies the stated cutoff rules to
    # plain leaves; the windows are drawn from the anchors of
    # test_windowed_value_is_fail_soft
    pair, left, right = data.draw(pairs_and_starts(
        max_start=3, max_left=4, max_right=4, functions=False, ternary=False,
        constant=data.draw(st.booleans()),
    ))
    solver = GameSolver(pair)
    assert solver._pairwise
    key, den = solver._enter(Position(left, right), 1), solver._den
    full = helpers.last_ply_scan(pair, left, right, game._LOW, game._HIGH)
    assert full[3] == helpers.brute_force_game_value(pair, left, right, 1)
    leaf, value = solver._leaf_at(key), int(full[3] * den)
    anchors = sorted({leaf - 1, leaf, leaf + 1, value - 1, value, value + 1})
    anchors = [game._LOW] + anchors + [game._HIGH]

    def scaled(v):
        return v if v in (game._LOW, game._HIGH) else F(v, den)

    windows = st.tuples(st.sampled_from(anchors), st.sampled_from(anchors)).filter(
        lambda window: window[0] < window[1]
    )
    for alpha, beta in data.draw(st.lists(windows, min_size=1, max_size=4)):
        side, element, reply, expected = helpers.last_ply_scan(
            pair, left, right, scaled(alpha), scaled(beta)
        )
        assert solver._scan(key, 1, leaf, alpha, beta) == (side, element, reply, expected * den)
        move = data.draw(st.sampled_from(solver._moves))
        _, _, reply, expected = helpers.last_ply_scan(
            pair, left, right, scaled(alpha), scaled(beta), moves=[move]
        )
        result = solver._scan(key, 1, leaf, alpha, beta, moves=(move,))
        assert result == (*move, reply, expected * den)


def uncovered(pair: NamedPair, left: tuple, right: tuple) -> int:
    return pair.left.size - len(set(left)) + pair.right.size - len(set(right))


@settings(max_examples=100, deadline=None)
@given(pairs_and_starts(functions=False, ternary=False), st.integers(2, 3))
def test_leaf_handed_to_each_child_is_exact(case, rounds):
    # at width 2 the scan scores each child's leaf from its parent's and
    # hands it to the child's search instead of a memoized leaf: every leaf
    # handed over, in the value search and in both certificates, is the
    # plain leaf of that child
    pair, left, right = case
    assume(uncovered(pair, left, right) >= 2)
    solver = GameSolver(pair)
    assert solver._pairwise
    handed, search = {}, solver._value

    def value(key, rounds, alpha=game._LOW, beta=game._HIGH, leaf=None):
        if leaf is not None:
            handed.setdefault(key, set()).add(leaf)
        return search(key, rounds, alpha, beta, leaf)

    solver._value = value
    start = Position(left, right)
    solver.value(start, rounds)
    solver.ii_strategy_tree(start, rounds)
    solver.i_witness_tree(start, rounds)
    assert handed
    for key, leaves in handed.items():
        child = tuple(a for a, _ in key), tuple(b for _, b in key)
        assert leaves == {helpers.plain_leaf(pair, *child) * solver._den}


@settings(max_examples=40, deadline=None)
@given(pairs_and_starts(max_start=3, max_left=2, max_right=2), st.integers(0, 1))
def test_rounds_clamp_at_the_uncovered_points(case, depth):
    # V_r = V_u for r >= u, with u the points the start leaves uncovered;
    # each round count gets a solver of its own, so no memo is shared, and
    # the oracle confirms V_{u+1} = V_u where it is quick
    pair, left, right = case
    u = uncovered(pair, left, right)
    assume(u <= 2)
    start = Position(left, right)
    expected = helpers.brute_force_game_value(pair, left, right, u, depth)
    if u <= 1:
        assert helpers.brute_force_game_value(pair, left, right, u + 1, depth) == expected
    for rounds in (u, u + 1, u + 5):
        assert GameSolver(pair, depth).value(start, rounds) == expected


def discrete_pair(sig: Signature, n: int, left_tables: dict, right_tables: dict, **extra):
    def side(tables):
        return MetricStructure(
            signature=sig,
            points=tuple(f"p{i}" for i in range(n)),
            dist=tuple(tuple(F(0) if i == j else F(1) for j in range(n)) for i in range(n)),
            predicate_tables=tables,
            **extra,
        )

    return NamedPair(side(left_tables), side(right_tables))


def test_last_ply_sees_an_atom_on_the_constant():
    # R(x, c) is the only atom that tells the sides apart: 1 at p1 on the
    # left, 0 everywhere on the right; the child's leaf must count it
    sig = Signature(predicates=(PredicateSymbol("R", 2, capped_linear(2)),), constants=("c",))
    right_table = {args: F(0) for args in product(range(3), repeat=2)}
    left_table = dict(right_table)
    left_table[1, 0] = F(1)
    pair = discrete_pair(sig, 3, {"R": left_table}, {"R": right_table}, constant_map={"c": 0})
    solver = GameSolver(pair)
    assert solver._pairwise
    for rounds in (1, 2):
        assert solver.value(Position(), rounds) == 1 == helpers.brute_force_game_value(
            pair, (), (), rounds
        )
    assert solver.best_move(Position(), 1) == ("L", 1, 1)


def test_ternary_atom_needs_two_earlier_pairs():
    # the sides differ only at T(p0, p1, p2): from the start (p0, p1) the
    # reply p2 to the spoiler's p2 shows it only together with both pairs
    sig = Signature(predicates=(PredicateSymbol("T", 3, capped_linear(2)),))
    right_table = {args: F(0) for args in product(range(3), repeat=3)}
    left_table = dict(right_table)
    left_table[0, 1, 2] = F(1)
    pair = discrete_pair(sig, 3, {"T": left_table}, {"T": right_table})
    solver = GameSolver(pair)
    assert not solver._pairwise
    start = Position((0, 1), (0, 1))
    assert solver.best_reply(start, "L", 2, 1) == (0, 1)
    for rounds in (1, 2):
        assert solver.value(start, rounds) == 1 == helpers.brute_force_game_value(
            pair, start.left, start.right, rounds
        )


def test_last_ply_stores_no_leaves(monkeypatch):
    solvers = []

    class Recording(GameSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            solvers.append(self)

    monkeypatch.setattr(game, "GameSolver", Recording)
    result = game_value(distance_witness_pair(F(1, 2), 16), rounds=2)
    assert result.value == F(1, 17) and len(solvers) == 1
    leaf_keys = solvers[0]._leaf
    assert leaf_keys and max(map(len, leaf_keys)) == 1


@settings(max_examples=30, deadline=None)
@given(pairs_and_starts(max_start=1, near=True), st.integers(1, 2), st.integers(0, 2))
def test_best_move_and_reply_are_first_in_canonical_order(case, rounds, depth):
    pair, left, right = case
    solver = GameSolver(pair, depth)
    position = Position(left, right)
    assert solver.best_move(position, rounds) == helpers.first_best_move(
        pair, left, right, rounds, depth
    )
    for side, element in solver._moves:
        assert solver.best_reply(position, side, element, rounds) == helpers.first_best_reply(
            pair, left, right, side, element, rounds, depth
        )


def discrete_with_function(sig: Signature, n: int, table: dict) -> MetricStructure:
    return MetricStructure(
        signature=sig,
        points=tuple(f"p{i}" for i in range(n)),
        dist=tuple(tuple(F(0) if i == j else F(1) for j in range(n)) for i in range(n)),
        function_tables={sig.functions[0].name: table},
    )


def test_unary_function_term_of_depth_two():
    # f(f(x0)) is 2 on the left and 0 on the right, where x0 and f(x0) agree
    sig = Signature(functions=(FunctionSymbol("f", 1, capped_linear(2)),))
    pair = NamedPair(
        discrete_with_function(sig, 3, {(0,): 1, (1,): 2, (2,): 2}),
        discrete_with_function(sig, 3, {(0,): 1, (1,): 0, (2,): 2}),
    )
    for depth, expected in ((0, 0), (1, 0), (2, 1), (3, 1)):
        leaf = GameSolver(pair, depth).leaf(Position((0,), (0,)))
        assert leaf == expected == helpers.plain_leaf(pair, (0,), (0,), depth)


def test_function_terms_keep_the_memoized_last_ply():
    # f is a 3-cycle on the left and two-to-one on the right: no single pair
    # tells the sides apart at term depth 1, but atoms such as d(f(x0), x1),
    # which couple two pairs through f, do; the pairwise last ply would miss
    # them
    sig = Signature(functions=(FunctionSymbol("f", 1, capped_linear(2)),))
    pair = NamedPair(
        discrete_with_function(sig, 3, {(0,): 1, (1,): 2, (2,): 0}),
        discrete_with_function(sig, 3, {(0,): 1, (1,): 0, (2,): 0}),
    )
    solver = GameSolver(pair, term_depth=1)
    assert not solver._pairwise and GameSolver(pair)._pairwise
    for left, right, rounds in (((0,), (0,), 1), ((), (), 2)):
        value = solver.value(Position(left, right), rounds)
        assert value == 1 == helpers.brute_force_game_value(pair, left, right, rounds, 1)


def binary_function_pair() -> NamedPair:
    """Discrete spaces on points 0-3 (plus images) where g(x, y) = x except
    that g(0, 1) and g(2, 3) are two fresh points on the left and one fresh
    point on the right: d(g(x0, x1), g(x2, x3)) tells the sides apart on the
    four pairs (i, i), and no atom on three of them does."""
    sig = Signature(functions=(FunctionSymbol("g", 2, capped_linear(2)),))

    def side(images):
        n = 4 + len(set(images))
        g = {(x, y): x for x, y in product(range(n), repeat=2)}
        g[0, 1], g[2, 3] = images
        return discrete_with_function(sig, n, g)

    return NamedPair(side((4, 5)), side((4, 4)))


def test_binary_function_atom_needs_four_pairs():
    pair = binary_function_pair()
    solver = GameSolver(pair, term_depth=1)
    four = (0, 1, 2, 3)
    for left in combinations(four, 3):
        assert solver.leaf(Position(left, left)) == 0 == helpers.plain_leaf(pair, left, left, 1)
    repeated = four + (2,)
    assert solver.leaf(Position(repeated, repeated)) == 1
    assert helpers.plain_leaf(pair, repeated, repeated, 1) == 1
    # from three of the pairs, every reply to the spoiler's 3 exposes an atom
    start = Position((0, 1, 2), (0, 1, 2))
    for depth, expected in ((0, 0), (1, 1)):
        value = game_value(pair, start=start, rounds=1, term_depth=depth).value
        assert value == expected == helpers.brute_force_game_value(
            pair, start.left, start.right, 1, depth
        )


def oracle_sized_case(data, rounds: int, **options):
    """A pair and start from ``pairs_and_starts``, with sides of at most 2
    points at 3 rounds, where the oracle's tree of (moves * replies)^rounds
    positions is largest."""
    if rounds >= 3:
        options.update(max_left=2, max_right=2)
    return data.draw(pairs_and_starts(**options))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_windowed_value_is_fail_soft(data):
    # one solver answers a drawn sequence of windows at the start, so that
    # later queries read the (lower, upper) bounds that earlier ones stored;
    # a result g <= alpha bounds the value from above, g >= beta from below,
    # and any g in between is the value
    rounds = data.draw(st.integers(0, 3))
    pair, left, right = oracle_sized_case(data, rounds)
    depth = data.draw(st.integers(0, 2))
    solver = GameSolver(pair, depth)
    start = Position(left, right)
    key = solver._enter(start, rounds)
    expected = helpers.brute_force_game_value(pair, left, right, rounds, depth)
    value = expected * solver._den
    assert value.denominator == 1
    leaf = solver._leaf_at(key)
    # windows below the leaf, above it, around it and around the value
    anchors = sorted({leaf - 1, leaf, leaf + 1, value - 1, value, value + 1})
    anchors = [game._LOW] + anchors + [game._HIGH]
    windows = data.draw(
        st.lists(
            st.tuples(st.sampled_from(anchors), st.sampled_from(anchors)).filter(
                lambda window: window[0] < window[1]
            ),
            min_size=1,
            max_size=6,
        )
    )
    for alpha, beta in windows:
        g = solver._value(key, rounds, alpha, beta)
        if g <= alpha:
            assert value <= g
        elif g >= beta:
            assert value >= g
        else:
            assert value == g
    assert solver.value(start, rounds) == expected
    if rounds:
        assert solver.best_move(start, rounds) == helpers.first_best_move(
            pair, left, right, rounds, depth
        )
        for side, element in solver._moves:
            assert solver.best_reply(start, side, element, rounds) == helpers.first_best_reply(
                pair, left, right, side, element, rounds, depth
            )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_certificates_match_the_oracle_node_by_node(data):
    # the value is solved first, so the certificates are built over a memo
    # that holds bound entries; each node of either DAG, at the first
    # position that reaches it, plays the oracle's first best choice
    rounds = data.draw(st.integers(1, 3))
    pair, left, right = oracle_sized_case(data, rounds, max_start=1, functions=False)
    solver = GameSolver(pair)
    start = Position(left, right)
    solver.value(start, rounds)
    seen = set()

    def check_ii(node, position, rounds):
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        for (side, element), (reply, child) in node.responses.items():
            expected, _ = helpers.first_best_reply(
                pair, position.left, position.right, side, element, rounds
            )
            assert reply == expected
            check_ii(child, solver.child(position, side, element, reply), rounds - 1)

    def check_i(node, position, rounds):
        if node is None or id(node) in seen:
            return
        seen.add(id(node))
        side, element, _ = helpers.first_best_move(pair, position.left, position.right, rounds)
        assert (node.side, node.element) == (side, element)
        for reply, child in node.continuations.items():
            check_i(child, solver.child(position, side, element, reply), rounds - 1)

    check_ii(solver.ii_strategy_tree(start, rounds), start, rounds)
    check_i(solver.i_witness_tree(start, rounds), start, rounds)


# A spoiler move on a covered point is answered by its stay, whose child is
# the key itself, so a value search on set keys scans only the moves on
# uncovered points; the scans that name a move (best moves and replies, the
# certificates, the dynamic line) keep every move, because a covered move
# can be the first best one on ties.


def identical_sides_pair() -> NamedPair:
    rng = random.Random(7)
    side = helpers.random_structure(rng, helpers.random_signature(rng), n_points=3)
    return NamedPair(side, side)


def test_covered_move_is_first_best_on_identical_sides():
    # II copies every move, so every move is worth 0 and the first, L0, is
    # the best one, though (0, 0) covers it
    pair = identical_sides_pair()
    solver = GameSolver(pair)
    start = Position((0,), (0,))
    assert solver.value(start, 2) == 0
    assert solver.best_move(start, 2) == ("L", 0, 0)
    assert helpers.first_best_move(pair, (0,), (0,), 2) == ("L", 0, 0)
    for side, element in solver._moves:
        assert solver.best_reply(start, side, element, 2) == helpers.first_best_reply(
            pair, (0,), (0,), side, element, 2
        )
    root = solver.ii_strategy_tree(start, 2)
    assert set(root.responses) == set(solver._moves)
    node = solver.i_witness_tree(start, 2)
    assert (node.side, node.element) == ("L", 0)


def expanded_moves(solver, solve) -> set:
    """(key, side, element, covered) for every move that a scan run by
    ``solve()`` expands: a scan keys each reply of a move it expands
    through ``_child`` at two rounds or more."""
    scans, expanded = [], set()
    scan, child = solver._scan, solver._child

    def tracked_scan(key, *args, **kwargs):
        scans.append(key)
        try:
            return scan(key, *args, **kwargs)
        finally:
            scans.pop()

    def tracked_child(key, side, element, reply):
        if scans and scans[-1] is key:
            covered = element in {q[0 if side == "L" else 1] for q in key}
            expanded.add((key, side, element, covered))
        return child(key, side, element, reply)

    solver._scan, solver._child = tracked_scan, tracked_child
    try:
        solve()
    finally:
        del solver._scan, solver._child
    return expanded


def test_value_search_skips_covered_moves():
    pair = distance_witness_pair(F(1, 2), 3)
    start = Position((0, 1), (0, 1))
    solver = GameSolver(pair)
    expanded = expanded_moves(solver, lambda: solver.value(start, 3))
    assert expanded and not any(covered for *_, covered in expanded)
    assert solver.value(start, 3) == helpers.brute_force_game_value(pair, (0, 1), (0, 1), 3)
    # the scans that name a move expand the covered ones too
    root = solver._enter(start)
    for solve in (
        lambda: solver.best_move(start, 3),
        lambda: solver.ii_strategy_tree(start, 3),
        lambda: solver.i_witness_tree(start, 3),
    ):
        covered = {move for move in expanded_moves(solver, solve) if move[3]}
        assert {(side, element) for key, side, element, _ in covered if key == root} == {
            ("L", 0), ("L", 1), ("R", 0), ("R", 1)
        }


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_value_from_mostly_covered_starts_matches_the_oracles(data):
    # starts of 3-4 played pairs, often one repeated, leave few points
    # uncovered, so most of I's moves are covered and skipped
    pair, left, right = data.draw(pairs_and_starts(max_start=data.draw(st.integers(3, 4))))
    depth = data.draw(st.integers(0, 2))
    rounds = data.draw(st.integers(1, 2))
    start = Position(left, right)
    solver = GameSolver(pair, depth)
    assert solver.value(start, rounds) == helpers.brute_force_game_value(
        pair, left, right, rounds, depth
    )
    assert solver.best_move(start, rounds) == helpers.first_best_move(
        pair, left, right, rounds, depth
    )
    if pair.left.size * pair.right.size <= 6:
        assert omega_game_value_atomic(pair, depth, start) == helpers.value_iteration_omega(
            pair, depth, start
        )


# A value search orders II's replies by the solver's history: a move's
# replies start at the one that last refuted it, while I's moves keep
# canonical order.  The history carries over from one call to the next, the
# searches below a certificate included; no value may depend on it, and the
# scans that name a move keep canonical order.


def history_is_used(solver) -> bool:
    """Some refutation moved a reply loop's start off canonical order."""
    return any(any(solver._orders[side][1]) for side in ("L", "R"))


def test_every_scan_tries_the_moves_in_canonical_order():
    # wrapped like expanded_moves: the moves each scan keys a child of, in
    # the order it keys them, follow ``_moves`` after a history is set
    pair = distance_witness_pair(F(1, 2), 6)
    solver = GameSolver(pair)
    scans, tried = [], []
    scan, child = solver._scan, solver._child

    def tracked_scan(key, *args, **kwargs):
        scans.append([])
        try:
            return scan(key, *args, **kwargs)
        finally:
            tried.append(scans.pop())

    def tracked_child(key, side, element, reply):
        if scans and (side, element) not in scans[-1]:
            scans[-1].append((side, element))
        return child(key, side, element, reply)

    solver._scan, solver._child = tracked_scan, tracked_child
    try:
        for rounds in (2, 3, 4, 3):
            solver.value(Position(), rounds)
    finally:
        del solver._scan, solver._child
    assert history_is_used(solver)
    order = {move: i for i, move in enumerate(solver._moves)}
    assert sum(len(moves) > 1 for moves in tried) > 10
    for moves in tried:
        assert [order[move] for move in moves] == sorted(order[move] for move in moves)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_values_with_a_carried_history_match_fresh_solvers(data):
    pair = data.draw(pairs(near=True))
    depth = data.draw(st.integers(0, 1))
    small = pair.left.size <= 2 and pair.right.size <= 2
    queries = data.draw(st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, pair.left.size - 1),
                               st.integers(0, pair.right.size - 1)), max_size=2),
            st.integers(0, 3 if small else 2),
        ),
        min_size=2, max_size=5,
    ))
    solver = GameSolver(pair, depth)
    for played, rounds in queries:
        left, right = tuple(a for a, _ in played), tuple(b for _, b in played)
        start = Position(left, right)
        expected = helpers.brute_force_game_value(pair, left, right, rounds, depth)
        assert solver.value(start, rounds) == expected
        assert GameSolver(pair, depth).value(start, rounds) == expected


@pytest.mark.parametrize("pair, rounds", [
    pytest.param(distance_witness_pair(F(1, 2), 5), 3, id="distance-witness-5"),
    pytest.param(helpers.random_pair(random.Random(5), max_points=4), 3, id="random-4"),
    pytest.param(
        helpers.random_pair(random.Random(6), max_points=3, with_constant=True,
                            with_ternary=True), 2, id="random-ternary",
    ),
])
def test_value_searches_leave_the_named_moves_and_certificates(pair, rounds, tmp_path):
    # one solver searches values first, at every start of one played pair
    # and every rounds, so that its history is set; then its best move,
    # best replies and certificates equal a fresh solver's, byte for byte
    # in the certificate file
    def named(solver, path):
        start = Position()
        answers = [solver.best_move(start, rounds)]
        answers += [solver.best_reply(start, *move, rounds) for move in solver._moves]
        result = game.GameValueResult(
            solver.value(start, rounds), rounds, 0,
            solver.ii_strategy_tree(start, rounds), solver.i_witness_tree(start, rounds),
        )
        game.strategy_to_json(result, path)
        return answers, path.read_bytes()

    searched = GameSolver(pair)
    for a, b in product(range(pair.left.size), range(pair.right.size)):
        for r in range(rounds + 1):
            searched.value(Position((a,), (b,)), r)
    searched.value(Position(), rounds)
    assert history_is_used(searched)
    assert named(searched, tmp_path / "searched.json") == named(
        GameSolver(pair), tmp_path / "fresh.json")


@settings(max_examples=40, deadline=None)
@given(pairs(), st.integers(1, 3))
def test_certificates_do_not_depend_on_the_reply_order(tmp_path_factory, pair, rounds):
    # the value searches below a certificate order II's replies by the
    # history, which a scan that names a move never sees: it compares each
    # child's fail-soft result with its window, and the side of the window
    # a result falls on depends on the child's value alone.  So both
    # certificates, built after value searches from other starts have set a
    # history, are byte for byte those of a solver whose every reply
    # rotation is canonical order
    depth = 1 if pair.signature.functions else 0

    def certificate_bytes(canonical: bool) -> bytes:
        solver = GameSolver(pair, depth)
        if canonical:
            for rotations, _ in solver._orders.values():
                rotations[:] = [rotations[0]] * len(rotations)
        for a, b in product(range(pair.left.size), range(pair.right.size)):
            solver.value(Position((a,), (b,)), rounds)
        ii_tree = solver.ii_strategy_tree(Position(), rounds)
        i_tree = solver.i_witness_tree(Position(), rounds)
        result = game.GameValueResult(i_tree.value, rounds, depth, ii_tree, i_tree)
        path = tmp_path_factory.mktemp("certificate") / "cert.json"
        game.strategy_to_json(result, path)
        return path.read_bytes()

    assert certificate_bytes(False) == certificate_bytes(True)
