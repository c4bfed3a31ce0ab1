"""Finite-game solver: leaf discrepancy, minimax values, certificates, REPL."""

import dataclasses
import inspect
import io
import json
import random
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.formulas import (
    enumerate_atomic,
    evaluate,
    is_delta_formula,
    qr,
    sample_formulas,
    theta_of,
)
from clgames.game import (
    GameSolver,
    IIStrategyNode,
    IWitnessNode,
    Position,
    ResourceCapError,
    _node_table,
    atomic_discrepancy,
    game_value,
    is_partial_eps_delta_iso,
    play_interactive,
    strategy_to_json,
    winning_strategy,
)
from clgames.infinitary import (
    build_nested_levels_pair,
    dynamic_game_value,
    r_alpha,
)
from clgames.moduli import capped_linear, identity_modulus, linear_modulus
from clgames.structures import (
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    expand_with_constants,
)
from clgames.witnesses import cardinality_witness_pair, discrete_structure, distance_witness_pair

import helpers

F = Fraction

PAIR_55 = cardinality_witness_pair(F(1, 4))
START_11 = Position((1,), (1,))


class TestAtomicDiscrepancy:
    def test_empty_position(self):
        assert atomic_discrepancy(PAIR_55, Position()) == 0

    def test_near_pair_mismatch(self):
        assert atomic_discrepancy(PAIR_55, Position((1, 1), (1, 2))) == F(1, 8)

    def test_matching_pair(self):
        assert atomic_discrepancy(PAIR_55, Position((0, 1), (0, 1))) == 0

    def test_matches_plain_leaf_on_random_positions(self):
        # up to 6 pairs, with repeats: longer than any atom, so the solver
        # scores them through their subsets of the largest atom's width
        rng = random.Random(6)
        for extras in ({}, {"with_constant": True}, {"with_constant": True, "with_ternary": True}):
            for _ in range(4):
                pair = helpers.random_pair(rng, **extras)
                for _ in range(5):
                    k = rng.randint(0, 6)
                    left = tuple(rng.randrange(pair.left.size) for _ in range(k))
                    right = tuple(rng.randrange(pair.right.size) for _ in range(k))
                    assert atomic_discrepancy(pair, Position(left, right)) == helpers.plain_leaf(
                        pair, left, right
                    )

    def test_ternary_atom_on_three_distinct_pairs(self):
        # the pair differs only at T(p0, p1, p2), which no two played pairs
        # can show
        rng = random.Random(7)
        sig = helpers.random_signature(rng, with_ternary=True)
        left = helpers.random_structure(rng, sig, n_points=3)
        old = left.predicate_tables["T"][(0, 1, 2)]
        tables = {name: dict(table) for name, table in left.predicate_tables.items()}
        tables["T"][(0, 1, 2)] = F(1) if old < F(1, 2) else F(0)
        pair = NamedPair(left, dataclasses.replace(left, predicate_tables=tables))
        gap = abs(tables["T"][(0, 1, 2)] - old)
        for played in ((0, 1), (0, 1, 2), (2, 0, 1, 0), (1, 2, 0, 2, 1)):
            expected = helpers.plain_leaf(pair, played, played)
            assert expected == (gap if len(set(played)) == 3 else 0)
            assert atomic_discrepancy(pair, Position(played, played)) == expected

    def test_invalid_position_rejected(self):
        with pytest.raises(ValueError):
            atomic_discrepancy(PAIR_55, Position((0,), (9,)))

    @pytest.mark.parametrize("constants", [(), ("c",), ("c", "e")])
    def test_one_pair_leaf_table_matches_the_scorer(self, constants):
        # the pairwise search tabulates leaf({p}) from the atoms on p alone,
        # P(p) and R(p, p), not with the scorer; the constants' atoms are not
        # in it, as the key carries the constants' pairs; both sides' tables
        # must hold the scorer's value at every one-pair key
        rng = random.Random(len(constants))
        mod = capped_linear(2)
        sig = Signature(
            predicates=(PredicateSymbol("P", 1, mod), PredicateSymbol("R", 2, mod)),
            constants=constants,
        )
        for _ in range(20):
            pair = NamedPair(*(helpers.random_structure(rng, sig, max_points=5) for _ in "LR"))
            solver = GameSolver(pair)
            tables = solver._ply_tables()
            for a in range(pair.left.size):
                for b in range(pair.right.size):
                    score = solver._score(((a, b),))
                    assert tables["L"][0][a][b] == score
                    assert tables["R"][0][b][a] == score


class TestPartialIso:
    def test_epsilon_one_always_passes(self):
        pos = Position((0, 1), (2, 0))
        assert is_partial_eps_delta_iso(PAIR_55, pos, F(1), identity_modulus())

    def test_threshold_at_discrepancy(self):
        pos = Position((1, 1), (1, 2))
        delta = capped_linear(2)
        assert is_partial_eps_delta_iso(PAIR_55, pos, F(1, 8), delta)
        assert not is_partial_eps_delta_iso(PAIR_55, pos, F(1, 16), delta)

    def test_constants_forced(self):
        # once the left constant is in the map, any response other than the
        # right constant fails for small eps
        sig = Signature(constants=("c",))
        left = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            constant_map={"c": 0},
        )
        right = MetricStructure(
            signature=sig,
            points=("u", "v"),
            dist=((F(0), F(1)), (F(1), F(0))),
            constant_map={"c": 0},
        )
        pair = NamedPair(left, right)
        delta = capped_linear(2)
        good = Position((0,), (0,))
        bad = Position((0,), (1,))
        for eps in (F(1, 2), F(1, 4), F(1, 100)):
            assert is_partial_eps_delta_iso(pair, good, eps, delta)
            assert not is_partial_eps_delta_iso(pair, bad, eps, delta)

    def test_holds_at_the_oracle_gap_and_fails_just_below(self):
        # the left side's denominators divide 210 and the right side's 8, so
        # the check's common denominator is a real lcm; P's identity modulus
        # keeps the distance and R atoms out of the identity delta's atoms
        sig = Signature(
            predicates=(
                PredicateSymbol("P", 1, identity_modulus()),
                PredicateSymbol("R", 2, capped_linear(2)),
            )
        )
        coprime = {"values": helpers.COPRIME_VALUE_GRID, "distances": helpers.COPRIME_DIST_GRID}
        rng = random.Random(23)
        for _ in range(6):
            pair = NamedPair(
                helpers.random_structure(rng, sig, max_points=4, **coprime),
                helpers.random_structure(rng, sig, max_points=4),
            )
            for delta in (identity_modulus(), capped_linear(2)):
                for k in range(4):
                    pos = Position(
                        tuple(rng.randrange(pair.left.size) for _ in range(k)),
                        tuple(rng.randrange(pair.right.size) for _ in range(k)),
                    )
                    atoms = [
                        atom for atom in enumerate_atomic(sig, k)
                        if is_delta_formula(atom, sig, delta)
                    ]
                    gap = helpers._max_gap(pair, atoms, pos.left, pos.right)
                    assert is_partial_eps_delta_iso(pair, pos, gap, delta)
                    if gap:
                        below = gap - F(1, 10**9)
                        assert not is_partial_eps_delta_iso(pair, pos, below, delta)


@settings(max_examples=30, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    kind=st.sampled_from(["constant", "function", "ternary"]),
)
def test_partial_iso_matches_the_fraction_walk(rng, kind):
    """At every position of at most two pairs, for three deltas (t/2 admits
    no atom), the check holds exactly when epsilon reaches the largest gap
    of the delta-atoms under ``helpers.fraction_evaluate``, 0 for none.  The
    epsilons are each atom's gap, one unit of the sides' common denominator
    below it, and a negative one; the unary function plays at term depth 1."""
    pair = helpers.random_pair(rng, max_points=3, **{f"with_{kind}": True})
    sig, term_depth = pair.signature, int(kind == "function")
    unit = F(1, lcm(pair.left.integer_form.den, pair.right.integer_form.den))
    for delta in (identity_modulus(), capped_linear(2), linear_modulus(F(1, 2))):
        for k in range(3):
            atoms = [
                a for a in enumerate_atomic(sig, k, term_depth) if is_delta_formula(a, sig, delta)
            ]
            for left, right in product(
                product(range(pair.left.size), repeat=k), product(range(pair.right.size), repeat=k)
            ):
                env_l, env_r = dict(enumerate(left)), dict(enumerate(right))
                gaps = {
                    abs(helpers.fraction_evaluate(a, pair.left, env_l)
                        - helpers.fraction_evaluate(a, pair.right, env_r))
                    for a in atoms
                }
                worst = max(gaps, default=F(0))
                for eps in {*gaps, *(gap - unit for gap in gaps), F(-1)}:
                    got = is_partial_eps_delta_iso(pair, Position(left, right), eps, delta, term_depth)
                    assert got == (worst <= eps), (left, right, eps)


class TestGameValue:
    def test_isomorphic_pair_is_zero(self):
        rng = random.Random(14)
        for _ in range(5):
            s = helpers.random_structure(rng, helpers.random_signature(rng), max_points=3)
            pair = NamedPair(s, helpers.permuted_copy(s, rng))
            for n in (0, 1, 2):
                assert game_value(pair, rounds=n, build_strategies=False).value == 0

    def test_cardinality_witness_values(self):
        for n in (1, 2, 3):
            result = game_value(PAIR_55, start=START_11, rounds=n, build_strategies=False)
            assert result.value == F(1, 8)

    def test_agrees_with_brute_force(self):
        rng = random.Random(15)
        for _ in range(6):
            pair = helpers.random_pair(rng, max_points=3)
            for n in (0, 1, 2):
                expected = helpers.brute_force_game_value(pair, (), (), n)
                assert game_value(pair, rounds=n, build_strategies=False).value == expected

    def test_monotone_in_rounds(self):
        rng = random.Random(16)
        for _ in range(6):
            pair = helpers.random_pair(rng, max_points=3)
            values = [game_value(pair, rounds=n, build_strategies=False).value for n in range(4)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_distance_witness_brute_bound(self):
        for m in (3, 6):
            pair = distance_witness_pair(F(1, 2), m)
            v1 = game_value(pair, rounds=1, build_strategies=False).value
            assert v1 <= F(1, m + 1)
            v2 = game_value(pair, rounds=2, build_strategies=False).value
            assert v2 == F(1, m + 1)

    def test_set_abstraction_matches_ordered_search(self):
        # relational pairs (constants included) are solved over sets of
        # played pairs; starts with a repeated, reordered pair must agree
        # with the ordered oracle
        rng = random.Random(17)
        for with_constant, with_ternary in ((False, False), (True, False), (True, True)):
            for _ in range(3):
                pair = helpers.random_pair(
                    rng, max_points=3, with_constant=with_constant, with_ternary=with_ternary
                )
                assert pair.signature.is_relational
                a, c = (rng.randrange(pair.left.size) for _ in range(2))
                b, d = (rng.randrange(pair.right.size) for _ in range(2))
                for left, right in (((), ()), ((a, c), (b, d)), ((c, a, c), (d, b, d))):
                    for n in (1, 2):
                        expected = helpers.brute_force_game_value(pair, left, right, n)
                        start = Position(left, right)
                        result = game_value(pair, start=start, rounds=n, build_strategies=False)
                        assert result.value == expected

    def test_ordered_positions_with_function_symbols_match_brute_force(self):
        rng = random.Random(18)
        for _ in range(4):
            pair = helpers.random_pair(rng, max_points=3, with_constant=True, with_function=True)
            assert not pair.signature.is_relational
            for n in (0, 1, 2):
                expected = helpers.brute_force_game_value(pair, (), (), n, term_depth=1)
                result = game_value(pair, rounds=n, term_depth=1, build_strategies=False)
                assert result.value == expected

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            game_value(PAIR_55, rounds=-1)

    def test_negative_term_depth_rejected(self):
        with pytest.raises(ValueError, match="term depth"):
            game_value(PAIR_55, rounds=1, term_depth=-1)

    def test_rounds_deeper_than_the_stack_rejected(self):
        # the value clamps at the five uncovered points, but the certificates
        # span all 5000 rounds, so their build is refused before it starts
        with pytest.raises(ValueError, match="recursion"):
            game_value(PAIR_55, rounds=5000)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError) as err:
            game_value(PAIR_55, rounds=3, build_strategies=False, max_positions=5)
        assert "5" in str(err.value)
        # the cap is shared, so the error names the table that reached it;
        # every child's leaf is scored from its parent's, so the value
        # solve holds the root's leaf alone
        assert err.value.cap == 5 and err.value.table == "value"
        assert err.value.entries == {"leaf": 1, "value": 4}
        assert str(err.value).startswith("position table would exceed the cap of 5 entries;")
        assert "value table" in str(err.value)
        # the certificates are built before the value is read, and each
        # node looks up the leaf of its key: at a cap of 20 the duplicator's
        # certificate holds 1 node over 2 leaves and 17 values, and the
        # next node's leaf is the entry past the cap
        with pytest.raises(ResourceCapError) as err:
            game_value(PAIR_55, rounds=3, max_positions=20)
        assert err.value.cap == 20 and err.value.table == "leaf"
        assert err.value.entries == {"leaf": 2, "value": 17, "certificate": 1}
        assert "leaf table" in str(err.value)
        for cap in (0, -3):
            with pytest.raises(ValueError, match="at least 1"):
                game_value(PAIR_55, rounds=1, max_positions=cap)

    def test_tightened_entry_charged_once(self):
        # a value entry holds (lower, upper) bounds, and a later search in
        # another window may tighten it: the solve that does so fits a cap
        # of exactly its distinct entries, and not one fewer
        class Writes(dict):
            count = 0

            def __setitem__(self, key, value):
                self.count += 1
                super().__setitem__(key, value)

        solver = GameSolver(PAIR_55)
        solver._tables["value"] = solver._values = Writes()
        assert solver.value(Position(), 3) == F(1, 8)
        entries = len(solver._leaf) + len(solver._values)
        assert solver._values.count > len(solver._values)
        assert GameSolver(PAIR_55, max_positions=entries).value(Position(), 3) == F(1, 8)
        with pytest.raises(ResourceCapError) as err:
            GameSolver(PAIR_55, max_positions=entries - 1).value(Position(), 3)
        assert sum(err.value.entries.values()) == entries - 1

    @pytest.mark.parametrize("pair, rounds, after_value, after_certificates", [
        pytest.param(
            distance_witness_pair(F(1, 2), 16), 2, {"leaf": 1, "value": 64},
            {"leaf": 35, "value": 290, "certificate": 37}, id="distance-witness-16",
        ),
        pytest.param(
            build_nested_levels_pair(4, 2), 3, {"leaf": 1, "value": 30},
            {"leaf": 91, "value": 331, "certificate": 113}, id="nested-levels-4",
        ),
        pytest.param(
            PAIR_55, 6, {"leaf": 1, "value": 18},
            {"leaf": 17, "value": 39, "certificate": 80}, id="cardinality-witness",
        ),
    ])
    def test_table_sizes(self, pair, rounds, after_value, after_certificates):
        # the entries of each memo table after the value and after both
        # certificates: a lost cutoff or an extra memo entry changes them;
        # the value solve memoizes the root's leaf only
        solver = GameSolver(pair)
        solver.value(Position(), rounds)
        assert {name: len(table) for name, table in solver._tables.items()} == after_value
        solver.ii_strategy_tree(Position(), rounds)
        solver.i_witness_tree(Position(), rounds)
        assert {name: len(table) for name, table in solver._tables.items()} == after_certificates

    def test_resource_cap_from_environment(self, monkeypatch):
        monkeypatch.setenv("CLGAMES_MAX_POSITIONS", "5")
        with pytest.raises(ResourceCapError):
            game_value(PAIR_55, rounds=3, build_strategies=False)
        for raw in ("bogus", "0", "-3"):
            monkeypatch.setenv("CLGAMES_MAX_POSITIONS", raw)
            with pytest.raises(ValueError, match="CLGAMES_MAX_POSITIONS"):
                game_value(PAIR_55, rounds=1, build_strategies=False)


# every public solver method that takes a position checks the rounds, the
# position and the depth of its search itself
@pytest.mark.parametrize("solve, message", [
    pytest.param(
        lambda: GameSolver(PAIR_55).value(Position(), -1),
        "^rounds must be non-negative, got -1$", id="value-negative-rounds",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).best_move(Position(), 0),
        "^rounds must be at least 1, got 0$", id="best-move-no-round",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).best_reply(Position(), "L", 0, 0),
        "^rounds must be at least 1, got 0$", id="best-reply-no-round",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).ii_strategy_tree(Position(), 3000),
        "^3000 rounds need a recursion deeper", id="ii-tree-too-deep",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).i_witness_tree(Position(), 3000),
        "^3000 rounds need a recursion deeper", id="i-tree-too-deep",
    ),
    pytest.param(
        lambda: r_alpha(PAIR_55, alpha=-1),
        "^alpha must be non-negative, got -1$", id="ralpha-negative-clock",
    ),
    pytest.param(
        lambda: dynamic_game_value(PAIR_55, -1),
        "^clock must be non-negative, got -1$", id="dynamic-negative-clock",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).leaf(Position((9,), (0,))),
        "^left point index 9 out of range$", id="leaf-bad-position",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).value(Position((0,), (9,)), 1),
        "^right point index 9 out of range$", id="value-bad-position",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).best_reply(Position((9,), (0,)), "L", 0, 1),
        "^left point index 9 out of range$", id="best-reply-bad-position",
    ),
    # the spoiler's move is checked too: a side other than "L" or "R", and
    # an element that is no point of that side (a bool or a negative index
    # was answered as if it named a point)
    pytest.param(
        lambda: GameSolver(PAIR_55).best_reply(Position(), "L", 99, 1),
        "^left point index 99 out of range$", id="best-reply-element-past-the-side",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).best_reply(Position(), "X", 0, 1),
        "^side must be 'L' or 'R', got 'X'$", id="best-reply-unknown-side",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).best_reply(Position(), "R", -1, 1),
        "^right point index -1 out of range$", id="best-reply-negative-element",
    ),
    pytest.param(
        lambda: GameSolver(PAIR_55).best_reply(Position(), "L", True, 1),
        "^left point index True out of range$", id="best-reply-bool-element",
    ),
])
def test_solver_entry_rejects_bad_input_in_one_line(solve, message):
    with pytest.raises(ValueError, match=message) as err:
        solve()
    assert "\n" not in str(err.value)


TERNARY_PAIR = helpers.random_pair(random.Random(7), max_points=3, with_ternary=True)
FUNCTION_PAIR = helpers.random_pair(random.Random(8), max_points=3, with_function=True)
DISCRETE_22 = NamedPair(discrete_structure(2), discrete_structure(2))


# GameSolver._enter refuses a search too deep for the stack before it
# starts; at the least recursion limit it admits, every kind of search fits
@pytest.mark.parametrize("solve, rounds", [
    # the value clamps at the 5 points left uncovered
    pytest.param(lambda: GameSolver(PAIR_55).value(Position(), 12), 12, id="pairwise-value"),
    pytest.param(lambda: GameSolver(TERNARY_PAIR).value(Position(), 3), 3, id="ternary-value"),
    pytest.param(
        lambda: GameSolver(FUNCTION_PAIR, 1).value(Position(), 3), 3, id="function-value",
    ),
    pytest.param(lambda: GameSolver(PAIR_55).best_move(Position(), 4), 4, id="best-move"),
    pytest.param(
        lambda: GameSolver(TERNARY_PAIR).best_move(Position(), 3), 3, id="ternary-best-move",
    ),
    # the certificates span all 30 rounds, past the 4 uncovered points
    pytest.param(
        lambda: GameSolver(DISCRETE_22).ii_strategy_tree(Position(), 30), 30, id="ii-tree",
    ),
    pytest.param(
        lambda: GameSolver(DISCRETE_22).i_witness_tree(Position(), 30), 30, id="i-tree",
    ),
])
def test_search_fits_the_least_limit_the_depth_rule_admits(solve, rounds):
    expected = solve()
    result = helpers.solve_at_least_admitted_limit(solve, rounds)
    if isinstance(expected, (IIStrategyNode, IWitnessNode)):
        # a certificate compares as its node table's JSON text: compared as
        # a tree, its shared nodes would be visited once per play
        result, expected = _node_table(result), _node_table(expected)
    assert result == expected


DISCRETE_1212 = NamedPair(discrete_structure(12), discrete_structure(12))


class CallHop:
    """A call through a class's ``__call__``: Python 3.10 and 3.11 count it
    against the recursion limit twice, as a frame and as a C-level call."""

    def __call__(self, hops: int, call):
        return self(hops - 1, call) if hops else call()


# a search the depth rule admits below a caller deep in C-level calls can
# still outgrow the stack on Python 3.10 and 3.11: it is refused in the
# rule's one line, and the solver answers a shallower call as before
@pytest.mark.parametrize("search", [
    pytest.param(lambda solver, r: solver.value(Position(), r), id="value"),
    pytest.param(lambda solver, r: solver.best_move(Position(), r), id="best-move"),
    pytest.param(lambda solver, r: solver.best_reply(Position(), "L", 0, r), id="best-reply"),
    pytest.param(lambda solver, r: solver.ii_strategy_tree(Position(), r), id="ii-tree"),
    pytest.param(lambda solver, r: solver.i_witness_tree(Position(), r), id="i-tree"),
    pytest.param(
        lambda solver, r: r_alpha(solver.pair, alpha=r, max_positions=solver.cap), id="r-alpha",
    ),
    pytest.param(
        lambda solver, r: dynamic_game_value(solver.pair, r, max_positions=solver.cap),
        id="dynamic",
    ),
])
def test_overflow_below_c_level_calls_is_refused_in_one_line(search):
    saved = sys.getrecursionlimit()

    def deep(solver, rounds):
        limit = len(inspect.stack(0)) + 60
        sys.setrecursionlimit(limit)
        try:
            search(solver, rounds)
        except ResourceCapError:
            return "over the cap"
        except ValueError as err:
            assert str(err) == (
                f"{rounds} rounds need a recursion deeper than the interpreter's "
                f"limit of {limit} frames; use fewer rounds"
            )
            return "refused"
        finally:
            sys.setrecursionlimit(saved)
        return "answered"

    for rounds in range(12, 18):
        solver = GameSolver(DISCRETE_1212, max_positions=3000)
        if CallHop()(30, lambda: deep(solver, rounds)) == "refused":
            # a refusal while reporting a full table leaves no room
            if solver._entries < solver.cap:
                assert CallHop()(30, lambda: solver.value(Position(), 3)) == 0


class TestCertificates:
    def exhaustive_check(self, pair, rounds):
        result = game_value(pair, rounds=rounds)
        worst = helpers.worst_leaf_following_ii(pair, Position(), result.ii_strategy)
        best = helpers.best_leaf_against_i(pair, Position(), result.i_witness)
        assert worst <= result.value
        assert best >= result.value

    def test_shared_nodes_match_the_unshared_trees(self, tmp_path):
        # the trees share one node per (set of pairs, rounds); rebuilt over
        # ordered positions from the public best move and reply, node by
        # node, they give the same JSON, and their files' tables (one node
        # per tree node for the rebuilt trees) expand to the same trees
        def ii_tree(solver, position, rounds):
            if rounds == 0:
                return None
            responses = {}
            for side, size in (("L", solver.pair.left.size), ("R", solver.pair.right.size)):
                for element in range(size):
                    reply, _ = solver.best_reply(position, side, element, rounds)
                    child = solver.child(position, side, element, reply)
                    responses[side, element] = (reply, ii_tree(solver, child, rounds - 1))
            return IIStrategyNode(responses)

        def i_tree(solver, position, rounds):
            if rounds == 0:
                return None
            side, element, value = solver.best_move(position, rounds)
            size = solver.pair.right.size if side == "L" else solver.pair.left.size
            return IWitnessNode(side, element, {
                reply: i_tree(solver, solver.child(position, side, element, reply), rounds - 1)
                for reply in range(size)
            }, value)

        rng = random.Random(20)
        cases = [(PAIR_55, START_11, 3), (PAIR_55, Position(), 4)]
        cases += [(helpers.random_pair(rng, max_points=3), Position(), 3) for _ in range(3)]
        shared, unshared = tmp_path / "shared.json", tmp_path / "unshared.json"
        for pair, start, rounds in cases:
            result = game_value(pair, start=start, rounds=rounds)
            solver = GameSolver(pair)
            trees = dataclasses.replace(
                result,
                ii_strategy=ii_tree(solver, start, rounds),
                i_witness=i_tree(solver, start, rounds),
            )
            assert helpers.strategy_dict(result.ii_strategy) == helpers.strategy_dict(
                trees.ii_strategy
            )
            assert helpers.strategy_dict(result.i_witness) == helpers.strategy_dict(
                trees.i_witness
            )
            # each spoiler node holds the value of its best move
            assert result.i_witness == trees.i_witness
            strategy_to_json(result, shared)
            strategy_to_json(trees, unshared)
            dag, tree = json.loads(shared.read_text()), json.loads(unshared.read_text())
            for name in ("ii_strategy", "i_witness"):
                assert helpers.tree_from_table(dag[name]) == helpers.tree_from_table(tree[name])
                assert len(dag[name]) < len(tree[name])

    def test_node_table_holds_the_distinct_nodes(self, tmp_path):
        # the 4-round tree has 1 + 5 + 5^2 + 5^3 = 156 II nodes, and 25 of
        # them are distinct (set of pairs, rounds): the table has 25 rows
        result = game_value(PAIR_55, rounds=4)
        nodes, stack = set(), [result.ii_strategy]
        while stack:
            node = stack.pop()
            if node is not None and id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(child for _, child in node.responses.values())
        assert len(nodes) == 25
        path = tmp_path / "cert.json"
        strategy_to_json(result, path)
        assert len(json.loads(path.read_text())["ii_strategy"]) == 25

    def test_certificates_sound_on_small_instances(self):
        rng = random.Random(18)
        for _ in range(5):
            pair = helpers.random_pair(rng, max_points=3)
            for rounds in (1, 2):
                self.exhaustive_check(pair, rounds)
        self.exhaustive_check(cardinality_witness_pair(F(1, 4)), 3)

    def test_certificates_counted_against_the_cap(self, monkeypatch, tmp_path):
        # from the empty start at 4 rounds the solve holds 17 leaf and 39
        # value entries, and the two certificates 44 nodes (25 of II's, 19
        # of I's) in the certificate table: 100 entries in all; the value is
        # read off I's root node, built last, which is the one past a cap
        # of 99
        result = game_value(PAIR_55, rounds=4, max_positions=100)
        with pytest.raises(ResourceCapError) as err:
            game_value(PAIR_55, rounds=4, max_positions=99)
        assert (err.value.cap, err.value.table) == (99, "certificate")
        assert err.value.entries == {"leaf": 17, "value": 39, "certificate": 43}
        assert "certificate table" in str(err.value)
        # a solve without certificates makes no certificate table
        solver = GameSolver(PAIR_55)
        solver.value(Position(), 4)
        assert set(solver._tables) == {"leaf", "value"}
        solver.ii_strategy_tree(Position(), 4)
        assert len(solver._tables["certificate"]) == 25
        solver.i_witness_tree(Position(), 4)
        assert len(solver._tables["certificate"]) == 44
        monkeypatch.setenv("CLGAMES_MAX_POSITIONS", "99")
        with pytest.raises(ResourceCapError, match="certificate 43"):
            game_value(PAIR_55, rounds=4)
        monkeypatch.delenv("CLGAMES_MAX_POSITIONS")
        # the writer has no cap of its own: the solve's cap bounded the nodes
        path = tmp_path / "cert.json"
        strategy_to_json(result, path)
        assert json.loads(path.read_text())["value"] == [1, 8]
        path.unlink()
        strategy_to_json(game_value(PAIR_55, rounds=0, max_positions=1), path)
        assert json.loads(path.read_text()) == {
            "value": [0, 1], "ii_strategy": None, "i_witness": None
        }
        path.unlink()
        with pytest.raises(TypeError, match="not a strategy node"):
            strategy_to_json(dataclasses.replace(result, ii_strategy="L:0"), path)
        assert not path.exists()

    def test_winning_strategy_sides(self):
        side, _ = winning_strategy(PAIR_55, rounds=2, epsilon=F(1))
        assert side == "II"
        # from the primed position the optimal replies are exactly the
        # pretend map 0->0, 1->1, 2->1
        side, tree = winning_strategy(PAIR_55, rounds=2, epsilon=F(1, 4), start=START_11)
        assert side == "II"
        replies = {move: reply for move, (reply, _) in tree.responses.items()}
        assert replies[("R", 0)] == 0 and replies[("R", 1)] == 1 and replies[("R", 2)] == 1
        assert replies[("L", 0)] == 0 and replies[("L", 1)] == 1

    def test_spoiler_witness_plays_the_near_points(self):
        side, tree = winning_strategy(PAIR_55, rounds=2, epsilon=F(1, 16))
        assert side == "I"
        assert tree.side == "R" and tree.element in (1, 2)
        other = 2 if tree.element == 1 else 1
        for child in tree.continuations.values():
            assert (child.side, child.element) == ("R", other)
        # replaying the witness forces at least the game value
        forced = helpers.best_leaf_against_i(PAIR_55, Position(), tree)
        assert forced >= F(1, 8) > F(1, 16)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            winning_strategy(PAIR_55, rounds=1, epsilon=F(0))

    @pytest.mark.parametrize(
        "epsilon, start, side", [(F(1), None, "II"), (F(1, 4), START_11, "II"), (F(1, 16), None, "I")]
    )
    def test_builds_only_the_returned_certificate(self, monkeypatch, epsilon, start, side):
        full = game_value(PAIR_55, start=start, rounds=2)
        expected = full.ii_strategy if side == "II" else full.i_witness

        def refuse(*args, **kwargs):
            raise AssertionError("the other certificate was built")

        other = "i_witness_tree" if side == "II" else "ii_strategy_tree"
        monkeypatch.setattr(f"clgames.game.GameSolver.{other}", refuse)
        got_side, tree = winning_strategy(PAIR_55, rounds=2, epsilon=epsilon, start=start)
        assert got_side == side
        assert helpers.strategy_dict(tree) == helpers.strategy_dict(expected)

    def test_strategy_json_round_trip_shape(self, tmp_path):
        result = game_value(PAIR_55, start=START_11, rounds=1)
        path = tmp_path / "cert.json"
        strategy_to_json(result, path)
        file = json.loads(path.read_text())
        assert list(file) == ["value", "ii_strategy", "i_witness"]
        assert file["value"] == [result.value.numerator, result.value.denominator]
        # one round: each table is its root, whose children are null
        [blob] = file["ii_strategy"]
        assert blob["kind"] == "duplicator"
        assert set(blob["responses"]) == {"L:0", "L:1", "R:0", "R:1", "R:2"}
        assert all(step["next"] is None for step in blob["responses"].values())
        [blob_i] = file["i_witness"]
        assert blob_i["kind"] == "spoiler" and ":" in blob_i["move"]
        assert set(blob_i["continuations"].values()) == {None}


class TestConstantsAreStartPairs:
    """The game from (a, b) is the game on the expansions that name a and b
    by a fresh constant: the kernel keys both by the same set of pairs."""

    @pytest.mark.parametrize("rounds", [1, 2, 3, 9])
    @pytest.mark.parametrize("extras, depth", [
        ({}, 0),
        ({"with_constant": True}, 0),
        ({"with_constant": True, "with_ternary": True}, 0),
        ({"with_constant": True, "with_function": True}, 1),
        ({"with_function": True}, 1),
    ], ids=["plain", "constant", "ternary", "function", "function-only"])
    def test_expansion_solves_the_same_game(self, extras, depth, rounds, tmp_path):
        rng = random.Random(f"{sorted(extras)}{rounds}")
        for i in range(6):
            pair = helpers.random_pair(rng, **extras)
            a, b = rng.randrange(pair.left.size), rng.randrange(pair.right.size)
            start = Position((a,), (b,))
            expanded = NamedPair(
                expand_with_constants(pair.left, [a]), expand_with_constants(pair.right, [b]))
            value = GameSolver(pair, depth).value(start, rounds)
            assert GameSolver(expanded, depth).value(Position(), rounds) == value
            if rounds <= 2:
                assert value == helpers.brute_force_game_value(pair, (a,), (b,), rounds, depth)
            # the same table entries for the value and for both certificates
            for solve in (GameSolver.value, GameSolver.ii_strategy_tree, GameSolver.i_witness_tree):
                sizes = []
                for solver, position in ((GameSolver(pair, depth), start),
                                         (GameSolver(expanded, depth), Position())):
                    solve(solver, position, rounds)
                    sizes.append({name: len(table) for name, table in solver._tables.items()})
                assert sizes[0] == sizes[1]
            if rounds <= 3:
                files = tmp_path / f"start{i}.json", tmp_path / f"expanded{i}.json"
                strategy_to_json(game_value(pair, start, rounds, depth), files[0])
                strategy_to_json(game_value(expanded, None, rounds, depth), files[1])
                assert files[0].read_bytes() == files[1].read_bytes()

    def test_constants_on_every_point_leave_only_the_leaf(self):
        # the start key covers both sides, so the rounds clamp at 0 and the
        # value is the leaf, with no value entry; a start key no wider than
        # an atom is one leaf entry, a wider one also memoizes its subsets
        rng = random.Random(36)
        for points, extras in ((2, {}), (2, {"with_ternary": True}), (4, {"with_constant": True})):
            for _ in range(4):
                pair = helpers.random_pair(rng, max_points=points, **extras)
                n = max(pair.left.size, pair.right.size)
                names = [list(range(n)), rng.sample(range(n), n)]
                expanded = NamedPair(*(
                    expand_with_constants(side, [i % side.size for i in named])
                    for side, named in zip((pair.left, pair.right), names)))
                solver = GameSolver(expanded)
                assert solver.value(Position(), 50) == helpers.plain_leaf(expanded, (), ())
                assert solver._tables["value"] == {}
                if points == 2:
                    assert len(solver._tables["leaf"]) == 1


class TestThetaSoundness:
    def test_value_gap_bounded_by_theta_of_game_value(self):
        rng = random.Random(19)
        sig = Signature(
            predicates=(
                PredicateSymbol("P", 1, capped_linear(2)),
                PredicateSymbol("Q", 2, capped_linear(2)),
            )
        )
        pairs = [
            NamedPair(
                helpers.random_structure(rng, sig, max_points=3),
                helpers.random_structure(rng, sig, max_points=3),
            )
            for _ in range(4)
        ]
        formulas = sample_formulas(sig, qr_bound=2, count=40, seed=23)
        for pair in pairs:
            solver = GameSolver(pair)
            game_values = {n: solver.value(Position(), n) for n in (0, 1, 2)}
            for phi in formulas:
                gap = abs(evaluate(phi, pair.left) - evaluate(phi, pair.right))
                theta = theta_of(phi, sig)
                assert gap <= theta.evaluate(game_values[qr(phi)])


class TestInteractivePlay:
    def test_scripted_duplicator_win(self):
        # the human spoils with the near points; the solver duplicates and
        # holds the discrepancy at eps/2 < eps
        stdin = io.StringIO("B p1\nB p2\n")
        stdout = io.StringIO()
        outcome = play_interactive(
            PAIR_55, rounds=2, epsilon=F(1, 4), human_side="I",
            in_stream=stdin, out_stream=stdout,
        )
        assert outcome["winner"] == "II"
        assert outcome["discrepancy"] == F(1, 8)
        assert "II wins at eps = 1/4" in stdout.getvalue()

    def test_malformed_move_reprompts(self):
        stdin = io.StringIO("Z nope\nB zz\nB p1\n")
        stdout = io.StringIO()
        outcome = play_interactive(
            PAIR_55, rounds=1, epsilon=F(1, 4), human_side="I",
            in_stream=stdin, out_stream=stdout,
        )
        assert outcome["winner"] == "II"
        text = stdout.getvalue()
        assert "malformed" in text and "no point" in text

    def test_zero_round_game_immediate_verdict(self):
        stdout = io.StringIO()
        outcome = play_interactive(
            PAIR_55, rounds=0, epsilon=F(1, 4), human_side="I",
            in_stream=io.StringIO(""), out_stream=stdout,
        )
        assert outcome["winner"] == "II" and outcome["discrepancy"] == 0

    def test_negative_rounds_rejected(self):
        stdout = io.StringIO()
        with pytest.raises(ValueError, match="non-negative"):
            play_interactive(
                PAIR_55, rounds=-1, epsilon=F(1, 4), in_stream=io.StringIO(""), out_stream=stdout
            )
        assert stdout.getvalue() == ""

    def test_refused_before_the_first_line_or_not_at_all(self):
        # at every recursion limit, a game too deep for the stack is refused
        # before play prints anything, and a game it starts is not refused
        # when the solver makes its first move
        pair = NamedPair(discrete_structure(3), discrete_structure(3))
        saved, depth, outcomes = sys.getrecursionlimit(), len(inspect.stack(0)), set()
        for limit in range(depth + 20, depth + 80):
            stdout = io.StringIO()
            try:
                sys.setrecursionlimit(limit)
                play_interactive(pair, rounds=4, epsilon=1, human_side="II",
                                 in_stream=io.StringIO(""), out_stream=stdout)
            except EOFError:
                assert "I plays" in stdout.getvalue()
                outcomes.add("ended")
            except ValueError as err:
                assert str(err).startswith("4 rounds need a recursion deeper")
                assert stdout.getvalue() == ""
                outcomes.add("refused")
            finally:
                sys.setrecursionlimit(saved)
        assert outcomes == {"refused", "ended"}

    def test_human_duplicator_against_solver(self):
        # the solver spoils optimally; whatever it opens with, the exchange
        # must complete and the verdict must match the final discrepancy
        stdin = io.StringIO("p0\np0\n")
        stdout = io.StringIO()
        outcome = play_interactive(
            PAIR_55, rounds=2, epsilon=F(1, 4), human_side="II",
            in_stream=stdin, out_stream=stdout,
        )
        assert len(outcome["transcript"]) == 2
        assert (outcome["winner"] == "II") == (outcome["discrepancy"] <= F(1, 4))
        assert "I plays" in stdout.getvalue()


@pytest.mark.parametrize("point", [True, 0.5, "0"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_start_off_the_point_indices_is_refused_in_one_line(point, side):
    # one rule with validate and evaluate: an int, not a bool, in range;
    # 0.5 and "0" reached the solver and failed there with a TypeError
    pair = distance_witness_pair(Fraction(1, 2), 3)
    start = Position((point,), (0,)) if side == "left" else Position((0,), (point,))
    with pytest.raises(ValueError) as caught:
        game_value(pair, start=start, rounds=1)
    assert str(caught.value) == f"{side} point index {point!r} out of range"
