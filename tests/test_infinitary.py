"""Rank recursion, dynamic-clock games, the infinite-game fixpoint, and the
coordinate-indexed leaf families."""

import hashlib
import inspect
import random
import sys
from fractions import Fraction

import pytest

from clgames.formulas import (
    Conn,
    Dist,
    Inf,
    Pred,
    Scale,
    Var,
    compile_formula,
    format_formula,
    modulus_of,
)
from clgames.game import GameSolver, Position, ResourceCapError, game_value
from clgames.infinitary import (
    AtomicLeaf,
    OmegaLeaf,
    build_nested_levels_pair,
    check_basic_omega,
    dynamic_game_value,
    generate_basic_family,
    omega_game_value_atomic,
    r_alpha,
    rank_solver,
)
from clgames.moduli import (
    Aggregator,
    WeakModulus,
    capped_linear,
    identity_modulus,
    linear_modulus,
)
from clgames.structures import (
    FunctionSymbol,
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    find_isomorphism,
    validate,
)
from clgames.witnesses import cardinality_witness_pair, discrete_structure

from clgames import infinitary

import helpers

F = Fraction

PAIR_55 = cardinality_witness_pair(F(1, 4))
START_11 = Position((1,), (1,))


def constant_pair(left_c: int, right_c: int) -> NamedPair:
    sig = Signature(constants=("c",))
    mk = lambda idx: MetricStructure(
        signature=sig,
        points=("a", "b"),
        dist=((F(0), F(1)), (F(1), F(0))),
        constant_map={"c": idx},
    )
    return NamedPair(mk(left_c), mk(right_c))


def one_point_pair() -> NamedPair:
    rng = random.Random(45)
    sig = helpers.random_signature(rng, with_function=True)
    return NamedPair(
        helpers.random_structure(rng, sig, n_points=1),
        helpers.random_structure(rng, sig, n_points=1),
    )


class TestRAlpha:
    def test_base_case_constant_atoms(self):
        agreeing = constant_pair(0, 1)  # both constants exist; d(c,c) = 0 on both
        assert r_alpha(agreeing, alpha=0) == 0

    def test_base_case_detects_predicate_gap(self):
        sig = Signature(
            predicates=(PredicateSymbol("P", 1, capped_linear(2)),), constants=("c",)
        )
        mk = lambda value: MetricStructure(
            signature=sig,
            points=("a",),
            dist=((F(0),),),
            predicate_tables={"P": {(0,): value}},
            constant_map={"c": 0},
        )
        pair = NamedPair(mk(F(0)), mk(F(3, 4)))
        assert r_alpha(pair, alpha=0) == F(3, 4)

    def test_near_pair_rank_one(self):
        assert r_alpha(PAIR_55, START_11, alpha=1) == F(1, 8)
        assert r_alpha(PAIR_55, START_11, alpha=1) == game_value(
            PAIR_55, start=START_11, rounds=1, build_strategies=False
        ).value

    def test_isomorphic_copies_vanish(self):
        rng = random.Random(33)
        s = helpers.random_structure(rng, helpers.random_signature(rng), max_points=3)
        pair = NamedPair(s, helpers.permuted_copy(s, rng))
        for alpha in range(5):
            assert r_alpha(pair, alpha=alpha) == 0

    def test_clock_deeper_than_the_stack_rejected(self):
        # the clock clamps at the points left uncovered, so the search is
        # only as deep as the pair is large: at two frames a round, 600
        # points outgrow the default limit of 1000 frames
        pair = NamedPair(discrete_structure(300), discrete_structure(300))
        with pytest.raises(ValueError, match="recursion"):
            r_alpha(pair, alpha=5000)

    def test_matches_game_value_at_every_rank(self):
        rng = random.Random(34)
        for _ in range(5):
            pair = helpers.random_pair(rng, max_points=3)
            solver = GameSolver(pair)
            for alpha in range(4):
                assert solver.value(Position(), alpha) == game_value(
                    pair, rounds=alpha, build_strategies=False
                ).value


class TestDynamicGame:
    def test_clock_zero_is_leaf(self):
        result = dynamic_game_value(PAIR_55, 0, start=Position((1, 1), (1, 2)))
        assert result.value == F(1, 8)

    def test_matches_rank_recursion_small(self):
        rng = random.Random(35)
        for _ in range(6):
            pair = helpers.random_pair(rng, max_points=3)
            solver = GameSolver(pair)
            for alpha in range(4):
                dyn = dynamic_game_value(pair, alpha)
                assert dyn.value == solver.value(Position(), alpha)

    def test_isomorphic_any_clock(self):
        rng = random.Random(36)
        s = helpers.random_structure(rng, helpers.random_signature(rng), max_points=3)
        pair = NamedPair(s, helpers.permuted_copy(s, rng))
        for alpha in range(4):
            assert dynamic_game_value(pair, alpha).value == 0

    def test_principal_variation_clock_decreases(self):
        result = dynamic_game_value(PAIR_55, 3, start=START_11)
        clocks = [entry[0] for entry in result.principal_variation]
        assert all(b < a for a, b in zip([3] + clocks, clocks))

    def test_matches_the_clocked_search(self):
        # the value and the whole line equal those of the oracle, which
        # searches every spend of the clock with loops of its own; the
        # omega leaf holds x0 to the identity modulus, so it depends on
        # play order
        order_dependent = OmegaLeaf(
            WeakModulus(
                coords=(identity_modulus(),), tail=linear_modulus(2), aggregator=Aggregator.MAX
            )
        )
        rng = random.Random(46)
        for leaf in (AtomicLeaf(0), AtomicLeaf(1), order_dependent):
            for _ in range(6):
                pair = helpers.random_pair(rng, max_points=3, with_function=leaf.term_depth == 1)
                oracle = helpers.DynamicSolver(pair, leaf)
                k = rng.randint(0, 1)
                start = Position(
                    tuple(rng.randrange(pair.left.size) for _ in range(k)),
                    tuple(rng.randrange(pair.right.size) for _ in range(k)),
                )
                for clock in range(3):
                    result = dynamic_game_value(pair, clock, leaf=leaf, start=start)
                    assert result.value == oracle.value(start, clock)
                    assert list(result.principal_variation) == oracle.principal_variation(
                        start, clock
                    )

    def test_cap_counts_memo_and_leaf_tables_together(self):
        rng = random.Random(44)
        sig = helpers.random_signature(rng)
        pair = NamedPair(
            helpers.random_structure(rng, sig, n_points=4),
            helpers.random_structure(rng, sig, n_points=4),
        )
        # the whole solve, its principal variation included, holds 2 leaf
        # and 40 value entries: the value memoizes the root's leaf and 31
        # values, and the line looks up the leaf of each position it scans
        # from, and adds the values its null-window tests of the spends and
        # its scans of every move, covered points included, reach
        result = dynamic_game_value(pair, 3, max_positions=42)
        assert result.value == r_alpha(pair, alpha=3)
        with pytest.raises(ResourceCapError) as err:
            dynamic_game_value(pair, 3, max_positions=41)
        assert err.value.entries == {"leaf": 1, "value": 40}

    def test_deep_clock_clamps_at_the_uncovered_points(self):
        # the kernel's rounds clamp cuts the clock to the points the start
        # leaves uncovered, so a clock deeper than the stack is solved
        pair = one_point_pair()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 80)
        try:
            assert dynamic_game_value(pair, 200).value == r_alpha(pair, alpha=200)
        finally:
            sys.setrecursionlimit(limit)

    def test_clock_deeper_than_the_stack_rejected(self):
        # the omega leaf's keys keep every copy of a repeated pair, so a stay
        # grows the key, nothing clamps the clock and the search is as deep
        # as the clock even on a one-point pair: it is refused before it
        # starts, so no family, which grows with the fourth power of the
        # key's length, is built
        pair = one_point_pair()
        leaf = OmegaLeaf(WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            with pytest.raises(ValueError, match="recursion") as err:
                dynamic_game_value(pair, 200, leaf=leaf)
        finally:
            sys.setrecursionlimit(limit)
        assert "\n" not in str(err.value)

    def test_table_does_not_depend_on_the_clock(self):
        # the clock clamps at the uncovered points, so every clock past them
        # fills the same table
        for clock in (20, 40, 60):
            assert dynamic_game_value(PAIR_55, clock, max_positions=28).value == F(1, 8)
            with pytest.raises(ResourceCapError):
                dynamic_game_value(PAIR_55, clock, max_positions=27)

    def test_negative_term_depth_rejected(self):
        for solve in (
            lambda: r_alpha(PAIR_55, alpha=1, leaf=AtomicLeaf(term_depth=-1)),
            lambda: dynamic_game_value(PAIR_55, 1, leaf=AtomicLeaf(term_depth=-1)),
            lambda: omega_game_value_atomic(PAIR_55, term_depth=-1),
        ):
            with pytest.raises(ValueError, match="term depth"):
                solve()

    def test_negative_clock_rejected(self):
        with pytest.raises(ValueError, match="clock must be non-negative"):
            dynamic_game_value(PAIR_55, -1)


def tail_leaf(term_depth: int = 0) -> OmegaLeaf:
    """The omega leaf holding every variable to the modulus 2t."""
    tail = WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX)
    return OmegaLeaf(tail, term_depth)


ONE_POINT_PAIR = one_point_pair()


# GameSolver._enter refuses a search too deep for the stack before it
# starts; at the least recursion limit it admits, every kind of search fits,
# the omega leaf's family building included
@pytest.mark.parametrize("solve, rounds", [
    pytest.param(lambda: r_alpha(PAIR_55, alpha=4), 4, id="r-alpha"),
    pytest.param(
        lambda: r_alpha(ONE_POINT_PAIR, alpha=2, leaf=tail_leaf()), 2, id="omega-leaf",
    ),
    pytest.param(
        lambda: r_alpha(ONE_POINT_PAIR, alpha=1, leaf=tail_leaf(3)), 1,
        id="omega-leaf-term-depth-3",
    ),
    pytest.param(lambda: dynamic_game_value(PAIR_55, 4), 4, id="dynamic"),
    pytest.param(
        lambda: dynamic_game_value(ONE_POINT_PAIR, 2, leaf=tail_leaf()), 2,
        id="dynamic-omega-leaf",
    ),
])
def test_search_fits_the_least_limit_the_depth_rule_admits(solve, rounds):
    expected = solve()
    assert helpers.solve_at_least_admitted_limit(solve, rounds) == expected


class TestMonotonicityAndPseudometric:
    def test_rank_monotone_in_clock(self):
        rng = random.Random(37)
        for _ in range(8):
            pair = helpers.random_pair(rng, max_points=3)
            solver = GameSolver(pair)
            values = [solver.value(Position(), alpha) for alpha in range(5)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_symmetry(self):
        rng = random.Random(38)
        for _ in range(6):
            pair = helpers.random_pair(rng, max_points=3)
            flipped = NamedPair(pair.right, pair.left)
            for alpha in range(3):
                assert r_alpha(pair, alpha=alpha) == r_alpha(flipped, alpha=alpha)

    def test_triangle_inequality_over_triples(self):
        rng = random.Random(39)
        for _ in range(8):
            sig = helpers.random_signature(rng)
            a = helpers.random_structure(rng, sig, max_points=3)
            b = helpers.random_structure(rng, sig, max_points=3)
            c = helpers.random_structure(rng, sig, max_points=3)
            for alpha in range(3):
                ab = r_alpha(NamedPair(a, b), alpha=alpha)
                bc = r_alpha(NamedPair(b, c), alpha=alpha)
                ac = r_alpha(NamedPair(a, c), alpha=alpha)
                assert ac <= ab + bc


class TestOmegaGame:
    def test_isomorphic_is_zero(self):
        rng = random.Random(40)
        s = helpers.random_structure(rng, helpers.random_signature(rng), max_points=3)
        pair = NamedPair(s, helpers.permuted_copy(s, rng))
        assert omega_game_value_atomic(pair) == 0

    def test_near_pair_survives_forever(self):
        assert omega_game_value_atomic(PAIR_55) == F(1, 8)

    def test_unmatched_predicate_value_exposed(self):
        sig = Signature(predicates=(PredicateSymbol("P", 1, capped_linear(2)),))
        one = MetricStructure(
            signature=sig, points=("a",), dist=((F(0),),),
            predicate_tables={"P": {(0,): F(0)}},
        )
        two = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            predicate_tables={"P": {(0,): F(0), (1,): F(1)}},
        )
        assert omega_game_value_atomic(NamedPair(one, two)) == 1

    def test_equals_value_iteration_oracle(self):
        rng = random.Random(41)
        for _ in range(6):
            pair = helpers.random_pair(rng, max_points=3)
            assert omega_game_value_atomic(pair) == helpers.value_iteration_omega(pair)
        # a ternary predicate and a constant, from the empty start and from
        # starts with a repeated pair; at most 6 pairs keeps the oracle fast,
        # and nearly isomorphic pairs keep the values apart
        for nl, nr in ((2, 2), (2, 2), (2, 3), (3, 2)):
            sig = helpers.random_signature(rng, with_constant=True, with_ternary=True)
            left = helpers.random_structure(rng, sig, n_points=nl)
            if nl == nr:
                right = helpers.redrawn_copy(left, rng, entries=2)
            else:
                right = helpers.random_structure(rng, sig, n_points=nr)
            pair = NamedPair(left, right)
            a, b = rng.randrange(nl), rng.randrange(nr)
            for start in (Position(), Position((a,), (b,)), Position((a, 1, a), (b, 0, b))):
                expected = helpers.value_iteration_omega(pair, start=start)
                assert omega_game_value_atomic(pair, start=start) == expected

    def test_resource_cap(self):
        # charged per memo entry: this 3+3 pair needs exactly 25, as the
        # searches scan only the moves on uncovered points, and the replies
        # in the order of the solver's history
        rng = random.Random(43)
        sig = helpers.random_signature(rng)
        pair = NamedPair(
            helpers.random_structure(rng, sig, n_points=3),
            helpers.random_structure(rng, sig, n_points=3),
        )
        with pytest.raises(ResourceCapError) as err:
            omega_game_value_atomic(pair, max_positions=24)
        assert sum(err.value.entries.values()) == 24
        assert set(err.value.entries) == {"leaf", "value"}
        expected = helpers.value_iteration_omega(pair)
        assert omega_game_value_atomic(pair, max_positions=25) == expected
        # the 300-point pair is the 600-round game, deeper than the
        # interpreter's stack at two frames a round: one line that says so
        big = discrete_structure(300)
        with pytest.raises(ValueError, match="^600 rounds need a recursion deeper") as err:
            omega_game_value_atomic(NamedPair(big, big))
        assert "\n" not in str(err.value)

    def test_equals_stabilized_clock_value(self):
        rng = random.Random(42)
        for _ in range(4):
            pair = helpers.random_pair(rng, max_points=3)
            solver = GameSolver(pair)
            values = [solver.value(Position(), alpha) for alpha in range(12)]
            stable_at = next(
                a for a in range(1, 12) if values[a] == values[a - 1]
            )
            omega = omega_game_value_atomic(pair)
            assert omega >= values[stable_at]
            # after genuine stabilization the fixpoint value is reached
            assert omega == values[-1]
            assert values[-1] == values[-2] == values[-3]

    def test_function_symbols_match_value_iteration(self):
        # a unary function and maybe a constant, at term depth 0-2; at most
        # 9 pairs keeps the oracle fast, and nearly isomorphic pairs (a
        # permuted copy with entries redrawn) keep the values apart
        rng = random.Random(46)
        for nl, nr in ((1, 2), (2, 2), (2, 2), (2, 3), (3, 3), (2, 4)):
            sig = helpers.random_signature(
                rng, with_constant=rng.random() < 0.5, with_function=True
            )
            left = helpers.random_structure(rng, sig, n_points=nl)
            if nl == nr:
                right = helpers.permuted_copy(left, rng)
                right = helpers.redrawn_copy(right, rng, entries=rng.randint(1, 2))
            else:
                right = helpers.random_structure(rng, sig, n_points=nr)
            pair = NamedPair(left, right)
            for depth in (0, 1, 2):
                expected = helpers.value_iteration_omega(pair, term_depth=depth)
                assert omega_game_value_atomic(pair, term_depth=depth) == expected


OMEGA_SUM_DOUBLED = WeakModulus(
    coords=(), tail=linear_modulus(2), aggregator=Aggregator.SUM
)
OMEGA_MAX_ID = WeakModulus(coords=(), tail=identity_modulus(), aggregator=Aggregator.MAX)


class TestBasicOmegaCertificates:
    def test_distance_atom_certified(self):
        phi = Dist(Var(0), Var(1))
        assert check_basic_omega(phi, Signature(), OMEGA_SUM_DOUBLED)

    def test_steep_scaling_not_certified(self):
        sig = Signature(predicates=(PredicateSymbol("P", 1, identity_modulus()),))
        phi = Conn(Scale(F(100)), (Pred("P", (Var(0),)),))
        assert not check_basic_omega(phi, sig, OMEGA_MAX_ID)

    def test_level_formulas_respect_identity(self):
        # min((i+1) * P_i(x), 1) with modulus(P_i) = t/(i+1) stays 1-Lipschitz
        sig = Signature(
            predicates=tuple(
                PredicateSymbol(f"P{i}", 1, linear_modulus(F(1, i + 1))) for i in range(8)
            )
        )
        for i in range(8):
            phi = Conn(Scale(F(i + 1)), (Pred(f"P{i}", (Var(0),)),))
            assert check_basic_omega(phi, sig, OMEGA_MAX_ID)
            assert modulus_of(phi, sig) == capped_linear(1)

    def test_non_basic_rejected(self):
        phi = Inf(0, Dist(Var(0), Var(1)))
        with pytest.raises(ValueError):
            check_basic_omega(phi, Signature(), OMEGA_MAX_ID)
        nested = Conn(Scale(F(2)), (Conn(Scale(F(2)), (Dist(Var(0), Var(1)),)),))
        with pytest.raises(ValueError):
            check_basic_omega(nested, Signature(), OMEGA_MAX_ID)


class TestOmegaLeaf:
    @pytest.mark.parametrize(
        "arity, count, sha256",
        [
            (2, 14, "f39dc906a3a6acbcefec567139dffb16691052eeedd1c0156435a6b33f2c2d6e"),
            (3, 41, "a7a5e9e9aeb27462e5c1d776f2a6b320f6eaeac05ed6a0486f9ef619662163d3"),
        ],
    )
    def test_family_from_the_memo_matches_a_cold_check_per_candidate(
        self, arity, count, sha256, monkeypatch
    ):
        build = helpers.family_build(arity)
        family = build()
        assert build() == family
        text = "\n".join(map(format_formula, family))
        assert (len(family), hashlib.sha256(text.encode()).hexdigest()) == (count, sha256)

        def cold_check(phi, sig, omega):
            helpers.clear_calculus_caches()
            return check_basic_omega(phi, sig, omega)

        monkeypatch.setattr(infinitary, "check_basic_omega", cold_check)
        assert build() == family

    def test_family_contains_certified_formulas_only(self):
        sig = Signature(predicates=(PredicateSymbol("P", 1, identity_modulus()),))
        family = generate_basic_family(sig, 2, OMEGA_MAX_ID, scale_factors=(F(2),))
        assert family
        for phi in family:
            assert check_basic_omega(phi, sig, OMEGA_MAX_ID)

    def test_leaf_dominates_atomic_when_atoms_certified(self):
        # a generous weak modulus certifies every atom, so the omega leaf's
        # family is a superset of the atoms and its sup can only grow
        generous = WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX)
        rng = random.Random(44)
        for _ in range(4):
            pair = helpers.random_pair(rng, max_points=3)
            atomic = GameSolver(pair)
            omega = rank_solver(pair, OmegaLeaf(generous))
            for _ in range(6):
                k = rng.randint(0, 2)
                pos = Position(
                    tuple(rng.randrange(pair.left.size) for _ in range(k)),
                    tuple(rng.randrange(pair.right.size) for _ in range(k)),
                )
                assert omega.value(pos, 0) >= atomic.value(pos, 0)

    @pytest.mark.parametrize(
        "leaf_options, pair_options, from_starts",
        [
            ({}, {}, True),
            # function terms, and scale factors whose denominators 3 and 4
            # make the solver's denominator a product with the pair's; their
            # families at 4 or 5 variables take seconds each to build, so
            # they are checked from the empty start only
            (
                {"term_depth": 1, "scale_factors": (F(2), F(1, 3), F(3, 4))},
                {"with_function": True},
                False,
            ),
        ],
        ids=["relational", "function-terms"],
    )
    def test_rank_recursion_matches_ordered_oracle(self, leaf_options, pair_options, from_starts):
        # x0 is held to the identity modulus and later variables to 2t, so
        # the certified family, and with it the leaf, depends on play order
        leaf = OmegaLeaf(
            WeakModulus(
                coords=(identity_modulus(),), tail=linear_modulus(2), aggregator=Aggregator.MAX
            ),
            **leaf_options,
        )
        rng = random.Random(45)
        for _ in range(4):
            pair = helpers.random_pair(rng, max_points=3, **pair_options)
            for alpha in (0, 1, 2):
                expected = helpers.brute_force_rank_omega_leaf(pair, (), (), alpha, leaf)
                assert r_alpha(pair, alpha=alpha, leaf=leaf) == expected
        # ordered starts of c + 2 pairs under c = 0, 1 and 2 prefix
        # coordinates, with the leaf's scale factors and with none: the key
        # keeps the prefix in play order, and a repeated tail pair as a second
        # copy, which matters once the tail's 4t certifies truncated sums
        moduli = [
            WeakModulus(coords=(), tail=linear_modulus(4), aggregator=Aggregator.MAX),
            WeakModulus(coords=(identity_modulus(),), tail=linear_modulus(4), aggregator=Aggregator.MAX),
            WeakModulus(
                coords=(capped_linear(4), identity_modulus()), tail=linear_modulus(4),
                aggregator=Aggregator.MAX,
            ),
        ]
        for omega in moduli if from_starts else ():
            c = len(omega.coords)
            for scale_factors in (leaf.scale_factors, ()):
                # one solver and one oracle per leaf, so each family is built once
                start_leaf = OmegaLeaf(omega, leaf.term_depth, scale_factors)
                pair = helpers.random_pair(rng, max_points=3, **pair_options)
                solver = rank_solver(pair, start_leaf)
                score = helpers.omega_leaf_oracle(pair, start_leaf)
                for repeat in (False, True):
                    left = [rng.randrange(pair.left.size) for _ in range(c + 2)]
                    right = [rng.randrange(pair.right.size) for _ in range(c + 2)]
                    if repeat:
                        left[-1], right[-1] = left[c], right[c]
                    start = Position(tuple(left), tuple(right))
                    for alpha in (0, 1):
                        expected = helpers.brute_force_rank_omega_leaf(
                            pair, start.left, start.right, alpha, start_leaf, score)
                        assert solver.value(start, alpha) == expected

    @pytest.mark.parametrize(
        "symbols, term_depth",
        [
            ({"constants": ("c",)}, 0),
            ({"functions": (FunctionSymbol("f", 1, capped_linear(2)),)}, 1),
            ({"predicates": (PredicateSymbol("T", 3, capped_linear(2)),)}, 0),
        ],
        ids=["constants", "function-terms", "ternary"],
    )
    def test_leaves_match_the_full_family(self, symbols, term_depth):
        # the oracle keeps the negations, minima and maxima the solver's
        # family leaves out; weak moduli with 0, 1 and 2 prefix coordinates
        # certify different formulas at each position of play, and 4t
        # certifies truncated sums and differences of min(2t, 1) atoms
        sig = Signature(**{"predicates": (PredicateSymbol("P", 1, capped_linear(2)),), **symbols})
        moduli = [
            WeakModulus(coords=(), tail=linear_modulus(4), aggregator=Aggregator.MAX),
            WeakModulus(coords=(identity_modulus(),), tail=linear_modulus(2), aggregator=Aggregator.MAX),
            WeakModulus(
                coords=(capped_linear(4), identity_modulus()), tail=linear_modulus(3),
                aggregator=Aggregator.SUM,
            ),
        ]
        rng = random.Random(48)
        for omega in moduli:
            pair = NamedPair(*(helpers.random_structure(rng, sig, max_points=3) for _ in "LR"))
            leaf = OmegaLeaf(omega, term_depth, (F(2), F(1, 3), F(3, 4)))
            solver, oracle = rank_solver(pair, leaf), helpers.omega_leaf_oracle(pair, leaf)
            for k in range(4):
                for _ in range(6):
                    left = tuple(rng.randrange(pair.left.size) for _ in range(k))
                    right = tuple(rng.randrange(pair.right.size) for _ in range(k))
                    assert solver.leaf(Position(left, right)) == oracle(left, right)
        # with no scale factors a second copy of a tail pair can raise the
        # leaf, through the truncated sum of an atom and its copy, which the
        # first modulus certifies
        pair = NamedPair(*(helpers.random_structure(rng, sig, max_points=3) for _ in "LR"))
        bare = OmegaLeaf(moduli[0], term_depth, ())
        solver, oracle = rank_solver(pair, bare), helpers.omega_leaf_oracle(pair, bare)
        for _ in range(12):
            k = rng.randint(1, 2)
            left = [rng.randrange(pair.left.size) for _ in range(k)]
            right = [rng.randrange(pair.right.size) for _ in range(k)]
            j = rng.randrange(k)
            left, right = (*left, left[j]), (*right, right[j])
            assert solver.leaf(Position(left, right)) == oracle(left, right)

    def test_table_sizes_on_canonical_keys(self):
        # x0 is held to the identity modulus and later variables to 2t: a key
        # keeps its first pair and sorts the rest, where keys in play order
        # needed 187, 937 and 4,687 entries; one entry fewer fails on the
        # root's value entry
        pair = build_nested_levels_pair(2, 2)
        leaf = OmegaLeaf(
            WeakModulus(
                coords=(identity_modulus(),), tail=linear_modulus(2), aggregator=Aggregator.MAX
            )
        )
        for alpha, cap, held in (
            (3, 137, {"leaf": 106, "value": 30}),
            (4, 387, {"leaf": 281, "value": 105}),
            (5, 912, {"leaf": 631, "value": 280}),
        ):
            assert r_alpha(pair, alpha=alpha, leaf=leaf, max_positions=cap) == 1
            with pytest.raises(ResourceCapError) as err:
                r_alpha(pair, alpha=alpha, leaf=leaf, max_positions=cap - 1)
            assert err.value.table == "value" and err.value.entries == held

    @pytest.mark.parametrize("term_depth", [2, 3])
    def test_family_over_the_cap_is_refused_before_it_is_built(self, monkeypatch, term_depth):
        # arity 2 has 742,368 candidates at term depth 2 and about 1.6e12 at
        # term depth 3; building them ran past 40 s, or out of memory
        built = []

        def family(sig, arity, *args):
            built.append(arity)
            return generate_basic_family(sig, arity, *args)

        monkeypatch.setattr(infinitary, "generate_basic_family", family)
        pair = helpers.binary_function_pair()
        omega = WeakModulus(coords=(), tail=linear_modulus(4), aggregator=Aggregator.MAX)
        leaf = OmegaLeaf(omega, term_depth)
        with pytest.raises(ResourceCapError) as err:
            r_alpha(pair, alpha=2, leaf=leaf, max_positions=1000)
        assert err.value.table == "family" and err.value.cap == 1000
        assert max(built, default=-1) < 2
        # the first family over the cap, with its exact count: at term depth
        # 3 the arity-1 family is already over it
        arity, count = {2: (2, "742,368"), 3: (1, "158,925")}[term_depth]
        assert (f"reached by the family table at arity {arity}, at least {count} candidates "
                "(entries held: ") in str(err.value)

    @pytest.mark.parametrize("options", [{}, {"with_constant": True, "with_function": True},
                                         {"with_ternary": True}])
    def test_family_size_counts_the_candidates(self, options):
        # a weak modulus at 10^6 t certifies every candidate, so the family
        # is all of them; under a limit one below the count, the count held
        # at the limit still passes it
        generous = WeakModulus(coords=(), tail=linear_modulus(10**6), aggregator=Aggregator.MAX)
        rng = random.Random(49)
        for _ in range(3):
            sig = helpers.random_signature(rng, **options)
            for arity in range(3):
                for term_depth in range(3):
                    scales = (F(2), F(1, 2))[: rng.randint(0, 2)]
                    n = len(generate_basic_family(sig, arity, generous, term_depth, scales))
                    size = infinitary._family_size(sig, arity, term_depth, len(scales), 10**9)
                    assert size == n
                    assert infinitary._family_size(sig, arity, term_depth, len(scales), n - 1) >= n
        # 38 terms and 703 atoms; the terms are held past the limit, so a
        # deep count stays small and fast
        sig = helpers.binary_function_pair().signature
        assert infinitary._family_size(sig, 2, 2, 2, 10**9) == 742_368
        assert 1000 < infinitary._family_size(sig, 2, 400, 2, 1000) < 10**12
        # at term depth 3 the terms held at 1,002 give a lower bound
        assert infinitary._family_size(sig, 2, 3, 2, 1000) == 377_255_631_753
        assert infinitary._family_size(sig, 2, 3, 2, 10**13) == 1_637_208_397_440

    def test_every_family_denominator_divides_the_solver_den(self):
        # the leaf scales each compiled formula by den // N, which must be
        # whole: the sides' denominators differ, a function term reaches
        # the atoms, and every scaling's denominator multiplies N
        rng = random.Random(53)
        sig = helpers.random_signature(rng, with_function=True)
        coprime = {"values": helpers.COPRIME_VALUE_GRID, "distances": helpers.COPRIME_DIST_GRID}
        pair = NamedPair(helpers.random_structure(rng, sig, max_points=3, **coprime),
                         helpers.random_structure(rng, sig, max_points=3))
        assert pair.left.integer_form.den != pair.right.integer_form.den
        generous = WeakModulus(coords=(), tail=linear_modulus(10**6), aggregator=Aggregator.MAX)
        leaf = OmegaLeaf(generous, 1, (F(2), F(1, 3), F(3, 4)))
        solver = rank_solver(pair, leaf)
        for arity in (1, 2):
            family = generate_basic_family(sig, arity, generous, 1, leaf.scale_factors)
            assert {phi.conn.factor for phi in family if isinstance(phi, Conn)
                    and isinstance(phi.conn, Scale)} == set(leaf.scale_factors)
            for phi in family:
                for side in (pair.left, pair.right):
                    assert solver._den % compile_formula(phi, side, range(arity))[1] == 0

    def test_term_depth_too_deep_is_named(self):
        # the family's frames at term depth 480 reach the default limit by
        # themselves, so no number of rounds fits; a term depth of 1 does
        pair = helpers.binary_function_pair()
        omega = WeakModulus(coords=(), tail=linear_modulus(4), aggregator=Aggregator.MAX)
        for term_depth in (480, 10**9):
            for solve in (r_alpha, dynamic_game_value):
                with pytest.raises(ValueError) as err:
                    solve(pair, 0, leaf=OmegaLeaf(omega, term_depth))
                assert str(err.value) == (
                    f"term depth {term_depth} needs a recursion deeper than the interpreter's "
                    f"limit of {sys.getrecursionlimit()} frames; use a smaller term depth")
        assert r_alpha(pair, alpha=0, leaf=OmegaLeaf(omega, 1)) == 0
        # a search that would fit at 0 rounds still names the rounds
        with pytest.raises(ValueError, match="^600 rounds need a recursion deeper"):
            r_alpha(pair, alpha=600, leaf=OmegaLeaf(omega, 1))

    def test_rank_recursion_with_omega_leaf(self):
        generous = WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX)
        value = r_alpha(PAIR_55, START_11, alpha=1, leaf=OmegaLeaf(generous))
        assert value >= F(1, 8)


class TestNestedLevels:
    def test_single_level_valid(self):
        pair = build_nested_levels_pair(1, 1)
        assert validate(pair.left).ok and validate(pair.right).ok
        assert game_value(pair, rounds=1, build_strategies=False).value == 1

    def test_values_decay_with_depth(self):
        values = []
        for m in (2, 4, 8):
            pair = build_nested_levels_pair(m, 2)
            assert validate(pair.left).ok and validate(pair.right).ok
            v = game_value(pair, rounds=1, build_strategies=False).value
            assert v <= F(2, m + 1)
            values.append(v)
        assert values[0] > values[1] > values[2]

    def test_requested_size(self):
        pair = build_nested_levels_pair(4, 2)
        assert pair.left.size == 7 and pair.right.size == 7
        assert game_value(pair, rounds=1, build_strategies=False).value == F(1, 4)

    def test_sides_not_isomorphic(self):
        pair = build_nested_levels_pair(3, 2)
        assert find_isomorphism(pair.left, pair.right) is None

    def test_reduct_to_fewer_levels_helps_duplicator(self):
        # the distinguishing feature lives in the deepest level predicate:
        # any reduct missing it makes the sides indistinguishable, the
        # finite-pieces phenomenon at desk scale
        from clgames.structures import reduct

        pair = build_nested_levels_pair(6, 1)
        assert game_value(pair, rounds=1, build_strategies=False).value == F(1, 6)
        sub = Signature(predicates=pair.signature.predicates[:2])
        reduced = NamedPair(reduct(pair.left, sub), reduct(pair.right, sub))
        assert game_value(reduced, rounds=1, build_strategies=False).value == 0
        small = build_nested_levels_pair(3, 1)
        sub_small = Signature(predicates=small.signature.predicates[:2])
        reduced_small = NamedPair(reduct(small.left, sub_small), reduct(small.right, sub_small))
        assert omega_game_value_atomic(reduced_small) == 0
        assert omega_game_value_atomic(small) == F(1, 3)
