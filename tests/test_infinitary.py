"""Rank recursion, dynamic-clock games, the infinite-game fixpoint, and the
coordinate-indexed leaf families."""

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
    modulus_of,
)
from clgames.game import Position, ResourceCapError, game_value
from clgames.infinitary import (
    AtomicLeaf,
    OmegaLeaf,
    RAlphaSolver,
    build_nested_levels_pair,
    check_basic_omega,
    dynamic_game_value,
    generate_basic_family,
    omega_game_value_atomic,
    r_alpha,
)
from clgames.moduli import (
    Aggregator,
    WeakModulus,
    capped_linear,
    identity_modulus,
    linear_modulus,
)
from clgames.structures import (
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    find_isomorphism,
    validate,
)
from clgames.witnesses import cardinality_witness_pair, discrete_structure

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
        # only as deep as the pair is large: 400 points outgrow the default
        # limit of 1000 frames
        pair = NamedPair(discrete_structure(200), discrete_structure(200))
        with pytest.raises(ValueError, match="recursion"):
            r_alpha(pair, alpha=5000)

    def test_matches_game_value_at_every_rank(self):
        rng = random.Random(34)
        for _ in range(5):
            pair = helpers.random_pair(rng, max_points=3)
            solver = RAlphaSolver(pair, AtomicLeaf())
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
            solver = RAlphaSolver(pair, AtomicLeaf())
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
        # the whole solve, its principal variation included, holds 29 leaf
        # and 36 value entries
        result = dynamic_game_value(pair, 3, max_positions=65)
        assert result.value == r_alpha(pair, alpha=3)
        with pytest.raises(ResourceCapError) as err:
            dynamic_game_value(pair, 3, max_positions=64)
        assert err.value.entries == {"leaf": 29, "value": 35}

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
        # the omega leaf keys positions in play order, so nothing clamps the
        # clock and the search is as deep as the clock even on a one-point
        # pair; a lowered limit keeps the work before the overflow small, as
        # the leaf's family grows with the fourth power of the key's length
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
            assert dynamic_game_value(PAIR_55, clock, max_positions=47).value == F(1, 8)
            with pytest.raises(ResourceCapError):
                dynamic_game_value(PAIR_55, clock, max_positions=46)

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


class TestMonotonicityAndPseudometric:
    def test_rank_monotone_in_clock(self):
        rng = random.Random(37)
        for _ in range(8):
            pair = helpers.random_pair(rng, max_points=3)
            solver = RAlphaSolver(pair, AtomicLeaf())
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
        # charged per memo entry: a 3+3 pair needs more than 50
        rng = random.Random(43)
        sig = helpers.random_signature(rng)
        pair = NamedPair(
            helpers.random_structure(rng, sig, n_points=3),
            helpers.random_structure(rng, sig, n_points=3),
        )
        with pytest.raises(ResourceCapError) as err:
            omega_game_value_atomic(pair, max_positions=50)
        assert sum(err.value.entries.values()) == 50
        assert set(err.value.entries) == {"leaf", "value"}
        assert omega_game_value_atomic(pair) == helpers.value_iteration_omega(pair)
        # the 200-point pair is the 400-round game, deeper than the
        # interpreter's stack: one line that says so
        big = discrete_structure(200)
        with pytest.raises(ValueError, match="^400 rounds need a recursion deeper") as err:
            omega_game_value_atomic(NamedPair(big, big))
        assert "\n" not in str(err.value)

    def test_equals_stabilized_clock_value(self):
        rng = random.Random(42)
        for _ in range(4):
            pair = helpers.random_pair(rng, max_points=3)
            solver = RAlphaSolver(pair, AtomicLeaf())
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
            atomic = RAlphaSolver(pair, AtomicLeaf())
            omega = RAlphaSolver(pair, OmegaLeaf(generous))
            for _ in range(6):
                k = rng.randint(0, 2)
                pos = Position(
                    tuple(rng.randrange(pair.left.size) for _ in range(k)),
                    tuple(rng.randrange(pair.right.size) for _ in range(k)),
                )
                assert omega.value(pos, 0) >= atomic.value(pos, 0)

    @pytest.mark.parametrize(
        "leaf_options, pair_options",
        [
            ({}, {}),
            # function terms, and scale factors whose denominators 3 and 4
            # make the solver's denominator a product with the pair's
            ({"term_depth": 1, "scale_factors": (F(2), F(1, 3), F(3, 4))}, {"with_function": True}),
        ],
        ids=["relational", "function-terms"],
    )
    def test_rank_recursion_matches_ordered_oracle(self, leaf_options, pair_options):
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
