"""Differential tests of the game kernel's integer leaf tables and exact
cutoff against the unmemoized oracles in ``helpers``.

The drawn pairs have a constant and a ternary predicate, values on grids
with coprime denominators (so the common denominator is a real lcm), and
are often nearly isomorphic (a permuted copy with a few entries redrawn),
so that replies tie and cutoffs fire.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.game import GameSolver, Position, game_value
from clgames.infinitary import dynamic_game_value, omega_game_value_atomic
from clgames.structures import NamedPair

import helpers


@st.composite
def pairs(draw, max_left=3, max_right=3, near=None):
    rng = draw(st.randoms(use_true_random=False))
    grids = {}
    if draw(st.booleans()):
        grids = {"values": helpers.COPRIME_VALUE_GRID, "distances": helpers.COPRIME_DIST_GRID}
    sig = helpers.random_signature(rng, with_constant=True, with_ternary=True)
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
@given(pairs_and_starts(), st.integers(0, 2))
def test_game_value_matches_brute_force(case, rounds):
    pair, left, right = case
    expected = helpers.brute_force_game_value(pair, left, right, rounds)
    start = Position(left, right)
    value = game_value(pair, start=start, rounds=rounds, build_strategies=False).value
    assert value == expected and reduced_fraction(value)
    dynamic = dynamic_game_value(pair, rounds, start=start).value
    assert dynamic == expected and reduced_fraction(dynamic)


@settings(max_examples=40, deadline=None)
@given(pairs_and_starts(max_start=3, max_left=2, max_right=3))
def test_omega_matches_value_iteration(case):
    pair, left, right = case
    start = Position(left, right)
    value = omega_game_value_atomic(pair, start=start)
    assert value == helpers.value_iteration_omega(pair, start=start)
    assert reduced_fraction(value)


@settings(max_examples=30, deadline=None)
@given(pairs_and_starts(max_start=1, near=True), st.integers(1, 2))
def test_best_move_and_reply_are_first_in_canonical_order(case, rounds):
    pair, left, right = case
    solver = GameSolver(pair)
    position = Position(left, right)
    assert solver.best_move(position, rounds) == helpers.first_best_move(
        pair, left, right, rounds
    )
    for side, element in solver.moves():
        assert solver.best_reply(position, side, element, rounds) == helpers.first_best_reply(
            pair, left, right, side, element, rounds
        )
