"""The ``--strategy`` certificate file, written from the solver's shared
DAG, against the dict trees of ``helpers.strategy_dict`` encoded by
``json.dumps(indent=2)``: the same bytes, and less memory than the text."""

import json
import random
import tracemalloc
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.game import Position, game_value, strategy_to_json
from clgames.structures import NamedPair
from clgames.witnesses import cardinality_witness_pair

import helpers
from test_kernel_differential import pairs_and_starts

F = Fraction


def expected_text(result) -> str:
    blob = {
        "value": [result.value.numerator, result.value.denominator],
        "ii_strategy": helpers.strategy_dict(result.ii_strategy),
        "i_witness": helpers.strategy_dict(result.i_witness),
    }
    return json.dumps(blob, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    pairs_and_starts(max_left=3, max_right=3),
    st.integers(0, 4),
    st.integers(0, 1),
    st.booleans(),
)
def test_file_is_the_json_of_the_full_trees(tmp_path_factory, case, rounds, depth, from_start):
    # ternary predicates and function terms at depth 1 send the last ply
    # through the memo, so both kinds of DAG are written
    pair, left, right = case
    start = Position(left, right) if from_start else Position()
    result = game_value(pair, start=start, rounds=rounds, term_depth=depth)
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    strategy_to_json(result, path)
    assert path.read_text() == expected_text(result)


def test_eleven_points_sort_as_numbers(tmp_path):
    # "L:10" comes after "L:9" in the file, as in the dict trees' sorted keys
    rng = random.Random(11)
    sig = helpers.random_signature(rng)
    pair = NamedPair(
        helpers.random_structure(rng, sig, n_points=11),
        helpers.random_structure(rng, sig, n_points=12),
    )
    path = tmp_path / "cert.json"
    for start, rounds in ((Position(), 1), (Position((10,), (11,)), 2)):
        result = game_value(pair, start=start, rounds=rounds)
        strategy_to_json(result, path)
        text = path.read_text()
        assert text == expected_text(result)
        assert text.index('"L:9"') < text.index('"L:10"') < text.index('"R:0"')


def test_traced_peak_below_the_bytes_written(tmp_path):
    # the 6-round certificate of the cardinality witness pair: the expanded
    # trees are 4,237,426 bytes of text, but a node with several parents is
    # rendered once and the rest is streamed, so the writer never holds the
    # whole text (the dict trees plus their encoding held several times it)
    result = game_value(cardinality_witness_pair(F(1, 4)), rounds=6)
    path = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        strategy_to_json(result, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = path.stat().st_size
    assert written == 4_237_426
    assert peak < written
