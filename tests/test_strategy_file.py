"""The ``--strategy`` certificate file: one node table per certificate,
written from the solver's shared DAG, against the dict trees of
``helpers.strategy_dict`` once ``helpers.tree_from_table`` expands it."""

import json
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.game import Position, game_value, strategy_to_json
from clgames.structures import NamedPair
from clgames.witnesses import cardinality_witness_pair

import helpers
from test_kernel_differential import pairs_and_starts

F = Fraction


def distinct_nodes(root) -> int:
    """The nodes of a certificate DAG, each shared node once."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node is None or id(node) in seen:
            continue
        seen.add(id(node))
        if hasattr(node, "responses"):
            stack.extend(child for _, child in node.responses.values())
        else:
            stack.extend(node.continuations.values())
    return len(seen)


def preorder(nodes: list) -> list:
    """The node indices of a table in the order a depth-first walk from
    node 0 first reaches them, children in the order the node lists them."""
    order = []

    def walk(index):
        if index is None or index in order:
            return
        order.append(index)
        node = nodes[index]
        if node["kind"] == "duplicator":
            children = [step["next"] for step in node["responses"].values()]
        else:
            children = list(node["continuations"].values())
        for child in children:
            walk(child)

    walk(0)
    return order


def check_file(path, result):
    """The file holds the value and both certificates' node tables, one node
    per distinct DAG node in pre-order, as compact ``json.dumps`` text."""
    text = path.read_text()
    assert text == json.dumps(json.loads(text)) + "\n"
    blob = json.loads(text)
    assert list(blob) == ["value", "ii_strategy", "i_witness"]
    assert blob["value"] == [result.value.numerator, result.value.denominator]
    for name in ("ii_strategy", "i_witness"):
        root = getattr(result, name)
        assert helpers.tree_from_table(blob[name]) == helpers.strategy_dict(root)
        assert len(blob[name] or ()) == distinct_nodes(root)
        if blob[name] is not None:
            assert preorder(blob[name]) == list(range(len(blob[name])))


@settings(max_examples=100, deadline=None)
@given(
    pairs_and_starts(max_left=3, max_right=3),
    st.integers(0, 4),
    st.integers(0, 1),
    st.booleans(),
)
def test_tables_expand_to_the_full_trees(tmp_path_factory, case, rounds, depth, from_start):
    # ternary predicates and function terms at depth 1 send the last ply
    # through the memo, so both kinds of DAG are written
    pair, left, right = case
    start = Position(left, right) if from_start else Position()
    result = game_value(pair, start=start, rounds=rounds, term_depth=depth)
    path = tmp_path_factory.mktemp("cert") / "cert.json"
    strategy_to_json(result, path)
    check_file(path, result)


def test_eleven_points_sort_as_numbers(tmp_path):
    # "L:10" comes after "L:9" inside a node, as in the dict trees' sorted keys
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
        check_file(path, result)
        root = json.dumps(json.loads(path.read_text())["ii_strategy"][0])
        assert root.index('"L:9"') < root.index('"L:10"') < root.index('"R:0"')


def test_nine_round_file_is_bounded_by_the_dag(tmp_path):
    # expanded, II's tree has 488,281 nodes and the trees' indented text is
    # 732,078,044 bytes; the tables hold only the DAG's distinct nodes
    result = game_value(cardinality_witness_pair(F(1, 4)), rounds=9)
    path = tmp_path / "cert.json"
    strategy_to_json(result, path)
    text = path.read_text()
    assert len(text) == 20_887
    assert text == json.dumps(json.loads(text)) + "\n"
    blob = json.loads(text)
    assert blob["value"] == [1, 8]
    assert len(blob["ii_strategy"]) == distinct_nodes(result.ii_strategy)
    assert len(blob["i_witness"]) == distinct_nodes(result.i_witness)
