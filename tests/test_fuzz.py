"""Fuzz tests of the file loaders and the formula parser, in the library and
through the CLI.

Structure and pair files are valid files with a few random edits: a value
replaced by random JSON, a key or list entry deleted or added, or the text
cut short or spliced.  Formulas are token soup over the formula syntax, or
arbitrary text.  Every input must either load (parse) or raise a
``ValueError`` (``FormulaError``), and the matching ``clgames`` command must
then exit 1 or 2 with exactly one line on stderr.
"""

import contextlib
import copy
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from clgames.cli import main
from clgames.formulas import FormulaError, parse_formula
from clgames.moduli import capped_linear
from clgames.structures import (
    FunctionSymbol,
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    load_pair,
    load_structure,
    pair_to_json,
    save_structure,
    structure_to_json,
)

F = Fraction

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

SIGNATURE = Signature(
    predicates=(
        PredicateSymbol("P", 1, capped_linear(2)), PredicateSymbol("R", 2, capped_linear(2))
    ),
    functions=(FunctionSymbol("f", 1, capped_linear(2)),),
    constants=("c",),
)


def seed_structure(rng: random.Random, n: int) -> MetricStructure:
    """A valid structure over ``SIGNATURE``: a discrete space with random
    predicate values, a random function and a constant."""
    dist = tuple(tuple(F(0) if i == j else F(1) for j in range(n)) for i in range(n))
    values = (F(0), F(1, 3), F(1, 2), F(1))
    return MetricStructure(
        signature=SIGNATURE,
        points=tuple(f"p{i}" for i in range(n)),
        dist=dist,
        predicate_tables={
            "P": {(i,): rng.choice(values) for i in range(n)},
            "R": {(i, j): rng.choice(values) for i in range(n) for j in range(n)},
        },
        function_tables={"f": {(i,): rng.randrange(n) for i in range(n)}},
        constant_map={"c": rng.randrange(n)},
    )


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1/2", "-1/5", "1/0", "0.25", "(0,)", "(0,1)", "(1, 0)", "(", "p0", "c"]),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def mutated_json(draw, doc) -> str:
    """The JSON text of ``doc`` after one to three random edits."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        edit = draw(st.sampled_from(["replace", "replace", "delete", "add"]))
        if edit == "replace":
            parent[path[-1]] = draw(JSON_VALUES)
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], draw(JSON_VALUES))
        else:
            parent[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        # cut short, or spliced with a few characters
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + draw(st.text(max_size=3))
    return text


@st.composite
def structure_files(draw) -> str:
    rng = draw(st.randoms(use_true_random=False))
    return draw(mutated_json(structure_to_json(seed_structure(rng, draw(st.integers(1, 3))))))


@st.composite
def pair_files(draw) -> str:
    rng = draw(st.randoms(use_true_random=False))
    pair = NamedPair(
        seed_structure(rng, draw(st.integers(1, 3))), seed_structure(rng, draw(st.integers(1, 3)))
    )
    return draw(mutated_json(pair_to_json(pair)))


def edited_seed(*edits) -> str:
    """The JSON text of a 2-point seed structure with each (path, value) set."""
    doc = structure_to_json(seed_structure(random.Random(0), 2))
    for path, value in edits:
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return json.dumps(doc)


# edits that once failed: a zero denominator, a symbol name that is not a
# string, and a negative distance, whose validation report spans lines
ZERO_DENOMINATOR = edited_seed((("dist", 0, 1), "1/0"))
LIST_NAME = edited_seed((("signature", "predicates", 0, "name"), []))
NEGATIVE_DISTANCE = edited_seed((("dist", 0, 1), [-1, 5]), (("dist", 1, 0), [-1, 5]))


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, err: str):
    assert code in (1, 2), (code, err)
    assert err.endswith("\n") and len(err.splitlines()) == 1, err


def load_or_error(load, path):
    """The loaded object, or None when the loader raised a ValueError."""
    try:
        return load(path)
    except ValueError:
        return None


@FUZZ
@given(structure_files())
@example(ZERO_DENOMINATOR)
@example(LIST_NAME)
@example(NEGATIVE_DISTANCE)
def test_load_structure_fuzz(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_or_error(load_structure, path)
        code, _, err = run_cli(["eval", "--structure", str(path), "--formula", "0"])
    if loaded is None:
        assert_one_error_line(code, err)
    else:
        assert isinstance(loaded, MetricStructure) and (code, err) == (0, "")


@FUZZ
@given(pair_files())
def test_load_pair_fuzz(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.json"
        path.write_text(text, encoding="utf-8")
        loaded = load_or_error(load_pair, path)
        code, _, err = run_cli(["game", "--pair", str(path), "--rounds", "1"])
    if loaded is None:
        assert_one_error_line(code, err)
    else:
        assert isinstance(loaded, NamedPair) and (code, err) == (0, "")


TOKENS = [
    "x0", "x1", "y", "d", "P", "R", "f", "c", "Q", "(", ")", ",", ".", "inf", "sup",
    "min", "max", "1", "0", "1/4", "0.25", "1/0", "-", "-.", "(+)", "*", "2", " ",
]
FORMULA_TEXT = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join),
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
    st.text(max_size=20),
)


@FUZZ
@given(FORMULA_TEXT)
@example("1/0")
def test_parse_formula_fuzz(text):
    try:
        parse_formula(text, SIGNATURE)
        parsed = True
    except FormulaError:
        parsed = False
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        save_structure(seed_structure(random.Random(0), 2), path)
        code, _, err = run_cli(["eval", "--structure", str(path), f"--formula={text}"])
    if not parsed:
        assert_one_error_line(code, err)
    elif code != 0:
        # a formula with free variables and no --at fails after parsing
        assert_one_error_line(code, err)


def test_seed_files_load():
    # the unedited seeds load, so every failure above comes from an edit
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        for n in (1, 2, 3):
            save_structure(seed_structure(random.Random(n), n), path)
            assert load_structure(path) == seed_structure(random.Random(n), n)
