"""Differential tests of ``evaluate`` on the integer form against
``helpers.fraction_evaluate``, the Fraction tree walk it replaced.

Signatures get a constant, a unary function symbol and a ternary predicate
at random; formulas are sampled at term depth 0-2 with 0 or 1 free
variables and evaluated at every assignment, each together with its
``collapse_connectives`` and ``normalize_sup`` rewrites.  Half of the
structures use the grids with coprime denominators, so that the common
denominator is a real lcm.  The fixed cases drive a node's denominator
away from the structure's: a chain of scalings and constants whose
denominators are coprime to it.  Vacuous and shadowed quantifiers, which
the evaluator compiles away or rebinds, get sentences of their own.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.formulas import (
    Conn,
    ConstVal,
    Dist,
    FormulaError,
    Inf,
    MaxOf,
    MinOf,
    Scale,
    Sup,
    TruncAdd,
    TruncSub,
    Var,
    collapse_connectives,
    compile_formula,
    evaluate,
    format_formula,
    free_vars,
    normalize_sup,
    parse_formula,
    qr,
    sample_formulas,
)
from clgames.moduli import capped_linear
from clgames.structures import FunctionSymbol, MetricStructure, PredicateSymbol, Signature
from clgames.witnesses import discrete_structure, line_structure

import helpers

F = Fraction


@settings(max_examples=150, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    constant=st.booleans(),
    function=st.booleans(),
    ternary=st.booleans(),
    coprime=st.booleans(),
    term_depth=st.integers(0, 2),
    free=st.integers(0, 1),
    seed=st.integers(0, 10**6),
)
def test_evaluate_matches_the_fraction_walk(
    rng, constant, function, ternary, coprime, term_depth, free, seed
):
    sig = helpers.random_signature(
        rng, with_constant=constant, with_function=function, with_ternary=ternary
    )
    grids = {}
    if coprime:
        grids = {"values": helpers.COPRIME_VALUE_GRID, "distances": helpers.COPRIME_DIST_GRID}
    structure = helpers.random_structure(rng, sig, max_points=3, **grids)
    formulas = sample_formulas(
        sig, qr_bound=2, count=4, seed=seed, free_vars_count=free, term_depth=term_depth
    )
    for phi in formulas:
        variants = (phi, collapse_connectives(phi), normalize_sup(phi))
        for points in product(range(structure.size), repeat=free):
            env = dict(enumerate(points))
            expected = helpers.fraction_evaluate(phi, structure, env)
            for variant in variants:
                assert evaluate(variant, structure, env) == expected


def _requantified(phi, rng, bound=()):
    """phi with quantifiers wrapped around random subformulas.  Each new
    quantifier binds a variable free in the subformula, a variable bound
    above it (shadowing when the subformula reads it, vacuous otherwise) or
    a fresh variable (vacuous)."""
    if isinstance(phi, Conn):
        phi = Conn(phi.conn, tuple(_requantified(a, rng, bound) for a in phi.args))
    elif isinstance(phi, (Inf, Sup)):
        phi = type(phi)(phi.var, _requantified(phi.body, rng, bound + (phi.var,)))
    if rng.random() < 0.4:
        var = rng.choice(list(bound) + sorted(free_vars(phi)) + [7])
        phi = rng.choice([Inf, Sup])(var, phi)
    return phi


@settings(max_examples=100, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    function=st.booleans(),
    free=st.integers(0, 1),
    seed=st.integers(0, 10**6),
)
def test_vacuous_and_shadowed_quantifiers_match_the_fraction_walk(rng, function, free, seed):
    sig = helpers.random_signature(rng, with_constant=True, with_function=function)
    structure = helpers.random_structure(rng, sig, max_points=3)
    for phi in sample_formulas(sig, qr_bound=2, count=3, seed=seed, free_vars_count=free):
        phi = _requantified(phi, rng)
        fv = sorted(free_vars(phi))
        tuples = list(product(range(structure.size), repeat=len(fv)))
        expected = {}
        for points in tuples:
            env = dict(zip(fv, points))
            expected[points] = helpers.fraction_evaluate(phi, structure, env)
            for variant in (phi, collapse_connectives(phi), normalize_sup(phi)):
                assert evaluate(variant, structure, env) == expected[points]
        # compiled once and run at every tuple, forwards and backwards: a
        # shadowed free variable's slot is restored between runs
        run, den = compile_formula(phi, structure, fv)
        for points in tuples + tuples[::-1]:
            assert Fraction(run(points), den) == expected[points]


class TestVacuousQuantifiers:
    SIG = Signature(predicates=(PredicateSymbol("P", 1, capped_linear(2)),))
    SPACE = MetricStructure(
        SIG,
        ("a", "b", "c"),
        ((F(0), F(1, 2), F(1)), (F(1, 2), F(0), F(3, 4)), (F(1), F(3, 4), F(0))),
        {"P": {(0,): F(1, 4), (1,): F(1), (2,): F(0)}},
    )

    @pytest.mark.parametrize(
        "text, free",
        [
            ("sup x2. d(x0, x1)", (0, 1)),
            ("inf x0. sup x0. P(x0)", ()),
            ("sup x0. d(x1, x1)", (0, 1)),
            ("inf x1. sup x0. max(inf x2. d(x0, x1), P(x1))", ()),
            ("d(x0, x1) (+) (sup x2. d(x0, x1))", (0, 1)),
        ],
    )
    def test_against_the_fraction_walk(self, text, free):
        phi = parse_formula(text, self.SIG)
        for points in product(range(self.SPACE.size), repeat=len(free)):
            env = dict(zip(free, points))
            expected = helpers.fraction_evaluate(phi, self.SPACE, env)
            assert evaluate(phi, self.SPACE, env) == expected

    def test_values(self):
        assert evaluate(parse_formula("inf x0. sup x0. P(x0)", self.SIG), self.SPACE) == 1
        phi = parse_formula("sup x2. d(x0, x1)", self.SIG)
        assert evaluate(phi, self.SPACE, {0: 1, 1: 2}) == F(3, 4)

    def test_an_unassigned_variable_still_fails(self):
        phi = parse_formula("sup x0. d(x1, x1)", self.SIG)
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            evaluate(phi, self.SPACE)
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            evaluate(phi, self.SPACE, {0: 2})

    def test_the_smallest_unassigned_variable_is_named(self):
        # compiled left to right, x3 is met first; the check at the root names x1
        phi = parse_formula("d(x3, x1)", self.SIG)
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            evaluate(phi, self.SPACE)

    def test_an_unassigned_variable_under_a_vacuous_quantifier_fails(self):
        phi = parse_formula("sup x2. d(x0, x5)", self.SIG)
        with pytest.raises(FormulaError, match="^unassigned free variable x5$"):
            evaluate(phi, self.SPACE, {0: 1})

    @pytest.mark.parametrize("text", [
        "P(f(x1))",
        "sup x0. R(x0, f(x1))",  # the other term of a line along x0
        "sup x0. d(f(x0), f(x1))",  # a function term with x0 runs per point
    ])
    def test_an_unassigned_variable_inside_a_function_term_fails(self, text):
        phi = parse_formula(text, DEEP_SIG)
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            evaluate(phi, _deep_structure(1, 4))

    def test_a_variable_bound_earlier_and_free_later_still_fails(self):
        # the quantifier's slot for x1 exists by the time the free x1 is compiled
        phi = parse_formula("max(sup x1. P(x1), P(x1))", self.SIG)
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            evaluate(phi, self.SPACE)
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            compile_formula(phi, self.SPACE, (0,))
        run, den = compile_formula(phi, self.SPACE, (1,))
        for point in range(self.SPACE.size):
            expected = helpers.fraction_evaluate(phi, self.SPACE, {1: point})
            assert Fraction(run((point,)), den) == evaluate(phi, self.SPACE, {1: point}) == expected


def test_scale_chain_grows_the_denominator_past_the_structure():
    space = line_structure(["0", "1/2", "1"])  # common denominator 2
    phi = Sup(0, Sup(1, Dist(Var(0), Var(1))))
    for _ in range(5):
        phi = Conn(Scale(F(1, 3)), (phi,))
    value = evaluate(phi, space)
    assert value == helpers.fraction_evaluate(phi, space) == F(1, 243)
    # scaled back up, past 1, and capped
    back = Conn(Scale(F(729, 2)), (phi,))
    assert evaluate(back, space) == helpers.fraction_evaluate(back, space) == 1
    half = Conn(Scale(F(243, 4)), (phi,))
    assert evaluate(half, space) == helpers.fraction_evaluate(half, space) == F(1, 4)


def test_constants_coprime_to_the_structure_denominator():
    space = line_structure(["0", "1/4", "1/2", "3/4", "1"])  # common denominator 4
    d01 = Dist(Var(0), Var(1))
    third, fifth, two_sevenths = (Conn(ConstVal(q), ()) for q in (F(1, 3), F(1, 5), F(2, 7)))
    left = Conn(TruncSub(), (Conn(MaxOf(2), (third, d01)), fifth))
    right = Conn(MinOf(3), (two_sevenths, d01, Conn(Scale(F(5, 11)), (d01,))))
    phi = Conn(TruncAdd(), (left, right))
    for x, y in product(range(space.size), repeat=2):
        env = {0: x, 1: y}
        d = abs(F(x - y, 4))
        expected = min(1, max(0, max(F(1, 3), d) - F(1, 5)) + min(F(2, 7), d, F(5, 11) * d))
        assert evaluate(phi, space, env) == helpers.fraction_evaluate(phi, space, env) == expected
    # at y = x: max(1/3, 0) - 1/5 + min(2/7, 0, 0)
    sentence = normalize_sup(Sup(0, Inf(1, phi)))
    assert evaluate(sentence, space) == helpers.fraction_evaluate(sentence, space) == F(2, 15)


def test_a_rebound_variable_gets_its_point_back():
    space = line_structure(["0", "1/4", "1", "1/2"])
    sig = space.signature
    # the inner quantifier rebinds x0, then d(x0, x1) reads the outer x0
    phi = parse_formula("max(inf x0. d(x0, x1), d(x0, x1))", sig)
    for x, y in product(range(space.size), repeat=2):
        env = {0: x, 1: y}
        assert evaluate(phi, space, env) == helpers.fraction_evaluate(phi, space, env)
    sentence = parse_formula("inf x1. sup x0. min(sup x0. d(x0, x1), d(x0, x1))", sig)
    assert evaluate(sentence, space) == helpers.fraction_evaluate(sentence, space) == F(1, 2)


@pytest.mark.parametrize("make", [ConstVal, Scale])
@pytest.mark.parametrize("value", [0.5, True, "1/2"])
def test_connective_values_must_be_rational(make, value):
    with pytest.raises(FormulaError, match="is not an int or a Fraction"):
        make(value)


class TestAssignmentErrors:
    PHI = parse_formula("d(x0, x1)", discrete_structure(3).signature)

    @pytest.mark.parametrize(
        "assignment, shown",
        [
            ({0: -1, 1: 2}, "x0 is assigned -1"),
            ({0: 0, 1: 3}, "x1 is assigned 3"),
            ({0: True, 1: 2}, "x0 is assigned True"),
            ({0: 1.0, 1: 2}, "x0 is assigned 1.0"),
            ({0: 0, 1: 1, 5: 9}, "x5 is assigned 9"),
        ],
    )
    def test_bad_point_is_a_formula_error(self, assignment, shown):
        with pytest.raises(FormulaError, match=shown):
            evaluate(self.PHI, discrete_structure(3), assignment)

    def test_unassigned_free_variable_keeps_its_message(self):
        with pytest.raises(FormulaError, match="^unassigned free variable x1$"):
            evaluate(self.PHI, discrete_structure(3), {0: 0})

    def test_points_at_both_ends_are_accepted(self):
        assert evaluate(self.PHI, discrete_structure(3), {0: 0, 1: 2}) == 1
        assert evaluate(self.PHI, discrete_structure(3), {0: 2, 1: 2}) == 0


# --- rows at depth ---------------------------------------------------------------
#
# A quantifier takes one min or max over its body's row.  Atoms along the
# bound variable read lines of the integer form; predicates of arity 3,
# function terms that mention the variable and nested quantifiers that read
# it run per point.  These cases go past the rank-2, 3-point structures
# above, where a row holds at most 3 values.

DEEP_SIG = Signature(
    predicates=(
        PredicateSymbol("P", 1, capped_linear(2)),
        PredicateSymbol("R", 2, capped_linear(2)),
        PredicateSymbol("T", 3, capped_linear(2)),
    ),
    functions=(FunctionSymbol("f", 1, capped_linear(2)),),
    constants=("c",),
)


def _deep_structure(seed: int, n: int) -> MetricStructure:
    rng = random.Random(seed)
    return helpers.random_structure(
        rng, DEEP_SIG, n_points=n, values=helpers.COPRIME_VALUE_GRID,
        distances=rng.choice((helpers.DIST_GRID, helpers.COPRIME_DIST_GRID)))


def _agrees_everywhere(phi, structure, free=()):
    for points in product(range(structure.size), repeat=len(free)):
        env = dict(zip(free, points))
        assert evaluate(phi, structure, env) == helpers.fraction_evaluate(phi, structure, env), (
            format_formula(phi), env)


@settings(max_examples=60, deadline=None)
@given(
    rng=st.randoms(use_true_random=False),
    rank=st.integers(3, 4),
    free=st.integers(0, 1),
    seed=st.integers(0, 10**6),
)
def test_rows_match_the_fraction_walk_at_depth(rng, rank, free, seed):
    structure = _deep_structure(seed, rng.randint(4, 6 if rank == 3 else 5))
    sample = sample_formulas(
        DEEP_SIG, qr_bound=rank, count=12, seed=seed, free_vars_count=free, term_depth=1
    )
    for phi in [phi for phi in sample if qr(phi) == rank][:3]:
        _agrees_everywhere(phi, structure, sorted(free_vars(phi)))


LINE_CASES = [
    # R with the bound variable x2 in its second and in its first position
    ("sup x0. inf x1. sup x2. R(x0, x2) -. R(x2, x1)", (), {("R", (0, None)), ("R", (None, 0))}),
    # R's diagonal, d's line at x0's point and P's column
    ("inf x0. sup x1. max(R(x1, x1), d(x0, x1), P(x1))", (), {("R", (None, None)), (None, (0, None)), ("P", (None,))}),
    # a line at the constant's point; d(f(x1), c) mentions x1 through f and runs per point
    ("inf x0. sup x1. d(f(x1), c) (+) R(c, x1)", (), {("R", ("c", None))}),
    # a line at a function term's point, at rank 4
    ("sup x0. inf x1. sup x2. inf x3. min(R(x0, x3), d(x1, x2), R(x3, f(x0)))", (), {("R", (None, "f0"))}),
    # a ternary predicate runs per point
    ("sup x0. inf x1. sup x2. T(x0, x1, x2) -. T(x2, x2, c)", (), set()),
    # a shadowed quantifier: the inner sup x0 reads no outer x0
    ("sup x0. inf x1. max(sup x0. R(x0, x1), d(x0, x1) -. (inf x1. P(x1)))", (), {("P", (None,))}),
    # a free variable fixes the line of R at its point
    ("inf x1. sup x2. R(x0, x2) (+) 1/3 * d(x1, x2)", (0,), {("R", (0, None))}),
]


@pytest.mark.parametrize("text, free, lines", LINE_CASES)
def test_lines_along_the_bound_variable(text, free, lines):
    phi = parse_formula(text, DEEP_SIG)
    for seed, n in ((1, 4), (2, 5), (3, 6)):
        structure = _deep_structure(seed, n)
        _agrees_everywhere(phi, structure, free)
        # the named lines were read; "c" and "f0" stand for the points of c
        # and of f(x0) at x0 = 0
        names = {"c": structure.constant_map["c"], "f0": structure.function_tables["f"][0,]}
        built = set(structure.integer_form.lines)
        for name, fixed in lines:
            assert (name, tuple(names.get(a, a) for a in fixed)) in built, (text, name, fixed)


# --- failure parity on malformed structures --------------------------------------
#
# Lines are read lazily, one per fixed point, over every point in order, so
# a malformed table fails where a per-point loop fails: a missing key only
# on the line that reads it, a short distance row wherever it is read.

def _malformed(dist=None, table=None) -> MetricStructure:
    sig = Signature(predicates=(PredicateSymbol("R", 2, capped_linear(2)),))
    n = 3
    full = {(i, j): F(i + j, 4) for i in range(n) for j in range(n)}
    square = tuple(tuple(F(int(i != j), 2) for j in range(n)) for i in range(n))
    return MetricStructure(sig, ("a", "b", "c"), dist or square, {"R": table or full})


def test_a_missing_table_entry_fails_only_on_its_line():
    table = {(i, j): F(i + j, 8) for i in range(3) for j in range(3) if (i, j) != (1, 2)}
    structure = _malformed(table=table)
    phi = parse_formula("sup x1. R(x0, x1)", structure.signature)
    assert evaluate(phi, structure, {0: 0}) == F(1, 4)
    with pytest.raises(KeyError):
        evaluate(phi, structure, {0: 1})
    # the failed line was not kept: it fails again, and x0 = 0 still reads its own
    with pytest.raises(KeyError):
        evaluate(phi, structure, {0: 1})
    assert evaluate(phi, structure, {0: 0}) == F(1, 4)


def test_a_short_distance_row_fails():
    dist = ((F(0), F(1, 2), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1, 2), F(0)))
    structure = _malformed(dist=dist)
    phi = parse_formula("sup x0. sup x1. d(x0, x1)", structure.signature)
    with pytest.raises(IndexError):
        evaluate(phi, structure)


def test_a_missing_table_fails_at_compile_time():
    structure = dataclasses.replace(_malformed(), predicate_tables={})
    for text in ("sup x0. R(x0, x0)", "R(x0, x0)"):
        with pytest.raises(KeyError):
            compile_formula(parse_formula(text, structure.signature), structure, (0,))
