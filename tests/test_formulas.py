"""Formula AST: parsing, evaluation, moduli, delta-formulas, enumeration."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.formulas import (
    Apply,
    Conn,
    Const,
    ConstVal,
    Dist,
    FormulaError,
    Inf,
    MaxOf,
    Neg,
    ParseError,
    Pred,
    Scale,
    Sup,
    TruncSub,
    Var,
    _VAR_NAME,
    _tokenize,
    check_well_formed,
    collapse_connectives,
    covering_sentence,
    enumerate_atomic,
    enumerate_terms,
    evaluate,
    format_formula,
    free_vars,
    is_delta_formula,
    logical_distance_corpus,
    modulus_of,
    normalize_sup,
    parse_formula,
    qr,
    sample_formulas,
    theta_of,
)
from clgames import moduli
from clgames.moduli import capped_linear, identity_modulus
from clgames.structures import (
    FunctionSymbol,
    MetricStructure,
    PredicateSymbol,
    Signature,
)
from clgames.witnesses import discrete_structure, line_structure

import helpers

F = Fraction

SIG = Signature(
    predicates=(
        PredicateSymbol("P", 1, identity_modulus()),
        PredicateSymbol("Q", 1, identity_modulus()),
        PredicateSymbol("R", 2, capped_linear(2)),
    ),
    constants=("c", "e"),
)

TWO_POINT = MetricStructure(
    signature=SIG,
    points=("a", "b"),
    dist=((F(0), F(1)), (F(1), F(0))),
    predicate_tables={
        "P": {(0,): F(0), (1,): F(1)},
        "Q": {(0,): F(1), (1,): F(1)},
        "R": {args: F(1, 2) for args in product(range(2), repeat=2)},
    },
    constant_map={"c": 0, "e": 1},
)


class TestParser:
    def test_quantified_distance(self):
        phi = parse_formula("inf x0. d(x0, c)", SIG)
        assert phi == Inf(0, Dist(Var(0), Const("c")))

    def test_connectives(self):
        phi = parse_formula("max(P(x0), 1 - P(x1))", SIG)
        assert phi == Conn(
            MaxOf(2), (Pred("P", (Var(0),)), Conn(Neg(), (Pred("P", (Var(1),)),)))
        )

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("inf x0. sup y. d(y, x0)", Inf(0, Sup(1, Dist(Var(1), Var(0))))),
            # an index spelled out after the binder is reserved too
            ("sup y. d(y, x0)", Sup(1, Dist(Var(1), Var(0)))),
            # an index not spelled out stays free
            ("sup y. d(y, x1)", Sup(0, Dist(Var(0), Var(1)))),
            # the v<i> spelling reserves its index as well
            ("sup y. sup z. d(y, v0)", Sup(1, Sup(2, Dist(Var(1), Var(0))))),
        ],
        ids=["x0-bound-around", "x0-after", "x1-after", "v0-after"],
    )
    def test_bespoke_bound_name_gets_fresh_index(self, text, expected):
        assert parse_formula(text, SIG) == expected

    def test_rational_literals(self):
        assert parse_formula("1/4", SIG) == Conn(ConstVal(F(1, 4)), ())
        assert parse_formula("0.25", SIG) == Conn(ConstVal(F(1, 4)), ())

    def test_binary_operators_left_associative(self):
        phi = parse_formula("P(x0) -. Q(x0) -. R(x0, x1)", SIG)
        assert isinstance(phi.conn, TruncSub)
        assert isinstance(phi.args[0].conn, TruncSub)

    def test_scale(self):
        phi = parse_formula("3 * P(x0)", SIG)
        assert phi == Conn(Scale(F(3)), (Pred("P", (Var(0),)),))

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("min(P(x0), ", SIG)
        assert "position" in str(err.value)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_formula("R(x0)", SIG)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_formula("S(x0)", SIG)
        with pytest.raises(ParseError):
            parse_formula("d(x0, zz)", SIG)

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("P(f(x0, x1))", "function 'f' expects 1 arguments, got 2", 2),
            ("P(g(x0))", "unknown function 'g'", 2),
            ("d(f(zz), x0)", "unknown symbol 'zz'", 4),
        ],
        ids=["function-arity", "unknown-function", "unknown-constant-in-function"],
    )
    def test_function_term_errors_have_positions(self, text, message, position):
        sig = Signature(
            predicates=SIG.predicates,
            functions=(FunctionSymbol("f", 1, identity_modulus()),),
            constants=SIG.constants,
        )
        with pytest.raises(ParseError) as err:
            parse_formula(text, sig)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"

    def test_neg_sugar_requires_one(self):
        with pytest.raises(ParseError):
            parse_formula("2 - P(x0)", SIG)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("P(x0) P(x1)", SIG)

    @pytest.mark.parametrize("text, message", [
        ("1/\u0662", "unexpected character '/' (at position 1)"),
        ("\u0660.\u0665 * 1", "unexpected character '\u0660' (at position 0)"),
    ], ids=["arabic-indic-denominator", "arabic-indic-decimal"])
    def test_numbers_are_ascii_digits(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text, SIG)
        assert str(err.value) == message

    def test_huge_exponent_is_a_parse_error_at_once(self):
        # a literal takes no exponent, so nothing is expanded
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_formula("0.5e-10000000 * P(x0)", SIG)
        assert time.perf_counter() - start < 1

    def test_nested_too_deeply_is_a_formula_error(self):
        formula = "1 - (" * 2000 + "1" + ")" * 2000
        with pytest.raises(FormulaError, match="nested too deeply"):
            parse_formula(formula, SIG)

    def test_round_trip_on_samples(self):
        formulas = sample_formulas(SIG, qr_bound=2, count=200, seed=99, free_vars_count=1)
        for phi in formulas:
            text = format_formula(phi)
            assert parse_formula(text, SIG) == phi

    def test_text_round_trip_up_to_whitespace(self):
        for text in (
            "inf x0. d(x0, c)",
            "max(P(x0), 1 - P(x1))",
            "P(x0) -. 1/4",
            "2 * (inf x0. R(x0, x1))",
            "P(c) (+) Q(e)",
        ):
            assert format_formula(parse_formula(text, SIG)) == text

    def test_function_terms(self):
        sig = Signature(
            predicates=(PredicateSymbol("P", 1, identity_modulus()),),
            functions=(FunctionSymbol("f", 1, identity_modulus()),),
        )
        phi = parse_formula("P(f(f(x0)))", sig)
        assert phi == Pred("P", (Apply("f", (Apply("f", (Var(0),)),)),))
        assert parse_formula(format_formula(phi), sig) == phi


# pieces of formula text, blank runs and stray characters ("٣" is a
# non-ASCII digit, which the number group matches)
_TEXT_PIECES = st.sampled_from(
    ["inf", "sup", "x0", "x12", "v3", "x", "v", "y", "z_1", "d", "P", "R", "c", "min", "max",
     ".", "(", ")", ",", "-", "-.", "(+)", "+", "*", "1", "0.25", "1/4", "3/0", "1.", "٣",
     " ", "   ", "\t", "\n ", "@", "#", "é", "!"]
)


class TestTokenizer:
    @given(st.lists(_TEXT_PIECES, max_size=16).map("".join), st.sampled_from(["", " ", "  \n"]))
    @settings(max_examples=400, deadline=None)
    def test_tokens_match_the_probing_tokenizer(self, body, trailing):
        text = body + trailing
        try:
            expected = helpers.probing_tokenize(text)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                _tokenize(text)
            assert str(got.value) == str(err) and got.value.position == err.position
            return
        tokens = _tokenize(text)
        assert [(t.kind, t.text, t.pos) for t in tokens] == expected
        for tok in tokens:
            m = _VAR_NAME.match(tok.text) if tok.kind == "ident" else None
            assert tok.index == (int(m.group(1)) if m else None)


class TestQuantifierRank:
    def test_atomic(self):
        assert qr(parse_formula("d(x0, x1)", SIG)) == 0

    def test_nested(self):
        assert qr(parse_formula("sup x1. inf x2. R(x1, x2)", SIG)) == 2

    def test_connective_takes_max(self):
        assert qr(parse_formula("max(inf x2. P(x2), d(x0, x0))", SIG)) == 1


class TestEvaluate:
    def test_sup_distance(self):
        phi = parse_formula("sup y. d(y, x0)", SIG)
        assert evaluate(phi, TWO_POINT, {0: 0}) == 1

    def test_covering_two_points(self):
        phi = covering_sentence(2)
        assert evaluate(phi, TWO_POINT) == 0

    def test_covering_three_point_line(self):
        space = line_structure(["0", "1/2", "1"])
        assert evaluate(covering_sentence(1), space) == F(1, 2)

    def test_unassigned_free_variable(self):
        with pytest.raises(FormulaError):
            evaluate(parse_formula("P(x0)", SIG), TWO_POINT)

    def test_values_stay_in_unit_interval(self):
        rng = random.Random(4)
        for phi in sample_formulas(SIG, qr_bound=2, count=60, seed=17):
            v = evaluate(phi, TWO_POINT)
            assert 0 <= v <= 1


class TestModulusCalculus:
    def test_distance_atom(self):
        assert modulus_of(parse_formula("d(x0, x1)", SIG), SIG) == capped_linear(2)

    def test_scaled_predicate(self):
        phi = parse_formula("3 * P(x0)", SIG)
        assert modulus_of(phi, SIG) == capped_linear(3)

    def test_quantifier_transparent(self):
        phi = parse_formula("P(x0)", SIG)
        assert modulus_of(Inf(0, phi), SIG) == modulus_of(phi, SIG)

    def test_soundness_on_samples(self):
        from clgames.structures import validate

        rng = random.Random(12)
        formulas = sample_formulas(SIG, qr_bound=1, count=40, seed=5, free_vars_count=1)
        # the identity moduli in SIG bind: keep values within a width-1/2 window
        window = (F(1, 4), F(1, 2), F(3, 4))
        structures = [TWO_POINT] + [
            helpers.random_structure(rng, SIG, n_points=3, values=window) for _ in range(3)
        ]
        assert all(validate(s).ok for s in structures)
        for phi in formulas:
            for s in structures:
                bound = modulus_of(phi, SIG)
                for x, y in product(range(s.size), repeat=2):
                    gap = abs(evaluate(phi, s, {0: x}) - evaluate(phi, s, {0: y}))
                    assert gap <= bound.evaluate(s.distance(x, y))

    @pytest.mark.parametrize("which", ["benchmark", "SIG", "functions"])
    def test_matches_the_hull_recursion(self, which):
        # modulus_of and theta_of skip the hull for identity and zero
        # compositions and for equal maxima; the recursion in helpers
        # builds every hull, and the canonical form is unique
        sig, formulas = hull_recursion_cases(which)
        for phi in formulas:
            assert modulus_of(phi, sig) == helpers.hull_modulus_of(phi, sig)
            assert theta_of(phi, sig) == helpers.hull_theta_of(phi, sig)

    @pytest.mark.parametrize("memo", ["cleared", "full"])
    @pytest.mark.parametrize("which", ["benchmark", "SIG", "functions"])
    def test_memo_matches_the_hull_recursion(self, which, memo):
        # each sentence from cleared caches, or from caches that hold every
        # answer and are at their bound
        sig, formulas = hull_recursion_cases(which)
        if memo == "full":
            fill_the_calculus_caches()
            for phi in formulas:
                modulus_of(phi, sig), theta_of(phi, sig)
        for phi in formulas:
            if memo == "cleared":
                helpers.clear_calculus_caches()
            assert modulus_of(phi, sig) == helpers.hull_modulus_of(phi, sig)
            assert theta_of(phi, sig) == helpers.hull_theta_of(phi, sig)
        if memo == "full":
            for cache in helpers.calculus_caches():
                assert cache.cache_info().currsize == cache.cache_info().maxsize


# per calculus cache, a call whose key holds the linear modulus q t
FILLERS = {
    "compose": lambda q: moduli.compose(moduli.linear_modulus(q), identity_modulus()),
    "modulus_max": lambda q: moduli.modulus_max(moduli.linear_modulus(q)),
    "modulus_leq": lambda q: moduli.modulus_leq(moduli.linear_modulus(q), identity_modulus()),
    "cap_at_one": lambda q: moduli.cap_at_one(moduli.linear_modulus(q)),
    "_capped_linear": lambda q: moduli._capped_linear(F(q), F(1)),
}


def fill_the_calculus_caches():
    """Clear each calculus cache and fill it to its bound with keys that no
    sentence asks."""
    helpers.clear_calculus_caches()
    for name, call in FILLERS.items():
        cache, q = getattr(moduli, name), 10**6
        while cache.cache_info().currsize < cache.cache_info().maxsize:
            call(q)
            q += 1


def hull_recursion_cases(which: str):
    """A signature and its sampled formulas, for the hull recursion tests."""
    sig = {
        "benchmark": Signature(predicates=(
            PredicateSymbol("P", 1, capped_linear(2)), PredicateSymbol("R", 2, capped_linear(2)),
        )),
        "SIG": SIG,
        "functions": Signature(
            predicates=(PredicateSymbol("P", 1, capped_linear(F(3, 2))),),
            functions=(
                FunctionSymbol("f", 1, capped_linear(F(1, 2), F(1, 3))),
                FunctionSymbol("g", 2, identity_modulus()),
            ),
            constants=("c",),
        ),
    }[which]
    formulas = sample_formulas(sig, 3, 40, 0) + [
        phi for q in (2, 3, 4) for phi in sample_formulas(sig, q, 20, q, free_vars_count=1)
    ]
    return sig, formulas


class TestDeltaFormulas:
    def test_atomic_cases(self):
        d01 = parse_formula("d(x0, x1)", SIG)
        assert is_delta_formula(d01, SIG, capped_linear(2))
        assert not is_delta_formula(d01, SIG, identity_modulus())

    def test_lipschitz_wrapper_of_quantified(self):
        phi = parse_formula("1 - (inf x2. d(x2, x0))", SIG)
        assert is_delta_formula(phi, SIG, capped_linear(2))

    def test_steep_connective_needs_wide_delta(self):
        phi = parse_formula("3 * P(x0)", SIG)
        assert not is_delta_formula(phi, SIG, identity_modulus())
        assert is_delta_formula(phi, SIG, capped_linear(3))

    def test_connective_children_must_be_atomic_or_quantified(self):
        nested = parse_formula("1 - (1 - P(x0))", SIG)
        assert not is_delta_formula(nested, SIG, capped_linear(4))
        assert is_delta_formula(collapse_connectives(nested), SIG, capped_linear(4))

    def test_quantified_child_is_checked_through_its_body(self):
        phi = parse_formula("max(P(x0), inf x1. P(x1))", SIG)
        assert is_delta_formula(phi, SIG, identity_modulus())
        # d has modulus min(2t, 1): the child's body needs the wider delta
        phi = parse_formula("max(P(x0), inf x1. d(x1, x0))", SIG)
        assert not is_delta_formula(phi, SIG, identity_modulus())
        assert is_delta_formula(phi, SIG, capped_linear(2))
        # a connective child stays rejected, whatever delta
        phi = parse_formula("max(P(x0), 1 - P(x0))", SIG)
        assert not is_delta_formula(phi, SIG, capped_linear(2))


class TestTheta:
    def test_atomic_is_identity(self):
        for text in ("d(x0, x1)", "P(x0)", "R(x0, x1)"):
            assert theta_of(parse_formula(text, SIG), SIG) == identity_modulus()

    def test_lipschitz_wrapper_is_identity(self):
        assert theta_of(parse_formula("1 - d(x0, x1)", SIG), SIG) == identity_modulus()

    def test_scale_of_quantified(self):
        phi = parse_formula("2 * (inf x0. P(x0))", SIG)
        assert theta_of(phi, SIG) == capped_linear(2)

    def test_lipschitz_wrapper_preserves_child_theta(self):
        for phi in sample_formulas(SIG, qr_bound=2, count=30, seed=8, free_vars_count=1):
            theta = theta_of(phi, SIG)
            assert theta_of(Conn(Neg(), (phi,)), SIG) == theta
            assert theta_of(Conn(MaxOf(2), (phi, phi)), SIG) == theta


class TestNormalizeSup:
    def test_rewrites_sup(self):
        phi = parse_formula("sup x0. P(x0)", SIG)
        expected = Conn(Neg(), (Inf(0, Conn(Neg(), (Pred("P", (Var(0),)),))),))
        assert normalize_sup(phi) == expected

    def test_no_sup_unchanged(self):
        phi = parse_formula("inf x0. min(P(x0), Q(x0))", SIG)
        assert normalize_sup(phi) == phi

    def test_double_sup_preserved_on_fixtures(self):
        phi = parse_formula("sup x0. sup x1. R(x0, x1)", SIG)
        rewritten = normalize_sup(phi)
        assert "sup" not in format_formula(rewritten)
        rng = random.Random(2)
        for s in [TWO_POINT] + [helpers.random_structure(rng, SIG, n_points=3) for _ in range(3)]:
            assert evaluate(rewritten, s) == evaluate(phi, s)

    def test_preservation_on_samples(self):
        rng = random.Random(31)
        structures = [TWO_POINT] + [
            helpers.random_structure(rng, SIG, n_points=3) for _ in range(3)
        ]
        for phi in sample_formulas(SIG, qr_bound=2, count=60, seed=13, free_vars_count=1):
            rewritten = normalize_sup(phi)
            for s in structures:
                for pt in range(s.size):
                    assert evaluate(rewritten, s, {0: pt}) == evaluate(phi, s, {0: pt})


class TestCollapseConnectives:
    def test_preserves_value_and_rank(self):
        structures = [TWO_POINT]
        rng = random.Random(41)
        structures += [helpers.random_structure(rng, SIG, n_points=3) for _ in range(2)]
        for phi in sample_formulas(SIG, qr_bound=2, count=80, seed=21, free_vars_count=1):
            collapsed = collapse_connectives(phi)
            assert qr(collapsed) == qr(phi)
            assert _no_nested_conn(collapsed)
            for s in structures:
                for pt in range(s.size):
                    assert evaluate(collapsed, s, {0: pt}) == evaluate(phi, s, {0: pt})


def _no_nested_conn(phi) -> bool:
    if isinstance(phi, Conn):
        return all(not isinstance(a, Conn) and _no_nested_conn(a) for a in phi.args)
    if isinstance(phi, (Inf, Sup)):
        return _no_nested_conn(phi.body)
    return True


class TestEnumerateAtomic:
    def test_empty_signature_two_vars(self):
        atoms = enumerate_atomic(Signature(), 2)
        assert atoms == [Dist(Var(0), Var(1))]

    def test_unary_predicate_one_var(self):
        sig = Signature(predicates=(PredicateSymbol("P", 1, identity_modulus()),))
        atoms = enumerate_atomic(sig, 1)
        assert atoms == [Pred("P", (Var(0),))]

    def test_unary_function_depth_two(self):
        sig = Signature(functions=(FunctionSymbol("f", 1, identity_modulus()),))
        terms = enumerate_terms(sig, 1, 2)
        assert terms == [Var(0), Apply("f", (Var(0),)), Apply("f", (Apply("f", (Var(0),)),))]
        atoms = enumerate_atomic(sig, 1, term_depth=2)
        # exhaustive generation oracle: of the 9 ordered term pairs, the 3
        # diagonal ones drop and the rest pair up symmetrically
        assert len(atoms) == len(terms) * (len(terms) - 1) // 2 == 3
        assert all(isinstance(a, Dist) for a in atoms)

    def test_relational_ignores_depth(self):
        atoms_0 = enumerate_atomic(SIG, 2, term_depth=0)
        atoms_9 = enumerate_atomic(SIG, 2, term_depth=9)
        assert atoms_0 == atoms_9

    def test_deterministic_order(self):
        assert enumerate_atomic(SIG, 2) == enumerate_atomic(SIG, 2)


class TestLogicalDistance:
    def test_same_formula_distance_zero(self):
        phi = parse_formula("inf x0. P(x0)", SIG)
        corpus = [TWO_POINT, discrete_structure(3)] if False else [TWO_POINT]
        assert logical_distance_corpus(phi, phi, corpus) == 0

    def test_distinct_predicates_distance_one(self):
        # witness structure: P constantly 0, every other predicate constantly 1
        sig = Signature(
            predicates=(
                PredicateSymbol("P", 1, identity_modulus()),
                PredicateSymbol("Q", 1, identity_modulus()),
            ),
            constants=("c",),
        )
        witness = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            predicate_tables={
                "P": {(0,): F(0), (1,): F(0)},
                "Q": {(0,): F(1), (1,): F(1)},
            },
            constant_map={"c": 0},
        )
        phi = parse_formula("P(c)", sig)
        psi = parse_formula("Q(c)", sig)
        assert logical_distance_corpus(phi, psi, [witness]) == 1

    def test_distinct_constants_distance_one(self):
        # witness: the predicate separates the two constant interpretations
        sig = Signature(
            predicates=(PredicateSymbol("P", 1, capped_linear(2)),),
            constants=("c", "e"),
        )
        witness = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            predicate_tables={"P": {(0,): F(0), (1,): F(1)}},
            constant_map={"c": 0, "e": 1},
        )
        phi = parse_formula("P(c)", sig)
        psi = parse_formula("P(e)", sig)
        assert logical_distance_corpus(phi, psi, [witness]) == 1

    def test_free_variable_mismatch_rejected(self):
        with pytest.raises(FormulaError):
            logical_distance_corpus(
                parse_formula("P(x0)", SIG), parse_formula("P(x1)", SIG), [TWO_POINT]
            )

    def test_enumerated_atoms_pairwise_discrete_with_witness_corpus(self):
        # with the right witnesses in the corpus, distinct atoms sit at
        # logical distance exactly 1 from each other
        sig = Signature(
            predicates=(
                PredicateSymbol("P", 1, capped_linear(2)),
                PredicateSymbol("Q", 1, capped_linear(2)),
            ),
            constants=("c",),
        )

        def witness(p_values, q_values, c_at):
            return MetricStructure(
                signature=sig,
                points=("a", "b"),
                dist=((F(0), F(1)), (F(1), F(0))),
                predicate_tables={
                    "P": {(0,): p_values[0], (1,): p_values[1]},
                    "Q": {(0,): q_values[0], (1,): q_values[1]},
                },
                constant_map={"c": c_at},
            )

        corpus = [
            witness((F(0), F(0)), (F(1), F(1)), 0),  # P and Q constantly apart
            witness((F(0), F(1)), (F(1), F(1)), 0),  # P separates c from a point
            witness((F(0), F(0)), (F(0), F(1)), 0),  # Q separates c from a point
        ]
        atoms = enumerate_atomic(sig, 1)
        assert len(atoms) == len(set(atoms))
        for i, phi in enumerate(atoms):
            for psi in atoms[i + 1 :]:
                if free_vars(phi) != free_vars(psi):
                    continue
                assert logical_distance_corpus(phi, psi, corpus) == 1


class TestSampleFormulas:
    def test_count_zero(self):
        assert sample_formulas(SIG, 2, 0, seed=1) == []

    def test_deterministic(self):
        a = sample_formulas(SIG, 2, 50, seed=42)
        b = sample_formulas(SIG, 2, 50, seed=42)
        assert a == b

    def test_well_formed_with_bounded_rank(self):
        for phi in sample_formulas(SIG, qr_bound=2, count=200, seed=3):
            check_well_formed(phi, SIG)
            assert qr(phi) <= 2
            assert free_vars(phi) == frozenset()

    def test_free_variables_respected(self):
        for phi in sample_formulas(SIG, qr_bound=1, count=50, seed=9, free_vars_count=2):
            assert free_vars(phi) <= {0, 1}
