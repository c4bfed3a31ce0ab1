"""Structure validation, reducts, expansions, relationalization, file I/O."""

import dataclasses
import json
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from clgames import structures
from clgames.formulas import evaluate, parse_formula, sample_formulas
from clgames.game import game_value
from clgames.moduli import PwlModulus, capped_linear, identity_modulus, linear_modulus
from clgames.rationals import rat_from_json
from clgames.structures import (
    FunctionSymbol,
    IntegerForm,
    MetricStructure,
    NamedPair,
    PredicateSymbol,
    Signature,
    StructureValidationError,
    expand_with_constants,
    find_isomorphism,
    load_pair,
    load_structure,
    reduct,
    relationalize,
    save_pair,
    save_structure,
    structure_from_json,
    structure_to_json,
    validate,
)

import helpers

F = Fraction


def two_point(pred_modulus) -> MetricStructure:
    sig = Signature(predicates=(PredicateSymbol("P", 1, pred_modulus),))
    return MetricStructure(
        signature=sig,
        points=("a", "b"),
        dist=((F(0), F(1)), (F(1), F(0))),
        predicate_tables={"P": {(0,): F(0), (1,): F(1)}},
    )


class TestValidate:
    def test_valid_identity_modulus(self):
        assert validate(two_point(identity_modulus())).ok

    def test_modulus_violation_witnessed(self):
        report = validate(two_point(linear_modulus(F(1, 2))))
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"predicate-modulus"}
        witness = report.violations[0].witness
        assert witness[0] == "P" and {witness[1], witness[2]} == {(0,), (1,)}

    def test_triangle_violation_witnessed(self):
        s = MetricStructure(
            signature=Signature(),
            points=("a", "b", "c"),
            dist=(
                (F(0), F(1, 4), F(1)),
                (F(1, 4), F(0), F(1, 4)),
                (F(1), F(1, 4), F(0)),
            ),
        )
        report = validate(s)
        assert any(v.kind == "triangle" for v in report.violations)

    def test_zero_distance_rejected_unless_pseudometric(self):
        s = MetricStructure(
            signature=Signature(),
            points=("a", "b"),
            dist=((F(0), F(0)), (F(0), F(0))),
        )
        assert not validate(s).ok
        lax = validate(s, allow_pseudometric=True)
        assert lax.ok and any("pseudometric" in note for note in lax.notes)

    def test_diameter_and_bounds(self):
        s = MetricStructure(
            signature=Signature(),
            points=("a", "b"),
            dist=((F(0), F(3, 2)), (F(3, 2), F(0))),
        )
        assert any(v.kind == "diameter" for v in validate(s).violations)

    def test_incomplete_table_reported(self):
        sig = Signature(predicates=(PredicateSymbol("P", 1, capped_linear(2)),))
        s = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            predicate_tables={"P": {(0,): F(0)}},
        )
        assert any(v.kind == "incomplete-table" for v in validate(s).violations)

    def test_random_fixtures_valid(self):
        rng = random.Random(7)
        for _ in range(25):
            s = helpers.random_structure(rng, helpers.random_signature(rng, with_constant=True))
            assert validate(s).ok

    def test_perturbation_flips_report(self):
        # tight modulus: any predicate entry pushed beyond its bound must
        # surface as a violation, and only then
        sig = Signature(predicates=(PredicateSymbol("P", 1, linear_modulus(F(3, 4))),))
        base = MetricStructure(
            signature=sig,
            points=("a", "b", "c"),
            dist=(
                (F(0), F(1, 2), F(3, 4)),
                (F(1, 2), F(0), F(1)),
                (F(3, 4), F(1), F(0)),
            ),
            predicate_tables={"P": {(0,): F(1, 2), (1,): F(1, 2), (2,): F(1, 2)}},
        )
        assert validate(base).ok
        flips = 0
        for idx in range(3):
            for value in helpers.VALUE_GRID:
                table = dict(base.predicate_tables["P"])
                table[(idx,)] = value
                mutated = MetricStructure(
                    signature=sig,
                    points=base.points,
                    dist=base.dist,
                    predicate_tables={"P": table},
                )
                expected_ok = all(
                    abs(table[(i,)] - table[(j,)]) <= F(3, 4) * base.dist[i][j]
                    for i in range(3)
                    for j in range(3)
                )
                assert validate(mutated).ok == expected_ok
                flips += not expected_ok
        assert flips > 0


class TestValidateBoundaries:
    """The integer checks at their boundaries, over the common denominator
    D = 105 of distances and values over 3, 5 and 7: a bound met exactly is
    valid, one unit of 1/D beyond it is not."""

    # d(a,b) = 4/7, d(a,c) = 2/3, d(b,c) = 3/5
    DIST = (
        (F(0), F(4, 7), F(2, 3)),
        (F(4, 7), F(0), F(3, 5)),
        (F(2, 3), F(3, 5), F(0)),
    )

    def unary(self, modulus, values) -> MetricStructure:
        sig = Signature(predicates=(PredicateSymbol("P", 1, modulus),))
        table = {(i,): v for i, v in enumerate(values)}
        return MetricStructure(sig, ("a", "b", "c"), self.DIST, {"P": table})

    def function(self, modulus) -> MetricStructure:
        # f(a) = a, f(b) = b, f(c) = a: d(f(a), f(b)) = 4/7 at the gap 4/7,
        # and d(f(b), f(c)) = 4/7 at the gap 3/5
        sig = Signature(functions=(FunctionSymbol("f", 1, modulus),))
        table = {(0,): 0, (1,): 1, (2,): 0}
        return MetricStructure(sig, ("a", "b", "c"), self.DIST, function_tables={"f": table})

    def test_predicate_gap_equal_to_the_modulus(self):
        half = linear_modulus(F(1, 2))  # 2/7 at the gap 4/7
        assert validate(self.unary(half, (F(0), F(2, 7), F(0)))).ok
        report = validate(self.unary(half, (F(0), F(31, 105), F(0))))
        assert [(v.kind, v.witness) for v in report.violations] == [
            ("predicate-modulus", ("P", (0,), (1,)))
        ]
        assert report.violations[0].detail == "|0 - 31/105| > modulus(4/7) = 2/7"

    def test_predicate_bound_between_two_units(self):
        # at the gap 3/5 the bound is 3/10 = 31.5/105: 31/105 is within it,
        # 32/105 is not
        half = linear_modulus(F(1, 2))
        assert validate(self.unary(half, (F(0), F(0), F(31, 105)))).ok
        report = validate(self.unary(half, (F(0), F(0), F(32, 105))))
        assert [(v.kind, v.witness) for v in report.violations] == [
            ("predicate-modulus", ("P", (1,), (2,)))
        ]
        assert report.violations[0].detail == "|0 - 32/105| > modulus(3/5) = 3/10"

    def test_function_distance_equal_to_the_modulus(self):
        assert validate(self.function(identity_modulus())).ok
        # 59/105 at the gap 4/7 and 60/105 = 4/7 at the gap 3/5
        below = PwlModulus(((F(0), F(0)), (F(4, 7), F(59, 105))), F(1, 3))
        report = validate(self.function(below))
        assert [(v.kind, v.witness) for v in report.violations] == [
            ("function-modulus", ("f", (0,), (1,)))
        ]
        assert report.violations[0].detail == "d(f(x),f(y)) = 4/7 > modulus(4/7) = 59/105"

    def binary(self, spread) -> MetricStructure:
        # R(a,a) = R(c,b) = spread, R(b,c) = 1/7 and 0 elsewhere; the least
        # off-diagonal bound is 30/105 = 2/7 at d(a,b) = 4/7, and only tuples
        # that differ by swapping a and b in some coordinates have it
        sig = Signature(predicates=(PredicateSymbol("R", 2, linear_modulus(F(1, 2))),))
        table = {args: F(0) for args in product(range(3), repeat=2)}
        table[0, 0] = table[2, 1] = spread
        table[1, 2] = F(1, 7)
        return MetricStructure(sig, ("a", "b", "c"), self.DIST, {"R": table})

    def test_value_spread_equal_to_the_least_bound(self):
        structure = self.binary(F(2, 7))
        assert validate(structure).ok
        assert helpers.fraction_validate(structure).ok

    def test_value_spread_one_unit_beyond_the_least_bound(self):
        # 31/105 breaks exactly the pairs at the least bound that hold both
        # extreme values; every other bound is at least 31/105
        structure = self.binary(F(31, 105))
        report = validate(structure)
        assert [(v.witness, v.detail) for v in report.violations] == [
            (("R", (0, 0), (0, 1)), "|31/105 - 0| > modulus(4/7) = 2/7"),
            (("R", (0, 0), (1, 0)), "|31/105 - 0| > modulus(4/7) = 2/7"),
            (("R", (0, 0), (1, 1)), "|31/105 - 0| > modulus(4/7) = 2/7"),
            (("R", (2, 0), (2, 1)), "|0 - 31/105| > modulus(4/7) = 2/7"),
        ]
        assert report.violations == helpers.fraction_validate(structure).violations

    def test_triangle_at_equality(self):
        def triangle(ac):
            return MetricStructure(
                signature=Signature(),
                points=("a", "b", "c"),
                dist=((F(0), F(2, 7), ac), (F(2, 7), F(0), F(1, 3)), (ac, F(1, 3), F(0))),
            )

        assert validate(triangle(F(13, 21))).ok  # 2/7 + 1/3
        report = validate(triangle(F(66, 105)))
        assert [(v.kind, v.witness) for v in report.violations] == [
            ("triangle", ("a", "b", "c")),
            ("triangle", ("c", "b", "a")),
        ]


class TestFunctionImageNotAPoint:
    """An image outside the points is reported once, as out of range, and
    the modulus check skips it."""

    def structure(self, image) -> MetricStructure:
        # f(a) = image, f(b) = a, at d(a,b) = 1/2 under the modulus t/7
        sig = Signature(functions=(FunctionSymbol("f", 1, linear_modulus(F(1, 7))),))
        dist = ((F(0), F(1, 2)), (F(1, 2), F(0)))
        return MetricStructure(sig, ("a", "b"), dist, function_tables={"f": {(0,): image, (1,): 0}})

    @pytest.mark.parametrize("image", [2, -1])
    def test_only_the_range_is_reported(self, image):
        structure = self.structure(image)
        report = validate(structure)
        assert [(v.kind, v.witness, v.detail) for v in report.violations] == [
            ("function-range", ("f", (0,)), f"image {image} not a point")
        ]
        assert report.violations == helpers.fraction_validate(structure).violations

    def test_load_reports_the_range(self, tmp_path):
        path = tmp_path / "s.json"
        save_structure(self.structure(2), path)
        with pytest.raises(StructureValidationError, match="function-range"):
            load_structure(path)


class TestCandidatePairs:
    """Only tuple pairs whose values lie more than the least off-diagonal
    bound apart are compared exactly."""

    SIG = Signature(
        predicates=(
            PredicateSymbol("P", 1, capped_linear(2)),
            PredicateSymbol("R", 2, capped_linear(2)),
        )
    )

    def exact_pairs(self, monkeypatch, structure) -> int:
        # every pair whose bound is computed is compared exactly
        counted = []
        bounds = structures._bounds

        def counting(rows, xs, coords, js):
            counted.append(len(js))
            return bounds(rows, xs, coords, js)

        monkeypatch.setattr(structures, "_bounds", counting)
        validate(structure)
        return sum(counted)

    def test_no_pair_on_a_benchmark_structure(self, monkeypatch):
        # distances in [1/2, 1] under min(2t, 1): the least bound is 1, and
        # no two values in [0, 1] lie further apart
        structure = helpers.random_structure(random.Random(0), self.SIG, n_points=18)
        assert self.exact_pairs(monkeypatch, structure) == 0

    def test_an_outlier_is_compared_with_the_values_beyond_reach(self, monkeypatch):
        structure = helpers.random_structure(random.Random(0), self.SIG, n_points=18)
        structure.predicate_tables["R"][3, 5] = F(5, 4)
        candidates = sum(
            abs(table[xs] - table[ys]) > 1
            for table in structure.predicate_tables.values()
            for xs in table
            for ys in table
            if xs < ys
        )
        # 5/4 is more than 1 from 0 only
        assert candidates == sum(v == 0 for v in structure.predicate_tables["R"].values()) > 0
        assert self.exact_pairs(monkeypatch, structure) == candidates
        assert validate(structure).violations == helpers.fraction_validate(structure).violations


class TestReduct:
    def setup_method(self):
        rng = random.Random(3)
        sig = Signature(
            predicates=(
                PredicateSymbol("P", 1, capped_linear(2)),
                PredicateSymbol("Q", 2, capped_linear(2)),
            ),
            constants=("c",),
        )
        self.s = helpers.random_structure(rng, sig, n_points=3)

    def test_full_reduct_is_identity(self):
        assert reduct(self.s, self.s.signature) == self.s

    def test_empty_reduct_is_pure_metric(self):
        bare = reduct(self.s, Signature())
        assert bare.signature == Signature()
        assert bare.dist == self.s.dist and bare.points == self.s.points
        assert bare.predicate_tables == {} and bare.constant_map == {}

    def test_drop_one_predicate(self):
        sub = Signature(predicates=(self.s.signature.predicate("P"),), constants=("c",))
        r = reduct(self.s, sub)
        assert set(r.predicate_tables) == {"P"}
        assert r.dist == self.s.dist
        assert validate(r).ok

    def test_unknown_symbol_rejected(self):
        foreign = Signature(predicates=(PredicateSymbol("Z", 1, capped_linear(2)),))
        with pytest.raises(ValueError):
            reduct(self.s, foreign)

    def test_mismatched_modulus_rejected(self):
        changed = Signature(predicates=(PredicateSymbol("P", 1, identity_modulus()),))
        with pytest.raises(ValueError):
            reduct(self.s, changed)

    def test_random_reducts_stay_valid(self):
        rng = random.Random(61)
        for _ in range(5):
            sig = helpers.random_signature(rng, with_constant=True)
            s = helpers.random_structure(rng, sig)
            for keep in range(len(sig.predicates) + 1):
                sub = Signature(predicates=sig.predicates[:keep], constants=sig.constants)
                assert validate(reduct(s, sub)).ok


class TestExpandWithConstants:
    def test_empty_expansion_is_identity(self):
        s = two_point(identity_modulus())
        assert expand_with_constants(s, []) == s

    def test_single_point(self):
        s = expand_with_constants(two_point(identity_modulus()), ["a"])
        assert s.signature.constants == ("c0",)
        assert s.constant_map == {"c0": 0}
        assert validate(s).ok

    def test_repeated_expansion_numbers_in_order(self):
        s = expand_with_constants(two_point(identity_modulus()), [0, 1])
        s = expand_with_constants(s, [1])
        assert s.signature.constants == ("c0", "c1", "c2")
        assert s.constant_map == {"c0": 0, "c1": 1, "c2": 1}

    def test_unknown_point_rejected(self):
        with pytest.raises(KeyError):
            expand_with_constants(two_point(identity_modulus()), ["zz"])


class TestRelationalize:
    def test_no_functions_unchanged(self):
        s = two_point(identity_modulus())
        assert relationalize(s) is s

    def test_identity_function_gives_distance_table(self):
        sig = Signature(functions=(FunctionSymbol("f", 1, identity_modulus()),))
        s = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            function_tables={"f": {(0,): 0, (1,): 1}},
        )
        r = relationalize(s)
        assert r.signature.is_relational
        table = r.predicate_tables["P_f"]
        for a, b in product(range(2), repeat=2):
            assert table[(a, b)] == s.dist[b][a]

    def test_swap_function_table(self):
        sig = Signature(functions=(FunctionSymbol("f", 1, identity_modulus()),))
        s = MetricStructure(
            signature=sig,
            points=("0", "1"),
            dist=((F(0), F(1)), (F(1), F(0))),
            function_tables={"f": {(0,): 1, (1,): 0}},
        )
        table = relationalize(s).predicate_tables["P_f"]
        assert table[(0, 0)] == 1 and table[(0, 1)] == 0
        assert table[(1, 0)] == 0 and table[(1, 1)] == 1

    def test_function_recoverable_and_valid(self):
        rng = random.Random(11)
        sig = Signature(
            predicates=(PredicateSymbol("P", 1, capped_linear(2)),),
            functions=(FunctionSymbol("f", 1, capped_linear(2)),),
        )
        s = helpers.random_structure(rng, Signature(predicates=sig.predicates), n_points=3)
        ftab = {(i,): rng.randrange(3) for i in range(3)}
        s = MetricStructure(
            signature=sig,
            points=s.points,
            dist=s.dist,
            predicate_tables=s.predicate_tables,
            function_tables={"f": ftab},
        )
        assert validate(s).ok
        r = relationalize(s)
        assert validate(r).ok
        graph = r.predicate_tables["P_f"]
        for args, image in ftab.items():
            for b in range(3):
                assert (graph[args + (b,)] == 0) == (b == image)
        # metric and points preserved exactly
        assert r.points == s.points and r.dist == s.dist


class TestFindIsomorphism:
    def test_permuted_copy_found(self):
        rng = random.Random(5)
        s = helpers.random_structure(rng, helpers.random_signature(rng, with_constant=True))
        t = helpers.permuted_copy(s, rng)
        assert find_isomorphism(s, t) is not None

    def test_distinct_structures_not_isomorphic(self):
        a = two_point(identity_modulus())
        b = MetricStructure(
            signature=a.signature,
            points=("a", "b"),
            dist=a.dist,
            predicate_tables={"P": {(0,): F(0), (1,): F(1, 2)}},
        )
        assert find_isomorphism(a, b) is None


class TestJsonIO:
    def test_round_trip_corpus(self, tmp_path):
        rng = random.Random(23)
        for i in range(20):
            sig = helpers.random_signature(rng, with_constant=rng.random() < 0.5)
            s = helpers.random_structure(rng, sig)
            path = tmp_path / f"fixture_{i}.json"
            save_structure(s, path)
            assert load_structure(path) == s

    def test_round_trip_preserves_exact_rationals(self):
        s = two_point(identity_modulus())
        assert structure_from_json(structure_to_json(s)) == s

    def test_decimal_strings_accepted(self):
        blob = structure_to_json(two_point(identity_modulus()))
        blob["dist"][0][1] = "0.25"
        blob["dist"][1][0] = "1/4"
        loaded = structure_from_json(blob)
        assert loaded.dist[0][1] == F(1, 4) == loaded.dist[1][0]

    def test_load_rejects_triangle_violation(self, tmp_path):
        s = MetricStructure(
            signature=Signature(),
            points=("a", "b", "c"),
            dist=(
                (F(0), F(1, 4), F(1)),
                (F(1, 4), F(0), F(1, 4)),
                (F(1), F(1, 4), F(0)),
            ),
        )
        path = tmp_path / "bad.json"
        save_structure(s, path)
        with pytest.raises(StructureValidationError) as err:
            load_structure(path)
        assert "triangle" in str(err.value)
        # the skip flag loads the same file
        assert load_structure(path, check=False) == s

    def test_pair_round_trip(self, tmp_path):
        rng = random.Random(29)
        pair = helpers.random_pair(rng)
        path = tmp_path / "pair.json"
        save_pair(pair, path)
        assert load_pair(path) == pair

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_structure(path)

    @pytest.mark.parametrize("load", [load_structure, load_pair])
    def test_nested_too_deeply_is_a_value_error(self, tmp_path, load):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ValueError, match="nested too deeply"):
            load(path)

    def test_huge_exponent_is_a_value_error_at_once(self, tmp_path):
        # Fraction would expand 10^10000000 exactly, for seconds
        data = structure_to_json(two_point(identity_modulus()))
        data["dist"][0][1] = data["dist"][1][0] = "1e-10000000"
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"exponent out of range in '1e-10000000'"):
            load_structure(path)
        assert time.perf_counter() - start < 1
        # the bound is 10000 either way
        data["dist"][0][1] = data["dist"][1][0] = "1e-10000"
        assert structure_from_json(data).dist[0][1] == F(1, 10**10000)

    @pytest.mark.parametrize("raw", [[True, 1], [1, True], [True, True], [1.0, 1]])
    def test_rational_pair_entries_must_be_integers(self, raw):
        # a bool passes isinstance(v, int): [true, true] would load as 1
        with pytest.raises(ValueError, match=r"rational pair must be \[num, den\] with integers"):
            rat_from_json(raw)

    @pytest.mark.parametrize(
        "path, raw, field",
        [
            (("signature", "predicates", 0, "arity"), 1.9, "the arity of 'P'"),
            (("signature", "functions", 0, "arity"), True, "the arity of 'f'"),
            (("functions", "f", "(0)"), 1.7, "a function image"),
            (("constants", "c"), 1.0, "constant 'c'"),
        ],
    )
    def test_counts_must_be_json_integers(self, path, raw, field):
        # int() would load an arity of 1.9 as 1
        sig = Signature(
            predicates=(PredicateSymbol("P", 1, identity_modulus()),),
            functions=(FunctionSymbol("f", 1, capped_linear(2)),),
            constants=("c",),
        )
        s = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            predicate_tables={"P": {(0,): F(0), (1,): F(1)}},
            function_tables={"f": {(0,): 1, (1,): 0}},
            constant_map={"c": 1},
        )
        data = structure_to_json(s)
        assert structure_from_json(data) == s
        *parents, last = path
        target = data
        for step in parents:
            target = target[step]
        target[last] = raw
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {raw!r}"):
            structure_from_json(data)

    @pytest.mark.parametrize("arity", [18, 65])
    def test_table_out_of_reach_is_a_value_error(self, arity):
        # 2^18 entries, all but one missing, or an arity above 64: refused
        # before validate would report each missing entry
        data = structure_to_json(two_point(identity_modulus()))
        data["signature"]["predicates"][0]["arity"] = arity
        with pytest.raises(ValueError, match="out of reach on 2 points"):
            structure_from_json(data)
        data["points"], data["dist"] = ["a"], [[0]]
        data["predicates"] = {"P": {"(" + ",".join("0" * arity) + ")": 0}}
        if arity > 64:
            with pytest.raises(ValueError, match="out of reach on 1 points"):
                structure_from_json(data)
        else:
            # on one point the table is complete
            assert validate(structure_from_json(data)).ok


class TestNamedPair:
    def test_signature_mismatch_rejected(self):
        a = two_point(identity_modulus())
        b = two_point(capped_linear(2))
        with pytest.raises(ValueError):
            NamedPair(a, b)


@pytest.fixture
def form_builds(monkeypatch):
    """Every integer form built, as (structure, den asked for)."""
    built = []
    build = IntegerForm.of.__func__

    def counting(cls, structure, den=None):
        built.append((structure, den))
        return build(cls, structure, den)

    monkeypatch.setattr(IntegerForm, "of", classmethod(counting))
    return built


class TestIntegerForm:
    def test_evaluate_builds_the_form_once(self, form_builds):
        rng = random.Random(11)
        sig = helpers.random_signature(rng, with_constant=True, with_function=True)
        structure = helpers.random_structure(rng, sig, 4, values=helpers.COPRIME_VALUE_GRID)
        sentences = sample_formulas(sig, qr_bound=2, count=40, seed=11)
        assert len(sentences) == 40
        for phi in sentences:
            assert evaluate(phi, structure) == helpers.fraction_evaluate(phi, structure)
        assert len(form_builds) == 1 and form_builds[0][0] is structure

    def test_load_pair_then_game_builds_each_side_once(self, form_builds, tmp_path):
        # the sides' own denominators are 8 and 12, built once each by
        # load_pair's validation; the solver adds one form per side over 24
        rng = random.Random(12)
        sig = helpers.random_signature(rng)
        pair = NamedPair(
            helpers.random_structure(rng, sig, 3),
            helpers.random_structure(rng, sig, 3, distances=(F(2, 3), F(1))),
        )
        path = tmp_path / "pair.json"
        save_pair(pair, path)
        loaded = load_pair(path)
        value = game_value(loaded, rounds=2).value
        assert value == helpers.brute_force_game_value(loaded, (), (), 2)
        assert [(id(s), den) for s, den in form_builds] == [
            (id(loaded.left), None), (id(loaded.right), None),
            (id(loaded.left), 24), (id(loaded.right), 24),
        ]
        assert (loaded.left.integer_form.den, loaded.right.integer_form.den) == (8, 12)
        # sides over one denominator are read as they are, with no build
        form_builds.clear()
        assert game_value(NamedPair(loaded.left, loaded.left), rounds=2).value == 0
        assert form_builds == []

    def test_a_multiple_of_the_denominator_scales_every_number(self):
        rng = random.Random(13)
        structure = helpers.random_structure(rng, helpers.random_signature(rng), 3)
        form = structure.integer_form
        assert IntegerForm.of(structure, form.den) == form
        wider = IntegerForm.of(structure, form.den * 3)
        assert wider.den == form.den * 3
        assert wider.dist == tuple(tuple(3 * v for v in row) for row in form.dist)
        assert wider.predicates == {
            name: {args: 3 * v for args, v in t.items()} for name, t in form.predicates.items()
        }

    def test_replaced_structure_gets_its_own_form(self, form_builds):
        sig = Signature(predicates=(PredicateSymbol("P", 1, capped_linear(2)),))
        structure = MetricStructure(
            signature=sig,
            points=("a", "b"),
            dist=((F(0), F(1)), (F(1), F(0))),
            predicate_tables={"P": {(0,): F(0), (1,): F(1, 3)}},
        )
        phi = parse_formula("max(sup x0. sup x1. d(x0, x1), sup x0. P(x0))", sig)
        assert evaluate(phi, structure) == 1
        halved = dataclasses.replace(
            structure,
            dist=((F(0), F(1, 2)), (F(1, 2), F(0))),
            predicate_tables={"P": {(0,): F(0), (1,): F(1, 5)}},
        )
        assert evaluate(phi, halved) == F(1, 2)
        assert evaluate(phi, structure) == 1
        assert halved.integer_form is not structure.integer_form
        assert (structure.integer_form.den, halved.integer_form.den) == (3, 10)
        assert [s for s, _ in form_builds] == [structure, halved]
