"""Moduli kernel: evaluation, composition, envelopes, comparisons, weak moduli."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.moduli import (
    Aggregator,
    PwlModulus,
    WeakModulus,
    cap_at_one,
    capped_linear,
    compose,
    concave_envelope,
    identity_modulus,
    linear_modulus,
    modulus_from_json,
    modulus_leq,
    modulus_max,
    modulus_to_json,
    truncate,
    weak_modulus_from_json,
    weak_modulus_to_json,
    zero_modulus,
)

import helpers

F = Fraction

rationals = st.fractions(min_value=0, max_value=4, max_denominator=16)
positive_rationals = st.fractions(min_value=0, max_value=4, max_denominator=16)


@st.composite
def moduli(draw):
    """Arbitrary canonical moduli, built as concave envelopes of samples."""
    n = draw(st.integers(min_value=0, max_value=4))
    samples = [(F(0), F(0))]
    for _ in range(n):
        x = draw(st.fractions(min_value=F(1, 8), max_value=3, max_denominator=12))
        y = draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
        samples.append((x, y))
    tail = draw(st.fractions(min_value=0, max_value=2, max_denominator=8))
    return concave_envelope(samples, tail)


class TestEvaluate:
    def test_linear_segment(self):
        assert capped_linear(2).evaluate(F(1, 4)) == F(1, 2)

    def test_vanishes_at_zero(self):
        for delta in (capped_linear(2), identity_modulus(), zero_modulus(), linear_modulus(F(1, 3))):
            assert delta.evaluate(0) == 0

    def test_identity(self):
        assert identity_modulus().evaluate(F(3, 7)) == F(3, 7)

    def test_beyond_last_breakpoint(self):
        assert capped_linear(2).evaluate(100) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            identity_modulus().evaluate(F(-1, 2))


class TestCanonicalForm:
    def test_must_start_at_origin(self):
        with pytest.raises(ValueError):
            PwlModulus(((F(1), F(1)),), F(0))

    def test_slopes_must_decrease(self):
        with pytest.raises(ValueError):
            PwlModulus(((F(0), F(0)), (F(1), F(1)), (F(2), F(3))), F(0))

    def test_final_slope_strictly_below_last_segment(self):
        with pytest.raises(ValueError):
            PwlModulus(((F(0), F(0)), (F(1), F(1))), F(1))

    def test_equal_functions_are_equal_values(self):
        a = compose(capped_linear(2), capped_linear(3))
        assert a == capped_linear(6)


class TestCompose:
    def test_slope_multiplication_with_cap(self):
        assert compose(capped_linear(2), capped_linear(3)) == capped_linear(6)

    def test_identity_right(self):
        for delta in (capped_linear(2), linear_modulus(F(1, 2)), zero_modulus()):
            assert compose(delta, identity_modulus()) == delta

    def test_identity_left(self):
        for delta in (capped_linear(2), linear_modulus(F(1, 2))):
            assert compose(identity_modulus(), delta) == delta

    def test_slope_multiplication(self):
        assert compose(capped_linear(2), linear_modulus(F(1, 2))) == capped_linear(1)

    @settings(max_examples=60)
    @given(moduli(), moduli(), st.lists(rationals, min_size=1, max_size=8))
    def test_pointwise_agreement(self, outer, inner, points):
        composed = compose(outer, inner)
        for t in points:
            assert composed.evaluate(t) == outer.evaluate(inner.evaluate(t))


class TestConcaveEnvelope:
    def test_already_concave(self):
        assert concave_envelope([(0, 0), (1, 1), (2, 2)], 1) == identity_modulus()

    def test_degenerate(self):
        assert concave_envelope([(0, 0)], 0) == zero_modulus()

    def test_brute_force_affine_grid(self):
        # frozen expected value, cross-checked against the affine-majorant
        # minimization over a rational grid below
        samples = [(F(0), F(0)), (F(1), F(1, 4)), (F(2), F(1))]
        env = concave_envelope(samples, 0)
        assert env == PwlModulus(((F(0), F(0)), (F(2), F(1))), F(0))
        grid = [F(n, 8) for n in range(0, 33)]
        test_points = [F(n, 4) for n in range(0, 17)]
        for a in grid:
            for b in grid:
                if all(a * x + b >= y for x, y in samples):
                    for t in test_points:
                        assert env.evaluate(t) <= a * t + b

    def test_missing_origin_rejected(self):
        with pytest.raises(ValueError):
            concave_envelope([(1, 1)], 0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            concave_envelope([(0, 0), (1, F(-1, 2))], 0)

    def test_positive_value_at_zero_rejected(self):
        with pytest.raises(ValueError):
            concave_envelope([(0, 0), (0, 1)], 0)

    @settings(max_examples=60)
    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=0, max_value=3, max_denominator=12),
                st.fractions(min_value=0, max_value=2, max_denominator=12),
            ),
            max_size=6,
        ),
        st.fractions(min_value=0, max_value=2, max_denominator=8),
    )
    def test_dominates_samples(self, extra, tail):
        samples = [(F(0), F(0))] + [(x, y) for x, y in extra if x > 0]
        env = concave_envelope(samples, tail)
        for x, y in samples:
            assert env.evaluate(x) >= y

    @settings(max_examples=60)
    @given(moduli())
    def test_canonical_modulus_is_its_own_envelope(self, m):
        # modulus_max(m) == m is checked in TestModulusMax.test_n_ary
        assert concave_envelope(m.breakpoints, m.final_slope) == m


class TestModulusMax:
    def test_idempotent(self):
        for delta in (capped_linear(2), identity_modulus(), zero_modulus()):
            assert modulus_max(delta, delta) == delta

    def test_domination_identity_zero(self):
        assert modulus_max(identity_modulus(), zero_modulus()) == identity_modulus()

    def test_domination_capped(self):
        # min(t/2, 1) <= min(2t, 1) pointwise, so the max is the left argument
        assert modulus_max(capped_linear(2), capped_linear(F(1, 2))) == capped_linear(2)

    @settings(max_examples=60)
    @given(moduli(), moduli(), moduli())
    def test_n_ary(self, a, b, c):
        assert modulus_max() == zero_modulus()
        assert modulus_max(a) == a
        # the least concave majorant is a closure, and the form is canonical
        assert modulus_max(a, b, c) == modulus_max(modulus_max(a, b), c)

    @settings(max_examples=60)
    @given(moduli(), moduli(), st.lists(rationals, min_size=1, max_size=8))
    def test_dominates_both(self, a, b, points):
        m = modulus_max(a, b)
        for t in points:
            assert m.evaluate(t) >= a.evaluate(t)
            assert m.evaluate(t) >= b.evaluate(t)

    @settings(max_examples=80)
    @given(moduli(), moduli())
    def test_least_majorant_touches_the_max_at_every_vertex(self, a, b):
        # a concave majorant through points of max(a, b) at each of its
        # vertices can be lowered nowhere, so it is the least one
        m = modulus_max(a, b)
        for x, y in m.breakpoints:
            assert y == max(a.evaluate(x), b.evaluate(x))
        assert m.final_slope == max(a.final_slope, b.final_slope)


# the moduli the shortcuts of compose and modulus_max act on, drawn often
special_moduli = st.sampled_from([identity_modulus(), zero_modulus()])
mixed_moduli = st.one_of(special_moduli, moduli())


@st.composite
def argument_lists(draw):
    """Up to 4 arguments from a pool of at most 3 moduli, so repeats are common."""
    pool = draw(st.lists(mixed_moduli, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), max_size=4))


class TestShortcutsAgainstTheHull:
    """``compose`` and ``modulus_max`` return a known modulus where the
    algebra fixes the answer; ``helpers.hull_compose`` and
    ``helpers.hull_modulus_max`` always build the hull.  The canonical form
    is unique, so the two must agree structurally."""

    @settings(max_examples=200)
    @given(mixed_moduli, mixed_moduli)
    def test_compose(self, outer, inner):
        assert compose(outer, inner) == helpers.hull_compose(outer, inner)

    @settings(max_examples=200)
    @given(argument_lists())
    def test_modulus_max(self, ms):
        assert modulus_max(*ms) == helpers.hull_modulus_max(*ms)

    def test_fixed_cases(self):
        one, zero, cap2 = identity_modulus(), zero_modulus(), capped_linear(2)
        for outer, inner in [(one, one), (zero, one), (one, zero), (zero, zero),
                             (cap2, one), (one, cap2), (cap2, zero), (zero, cap2)]:
            assert compose(outer, inner) == helpers.hull_compose(outer, inner)
        for ms in [(), (cap2,), (cap2, cap2, cap2), (one, one), (zero, zero), (one, zero),
                   (cap2, one, cap2), (one, cap2, cap2)]:
            assert modulus_max(*ms) == helpers.hull_modulus_max(*ms)


class TestModulusLeq:
    def test_half_below_identity(self):
        assert modulus_leq(linear_modulus(F(1, 2)), identity_modulus())

    def test_capped_double_not_below_identity(self):
        # witness t = 1/2: min(2t,1) = 1 > 1/2
        assert not modulus_leq(capped_linear(2), identity_modulus())
        assert capped_linear(2).evaluate(F(1, 2)) > identity_modulus().evaluate(F(1, 2))

    def test_reflexive(self):
        for delta in (capped_linear(2), identity_modulus(), zero_modulus()):
            assert modulus_leq(delta, delta)

    @settings(max_examples=80)
    @given(moduli(), moduli(), st.lists(rationals, min_size=1, max_size=10))
    def test_agrees_with_pointwise_comparison(self, a, b, points):
        if modulus_leq(a, b):
            for t in points:
                assert a.evaluate(t) <= b.evaluate(t)
        else:
            probes = {x for x, _ in a.breakpoints} | {x for x, _ in b.breakpoints} | {F(10**6)}
            assert any(a.evaluate(t) > b.evaluate(t) for t in probes)


class TestSubadditivity:
    @settings(max_examples=100)
    @given(moduli(), positive_rationals, positive_rationals)
    def test_monotone_and_subadditive(self, delta, x, y):
        assert delta.evaluate(x) <= delta.evaluate(x + y)
        assert delta.evaluate(x + y) <= delta.evaluate(x) + delta.evaluate(y)


class TestCapAtOne:
    def test_identity(self):
        assert cap_at_one(identity_modulus()) == capped_linear(1)

    def test_already_below(self):
        assert cap_at_one(capped_linear(F(1, 2))) == capped_linear(F(1, 2))

    def check_capped(self, m, points=()):
        capped = cap_at_one(m)
        probes = {x for x, _ in m.breakpoints} | {x for x, _ in capped.breakpoints} | set(points)
        for t in probes | {F(10**6)}:
            assert capped.evaluate(t) == min(m.evaluate(t), 1)
        if m.final_slope > 0 or m.breakpoints[-1][1] > 1:
            # the last vertex is the crossing, the least t with m(t) = 1
            crossing, value = capped.breakpoints[-1]
            assert value == 1 and m.evaluate(crossing) == 1
            assert capped.final_slope == 0
            assert all(m.evaluate(x) < 1 for x, _ in capped.breakpoints[:-1])
        else:
            assert capped == m
        return capped

    def test_positive_final_slope_crosses_on_the_tail(self):
        m = concave_envelope([(0, 0), (1, F(1, 2))], F(1, 4))
        capped = self.check_capped(m)
        assert capped.breakpoints == ((0, 0), (1, F(1, 2)), (3, 1))

    def test_plateau_above_one(self):
        m = concave_envelope([(0, 0), (1, F(7, 8)), (2, F(3, 2))], 0)
        capped = self.check_capped(m)
        assert capped.breakpoints == ((0, 0), (1, F(7, 8)), (F(6, 5), 1))

    def test_crossing_at_a_breakpoint(self):
        m = concave_envelope([(0, 0), (1, 1), (2, F(3, 2))], 0)
        assert self.check_capped(m) == capped_linear(1)

    @settings(max_examples=100)
    @given(moduli(), st.lists(rationals, max_size=8))
    def test_pointwise_min_with_one(self, m, points):
        self.check_capped(m, points)


class TestWeakModulus:
    def test_sum_of_identities(self):
        omega = WeakModulus(coords=(), tail=identity_modulus(), aggregator=Aggregator.SUM)
        trunc = truncate(omega, 2)
        assert trunc.evaluate([F(1, 3), F(1, 4)]) == F(7, 12)

    def test_truncation_at_zero_is_constant_zero(self):
        for agg in (Aggregator.MAX, Aggregator.SUM):
            omega = WeakModulus(coords=(), tail=identity_modulus(), aggregator=agg)
            assert truncate(omega, 0).evaluate([]) == 0

    def test_max_of_capped_lines_direct_evaluation(self):
        omega = WeakModulus(
            coords=tuple(capped_linear(i + 1) for i in range(8)),
            tail=identity_modulus(),
            aggregator=Aggregator.MAX,
        )
        trunc = truncate(omega, 3)
        xs = [F(0), F(0), F(1)]
        direct = max(omega.coordinate(i).evaluate(xs[i]) for i in range(3))
        assert trunc.evaluate(xs) == direct == 1

    @settings(max_examples=40)
    @given(
        st.lists(moduli(), max_size=3),
        moduli(),
        st.sampled_from([Aggregator.MAX, Aggregator.SUM]),
        st.lists(rationals, min_size=0, max_size=3),
    )
    def test_truncation_extension_by_zero(self, coords, tail, agg, xs):
        omega = WeakModulus(coords=tuple(coords), tail=tail, aggregator=agg)
        k = len(xs)
        assert truncate(omega, k).evaluate(xs) == truncate(omega, k + 1).evaluate(xs + [F(0)])

    def test_arity_mismatch_rejected(self):
        omega = WeakModulus(coords=(), tail=identity_modulus(), aggregator=Aggregator.MAX)
        with pytest.raises(ValueError):
            truncate(omega, 2).evaluate([F(1)])


class TestJson:
    @settings(max_examples=50)
    @given(moduli())
    def test_modulus_round_trip(self, delta):
        assert modulus_from_json(modulus_to_json(delta)) == delta

    def test_weak_modulus_round_trip(self):
        omega = WeakModulus(
            coords=(capped_linear(2), identity_modulus()),
            tail=linear_modulus(F(1, 2)),
            aggregator=Aggregator.SUM,
            allow_infinite=True,
        )
        assert weak_modulus_from_json(weak_modulus_to_json(omega)) == omega

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            modulus_from_json({"breakpoints": [[[0, 1], [0, 1]]]})
