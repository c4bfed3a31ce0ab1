"""Moduli kernel: evaluation, composition, envelopes, comparisons, weak moduli."""

import copy
import pickle
from fractions import Fraction
from functools import lru_cache

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

from clgames import moduli as moduli_module

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


# drawn often: the identity and zero, which the shortcuts of compose and
# modulus_max act on, and the (capped) linear moduli of every connective
# and atom, with caps below, at and above 1
special_moduli = st.sampled_from([identity_modulus(), zero_modulus()])
grid = st.sampled_from([F(1, 4), F(1, 2), F(1), F(3, 2), F(2), F(3)])
linear_moduli = st.one_of(st.builds(linear_modulus, grid), st.builds(capped_linear, grid, grid))
mixed_moduli = st.one_of(special_moduli, linear_moduli, moduli())


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
        assert modulus_max() is moduli_module._ZERO_MODULUS

    def test_shortcuts_return_their_argument(self):
        # the argument object itself, not an equal copy: a later cache key
        # holding the result then matches by identity, without == on tuples
        # of Fractions
        helpers.clear_calculus_caches()
        m, zero = concave_envelope([(0, 0), (1, F(1, 2)), (3, 1)], F(1, 8)), zero_modulus()
        assert compose(identity_modulus(), m) is m
        assert compose(m, identity_modulus()) is m
        assert compose(zero, m) is zero and compose(m, zero) is zero
        assert modulus_max(m, m) is m
        assert cap_at_one(capped_linear(2)) is capped_linear(2)

    @pytest.mark.parametrize(
        "inner, tail, expected",
        [
            # 2 * 1/2 reaches the cap 1 at the inner breakpoint 1
            ([(0, 0), (1, F(1, 2)), (2, F(3, 4))], 0, [(0, 0), (1, 1)]),
            # 3/4 at 1 and 5/4 at 3: the cap is met at 2, inside the segment
            ([(0, 0), (1, F(3, 8)), (3, F(5, 8))], 0, [(0, 0), (1, F(3, 4)), (2, 1)]),
            # 1/2 at 1, then slope 2 * 1/8: the cap is met at 3, on the final ray
            ([(0, 0), (1, F(1, 4))], F(1, 8), [(0, 0), (1, F(1, 2)), (3, 1)]),
            # 1/2 at 1 and flat from there: the cap is never met
            ([(0, 0), (1, F(1, 4))], 0, [(0, 0), (1, F(1, 2))]),
        ],
        ids=["at-a-breakpoint", "inside-a-segment", "on-the-final-ray", "never"],
    )
    def test_closed_form_meets_the_cap(self, inner, tail, expected):
        # compose builds min(2 * inner, 1) through the hull; the expected
        # breakpoints are its closed form, cut where 2 * inner reaches 1
        inner, outer = concave_envelope(inner, tail), capped_linear(2)
        composed = compose(outer, inner)
        assert composed == PwlModulus(tuple(expected), F(0)) == helpers.hull_compose(outer, inner)
        # uncapped, inner's outputs and final slope double
        doubled = compose(linear_modulus(2), inner)
        assert doubled == helpers.hull_compose(linear_modulus(2), inner)
        assert doubled.breakpoints == tuple((x, 2 * y) for x, y in inner.breakpoints)
        assert doubled.final_slope == 2 * tail


def fresh(m: PwlModulus) -> PwlModulus:
    """An equal modulus built anew, sharing no object with ``m``."""
    return modulus_from_json(modulus_to_json(m))


def pointwise_leq(a: PwlModulus, b: PwlModulus) -> bool:
    """a <= b at every breakpoint of either, one past the last, and on the
    final rays: both are linear between and beyond those points."""
    probes = {x for x, _ in a.breakpoints} | {x for x, _ in b.breakpoints}
    probes.add(max(probes) + 1)
    return a.final_slope <= b.final_slope and all(a(t) <= b(t) for t in probes)


MEMO_STATES = ["fresh copies", "cleared", "small bound"]

# every calculus function under a cache of 2 entries, kept across tests and
# examples, so nearly every new key evicts an older one
SMALL_CACHES = {
    name: lru_cache(maxsize=2)(cache.__wrapped__)
    for name, cache in zip(helpers.CALCULUS_CACHES, helpers.calculus_caches())
}


def twice(state: str, name: str, *args):
    """``moduli.<name>(*args)``, then again: on fresh copies of the
    arguments, after clearing the caches, or with every calculus function
    under its cache of 2 entries in ``SMALL_CACHES``."""
    with pytest.MonkeyPatch.context() as patch:
        if state == "small bound":
            for cache_name, small in SMALL_CACHES.items():
                patch.setattr(moduli_module, cache_name, small)
        op = getattr(moduli_module, name)
        first = op(*args)
        if state == "cleared":
            helpers.clear_calculus_caches()
        second = op(*map(fresh, args)) if state == "fresh copies" else op(*args)
        for cache in helpers.calculus_caches():
            assert cache.cache_info().currsize <= cache.cache_info().maxsize
    return first, second


class TestMemo:
    """Every operation answers from its cache as the hull would."""

    @pytest.mark.parametrize("state", MEMO_STATES)
    @settings(max_examples=60)
    @given(mixed_moduli, mixed_moduli)
    def test_compose(self, state, outer, inner):
        expected = helpers.hull_compose(outer, inner)
        assert twice(state, "compose", outer, inner) == (expected, expected)

    @pytest.mark.parametrize("state", MEMO_STATES)
    @settings(max_examples=60)
    @given(argument_lists())
    def test_modulus_max(self, state, ms):
        expected = helpers.hull_modulus_max(*ms)
        assert twice(state, "modulus_max", *ms) == (expected, expected)

    @pytest.mark.parametrize("state", MEMO_STATES)
    @settings(max_examples=60)
    @given(mixed_moduli)
    def test_cap_at_one(self, state, m):
        expected = helpers.hull_cap_at_one(m)
        assert twice(state, "cap_at_one", m) == (expected, expected)

    @pytest.mark.parametrize("state", MEMO_STATES)
    @settings(max_examples=60)
    @given(mixed_moduli, mixed_moduli)
    def test_modulus_leq(self, state, a, b):
        for x, y in ((a, b), (b, a), (a, a)):
            expected = pointwise_leq(x, y)
            assert twice(state, "modulus_leq", x, y) == (expected, expected)

    @pytest.mark.parametrize("state", ["cleared", "small bound"])
    def test_capped_linear(self, state):
        for slope, cap, expected in [
            (2, 1, [(0, 0), (F(1, 2), 1)]),
            (F(1, 2), F(1, 3), [(0, 0), (F(2, 3), F(1, 3))]),
            ("3/2", 1, [(0, 0), (F(2, 3), 1)]),
            (0, 1, []),
            (1, 0, []),
        ]:
            expected = PwlModulus(tuple(expected) or ((F(0), F(0)),), F(0))
            assert twice(state, "capped_linear", slope, cap) == (expected, expected)

    def test_capped_linear_keys_by_value(self):
        # an int, a string and a Fraction of equal value give one modulus;
        # what rat refuses is refused on every call, after an equal hit too
        assert capped_linear(2) == capped_linear("2") == capped_linear(F(2))
        for bad in (2.0, True):
            for _ in range(2):
                with pytest.raises(TypeError):
                    capped_linear(bad)

    def test_small_caches_evict(self):
        # three keys through a cache of two: the first is evicted, and
        # asked again it is a miss with the same answer
        compose_small = SMALL_CACHES["compose"]
        compose_small.cache_clear()
        inner = capped_linear(2)
        first = compose_small(linear_modulus(1), inner)
        for q in (2, 3):
            compose_small(linear_modulus(q), inner)
        assert compose_small(linear_modulus(1), inner) == first
        info = compose_small.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4, 2)

    def test_caches_stay_within_their_bound(self):
        # the CI's arity-5 family, the calculus's largest traffic: 31
        # misses and 567,836 hits, every cache within its maxsize
        build = helpers.family_build(5)
        helpers.clear_calculus_caches()
        assert len(build()) == 140
        infos = [cache.cache_info() for cache in helpers.calculus_caches()]
        assert all(info.currsize <= info.maxsize for info in infos)
        assert sum(info.misses for info in infos) == 31
        assert sum(info.hits for info in infos) == 567_836


class TestHash:
    @settings(max_examples=60)
    @given(moduli())
    def test_equal_moduli_hash_equal(self, m):
        for other in (fresh(m), concave_envelope(m.breakpoints, m.final_slope)):
            assert other == m and hash(other) == hash(m)
        assert hash(m) == hash((m.breakpoints, m.final_slope))

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trips_keep_equality_and_hash(self, round_trip):
        for m in (identity_modulus(), zero_modulus(), capped_linear(F(3, 2)),
                  concave_envelope([(0, 0), (1, F(1, 2)), (3, 1)], F(1, 8))):
            copied = round_trip(m)
            assert copied == m and hash(copied) == hash(m)
            assert compose(copied, identity_modulus()) == m


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

    @pytest.mark.parametrize("raw", ["false", "true", [0], 0, 1, None])
    def test_allow_infinite_must_be_a_boolean(self, raw):
        blob = weak_modulus_to_json(
            WeakModulus(coords=(), tail=linear_modulus(2), aggregator=Aggregator.MAX)
        )
        with pytest.raises(ValueError, match="^field 'allow_infinite': must be true or false"):
            weak_modulus_from_json({**blob, "allow_infinite": raw})
        for flag in (False, True):
            assert weak_modulus_from_json({**blob, "allow_infinite": flag}).allow_infinite is flag

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            modulus_from_json({"breakpoints": [[[0, 1], [0, 1]]]})
