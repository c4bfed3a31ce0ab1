"""Differential tests of ``validate`` on the integer form against
``helpers.fraction_validate``, the Fraction validation it replaced.

Structures are drawn valid (distances in [1/2, 1]) and then broken by a few
of the ``BREAKS`` below, one per violation kind; symbols get moduli that are
sometimes tight enough to be broken by the drawn values, and half of the
structures use the coprime grids, so that the common denominator is a real
lcm.  The two validations must agree on the violations and the notes, order
included, or raise the same error.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clgames.moduli import (
    PwlModulus,
    capped_linear,
    identity_modulus,
    linear_modulus,
    zero_modulus,
)
from clgames.structures import (
    FunctionSymbol,
    MetricStructure,
    PredicateSymbol,
    Signature,
    validate,
)

import helpers

F = Fraction

MODULI = (
    capped_linear(2),
    identity_modulus(),
    linear_modulus(F(1, 3)),
    capped_linear(F(3, 2), F(2, 5)),
    PwlModulus(((F(0), F(0)), (F(4, 7), F(3, 7))), F(1, 5)),
)


def _distinct_points(parts, rng, count=2):
    """``count`` distinct points, or None on fewer points."""
    n = len(parts["dist"])
    return rng.sample(range(n), count) if n >= count else None


def _set_distance(parts, i, j, value):
    parts["dist"][i][j] = parts["dist"][j][i] = value


def _table(parts, kind, rng, count=1):
    """A symbol of the kind ("predicates" or "functions") whose table has at
    least ``count`` entries, and the table; None when there is none."""
    symbols = [
        sym for sym in getattr(parts["signature"], kind)
        if sym.name in parts[kind] and len(parts[kind][sym.name]) >= count
    ]
    if not symbols:
        return None
    sym = rng.choice(symbols)
    return sym, parts[kind][sym.name]


def _replace_symbol(parts, old, new):
    sig = parts["signature"]
    parts["signature"] = Signature(
        predicates=tuple(new if s == old else s for s in sig.predicates),
        functions=tuple(new if s == old else s for s in sig.functions),
        constants=sig.constants,
    )


# Each break makes one kind of violation, and does nothing where it cannot.


def _break_shape(parts, rng):
    parts["dist"][rng.randrange(len(parts["dist"]))].pop()


def _break_self_distance(parts, rng):
    i = rng.randrange(len(parts["dist"]))
    parts["dist"][i][i] = F(1, 3)


def _break_symmetry(parts, rng):
    if ij := _distinct_points(parts, rng):
        parts["dist"][ij[0]][ij[1]] = F(2, 7)


def _break_sign(parts, rng):
    if ij := _distinct_points(parts, rng):
        _set_distance(parts, *ij, F(-1, 5))


def _break_diameter(parts, rng):
    if ij := _distinct_points(parts, rng):
        _set_distance(parts, *ij, F(6, 5))


def _break_identity(parts, rng):
    if ij := _distinct_points(parts, rng):
        _set_distance(parts, *ij, F(0))


def _break_triangle(parts, rng):
    if ijk := _distinct_points(parts, rng, 3):
        i, j, k = ijk
        _set_distance(parts, i, j, F(1, 7))
        _set_distance(parts, i, k, F(1))
        _set_distance(parts, j, k, F(1, 2))


def _break_missing_table(parts, rng):
    kind = rng.choice(("predicates", "functions"))
    if found := _table(parts, kind, rng, 0):
        del parts[kind][found[0].name]


def _break_incomplete_table(parts, rng):
    if found := _table(parts, rng.choice(("predicates", "functions")), rng):
        table = found[1]
        del table[rng.choice(sorted(table))]


def _break_predicate_bound(parts, rng):
    if found := _table(parts, "predicates", rng):
        table = found[1]
        table[rng.choice(sorted(table))] = rng.choice((F(5, 4), F(-1, 3)))


def _break_predicate_modulus(parts, rng):
    # values 0 and 1 at two tuples, at most 1 apart, under the modulus t/7
    if found := _table(parts, "predicates", rng, 2):
        sym, table = found
        xs, ys = rng.sample(sorted(table), 2)
        table[xs], table[ys] = F(0), F(1)
        _replace_symbol(parts, sym, replace(sym, modulus=linear_modulus(F(1, 7))))


def _break_function_range(parts, rng):
    if found := _table(parts, "functions", rng):
        table = found[1]
        # an image of -1 or n is reported as out of range, and neither
        # validation checks it against the modulus
        n = len(parts["dist"])
        table[rng.choice(sorted(table))] = rng.choice((None, -1, n, "p0", F(1, 2)))


def _break_function_modulus(parts, rng):
    # distinct images at distance at least 1/2, under the modulus t/7
    if len(parts["dist"]) >= 2 and (found := _table(parts, "functions", rng, 2)):
        sym, table = found
        xs, ys = rng.sample(sorted(table), 2)
        table[xs], table[ys] = 0, 1
        _replace_symbol(parts, sym, replace(sym, modulus=linear_modulus(F(1, 7))))


def _break_missing_constant(parts, rng):
    if parts["constants"]:
        del parts["constants"][rng.choice(sorted(parts["constants"]))]


def _break_constant_range(parts, rng):
    if parts["constants"]:
        parts["constants"][rng.choice(sorted(parts["constants"]))] = rng.choice((None, -1, 99))


def _break_stray_constant(parts, rng):
    parts["constants"]["stray"] = 0


def _break_stray_table(parts, rng):
    parts[rng.choice(("predicates", "functions"))]["stray"] = {(0,): 0}


BREAKS = {
    "self-distance": _break_self_distance,
    "symmetry": _break_symmetry,
    "negative-distance": _break_sign,
    "diameter": _break_diameter,
    "identity-of-indiscernibles": _break_identity,
    "triangle": _break_triangle,
    "missing-table": _break_missing_table,
    "incomplete-table": _break_incomplete_table,
    "predicate-bound": _break_predicate_bound,
    "predicate-modulus": _break_predicate_modulus,
    "function-range": _break_function_range,
    "function-modulus": _break_function_modulus,
    "missing-constant": _break_missing_constant,
    "constant-range": _break_constant_range,
    "stray-constant": _break_stray_constant,
    "stray-table": _break_stray_table,
    # last, since the other distance breaks need a square matrix
    "matrix-shape": _break_shape,
}


def parts_of(rng, sig, n, coprime) -> dict:
    grids = {}
    if coprime:
        grids = {"values": helpers.COPRIME_VALUE_GRID, "distances": helpers.COPRIME_DIST_GRID}
    s = helpers.random_structure(rng, sig, n_points=n, **grids)
    return {
        "signature": sig,
        "dist": [list(row) for row in s.dist],
        "predicates": {k: dict(t) for k, t in s.predicate_tables.items()},
        "functions": {k: dict(t) for k, t in s.function_tables.items()},
        "constants": dict(s.constant_map),
    }


def build(parts) -> MetricStructure:
    return MetricStructure(
        signature=parts["signature"],
        points=tuple(f"p{i}" for i in range(len(parts["dist"]))),
        dist=tuple(tuple(row) for row in parts["dist"]),
        predicate_tables=parts["predicates"],
        function_tables=parts["functions"],
        constant_map=parts["constants"],
    )


def outcome(check, structure, allow_pseudometric):
    """The violations and notes in order, or the error raised."""
    try:
        report = check(structure, allow_pseudometric=allow_pseudometric)
    except ValueError as exc:
        return type(exc), str(exc)
    return report.violations, report.notes


@st.composite
def broken_structures(draw):
    rng = draw(st.randoms(use_true_random=False))
    moduli = st.sampled_from(MODULI)
    preds = tuple(
        PredicateSymbol(f"P{i}", draw(st.sampled_from((1, 1, 2, 3))), draw(moduli))
        for i in range(draw(st.integers(0, 2)))
    )
    funcs = tuple(
        FunctionSymbol(f"f{i}", draw(st.sampled_from((1, 2))), draw(moduli))
        for i in range(draw(st.integers(0, 1)))
    )
    consts = ("c",) if draw(st.booleans()) else ()
    sig = Signature(predicates=preds, functions=funcs, constants=consts)
    n = draw(st.integers(1, 4 if all(p.arity < 3 for p in preds) else 3))
    parts = parts_of(rng, sig, n, coprime=draw(st.booleans()))
    kinds = draw(st.sets(st.sampled_from(sorted(BREAKS)), max_size=3))
    for kind in BREAKS:
        if kind in kinds:
            BREAKS[kind](parts, rng)
    return build(parts)


@settings(max_examples=300, deadline=None)
@given(broken_structures(), st.booleans())
def test_validate_matches_the_fraction_oracle(structure, allow_pseudometric):
    expected = outcome(helpers.fraction_validate, structure, allow_pseudometric)
    assert outcome(validate, structure, allow_pseudometric) == expected


# Close values with a few outliers, on distances down to 1/8 and under tight
# moduli: the least off-diagonal bound is small, so the check compares some
# tuple pairs exactly and skips the rest; sometimes one distance is negative,
# and then every pair is compared.
CLOSE_DISTANCES = (F(1, 8), F(1, 6), F(1, 5), F(1, 4), F(1, 2), F(1))
CLOSE_VALUES = tuple(F(k, 48) for k in range(7))
OUTLIERS = (F(1, 2), F(1), F(5, 4), F(-1, 8))
TIGHT_MODULI = (
    zero_modulus(),
    linear_modulus(F(1, 7)),
    linear_modulus(F(1, 3)),
    identity_modulus(),
    capped_linear(2),
)


@st.composite
def clustered_structures(draw):
    rng = draw(st.randoms(use_true_random=False))
    preds = tuple(
        PredicateSymbol(f"P{i}", draw(st.integers(1, 3)), draw(st.sampled_from(TIGHT_MODULI)))
        for i in range(draw(st.integers(1, 2)))
    )
    n = draw(st.integers(2, 4 if all(p.arity < 3 for p in preds) else 3))
    dist = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = rng.choice(CLOSE_DISTANCES)
    if draw(st.integers(0, 4)) == 0:
        dist[0][1] = dist[1][0] = F(-1, 8)
    tables = {
        p.name: {args: rng.choice(CLOSE_VALUES) for args in product(range(n), repeat=p.arity)}
        for p in preds
    }
    for _ in range(draw(st.integers(0, 3))):
        table = tables[rng.choice(sorted(tables))]
        table[rng.choice(sorted(table))] = rng.choice(OUTLIERS)
    return MetricStructure(
        signature=Signature(predicates=preds),
        points=tuple(f"p{i}" for i in range(n)),
        dist=tuple(map(tuple, dist)),
        predicate_tables=tables,
    )


@settings(max_examples=200, deadline=None)
@given(clustered_structures())
def test_pruned_modulus_check_matches_the_fraction_oracle(structure):
    assert outcome(validate, structure, False) == outcome(helpers.fraction_validate, structure, False)


@pytest.mark.parametrize("kind", sorted(BREAKS))
@pytest.mark.parametrize("allow_pseudometric", [False, True])
def test_every_violation_kind_is_drawn(kind, allow_pseudometric):
    # one structure with every kind of symbol, broken once: the report names
    # the kind, so the drawn corpus above covers it
    sig = Signature(
        predicates=(PredicateSymbol("P", 1, MODULI[3]), PredicateSymbol("R", 2, MODULI[4])),
        functions=(FunctionSymbol("f", 2, MODULI[1]),),
        constants=("c",),
    )
    rng = random.Random(kind)
    parts = parts_of(rng, sig, 4, coprime=True)
    BREAKS[kind](parts, rng)
    structure = build(parts)
    expected = outcome(helpers.fraction_validate, structure, allow_pseudometric)
    assert outcome(validate, structure, allow_pseudometric) == expected
    if kind == "identity-of-indiscernibles" and allow_pseudometric:
        assert any("pseudometric" in note for note in expected[1])
    else:
        assert kind in {v.kind for v in expected[0]}


@pytest.mark.parametrize("symbol", ["predicate", "function"])
def test_negative_gap_is_reported(symbol):
    # the modulus is not defined at the negative gap, so the pair is not
    # checked against it, even where the values differ by the most; the
    # negative distance breaks the triangle inequality too
    structure = helpers.negative_gap_structure(symbol)
    violations, notes = outcome(validate, structure, False)
    assert [(v.kind, v.witness, v.detail) for v in violations] == [
        ("negative-distance", ("a", "b"), "-1/5"),
        ("triangle", ("a", "b", "a"), "d(a,a) = 0 > -1/5 + -1/5"),
        ("triangle", ("b", "a", "b"), "d(b,b) = 0 > -1/5 + -1/5"),
    ]
    assert notes == []
    assert outcome(helpers.fraction_validate, structure, False) == (violations, notes)
