"""Signatures and finite metric structures with exhaustive validation.

A signature lists predicate and function symbols (each with an arity and a
modulus of uniform continuity) plus constant names.  Structures are finite
labelled point sets with an exact rational distance matrix, full predicate
and function tables, and a constant map.  The diameter bound is fixed at 1
and predicate values live in [0, 1].

Validation reports every broken invariant with a concrete witness instead of
raising: violations are data.

A structure's ``integer_form`` holds its distances and predicate values as
integers over the lcm D of their denominators.  It is built once, on first
use, and is the package's one scaling path.  ``validate`` runs every check
on it: a modulus is tabulated once per distinct distance as
floor(modulus(d) * D), an exact bound for integer value gaps, and the
structure's Fractions are formatted only for a reported violation.  Two
distinct tuples differ in some coordinate, so every tuple pair's bound is at
least the least off-diagonal one, and only pairs whose values lie further
apart than that are compared.
``formulas.evaluate`` reads the same form, and the game solver brings both
sides to their common denominator with ``IntegerForm.of``.

``structure_from_json`` decodes each distinct ``[num, den]`` and table key
once per structure; the memo ends with the call.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, product, repeat
from math import lcm
from operator import gt, sub
from pathlib import Path

from .moduli import (
    PwlModulus,
    capped_linear,
    cap_at_one,
    compose,
    modulus_from_json,
    modulus_max,
    modulus_to_json,
)
from .rationals import format_rat, json_field, rat_from_json, rat_to_json

__all__ = [
    "PredicateSymbol",
    "FunctionSymbol",
    "Signature",
    "MetricStructure",
    "NamedPair",
    "Violation",
    "ValidationReport",
    "IntegerForm",
    "StructureValidationError",
    "validate",
    "reduct",
    "expand_with_constants",
    "relationalize",
    "find_isomorphism",
    "structure_to_json",
    "structure_from_json",
    "load_structure",
    "save_structure",
    "load_pair",
    "save_pair",
]

@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int
    modulus: PwlModulus

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"predicate {self.name!r} needs arity >= 1")


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    arity: int
    modulus: PwlModulus

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError(f"function {self.name!r} needs arity >= 1 (use a constant instead)")


@dataclass(frozen=True)
class Signature:
    predicates: tuple[PredicateSymbol, ...] = ()
    functions: tuple[FunctionSymbol, ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self):
        names = [s.name for s in self.predicates] + [s.name for s in self.functions] + list(
            self.constants
        )
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"symbol names must be unique, duplicated: {sorted(dupes)}")

    @property
    def is_relational(self) -> bool:
        return not self.functions

    def predicate(self, name: str) -> PredicateSymbol:
        for p in self.predicates:
            if p.name == name:
                return p
        raise KeyError(f"unknown predicate {name!r}")

    def function(self, name: str) -> FunctionSymbol:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"unknown function {name!r}")

    def has_symbol(self, name: str) -> bool:
        return (
            any(p.name == name for p in self.predicates)
            or any(f.name == name for f in self.functions)
            or name in self.constants
        )

    def is_subsignature_of(self, other: Signature) -> bool:
        return (
            all(p in other.predicates for p in self.predicates)
            and all(f in other.functions for f in self.functions)
            and all(c in other.constants for c in self.constants)
        )


@dataclass(frozen=True)
class MetricStructure:
    """Finite metric structure; treat as immutable after construction."""

    signature: Signature
    points: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    predicate_tables: dict = field(default_factory=dict)
    function_tables: dict = field(default_factory=dict)
    constant_map: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.points:
            raise ValueError("a metric structure needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.points)

    def point_index(self, label) -> int:
        if isinstance(label, int):
            if not 0 <= label < len(self.points):
                raise KeyError(f"point index {label} out of range")
            return label
        try:
            return self.points.index(label)
        except ValueError:
            raise KeyError(f"unknown point {label!r}") from None

    def distance(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def pred_value(self, name: str, args: tuple[int, ...]) -> Fraction:
        return self.predicate_tables[name][args]

    def func_value(self, name: str, args: tuple[int, ...]) -> int:
        return self.function_tables[name][args]

    def constant(self, name: str) -> int:
        return self.constant_map[name]

    @cached_property
    def integer_form(self) -> IntegerForm:
        """``IntegerForm.of(self)``, built on first use and then kept."""
        return IntegerForm.of(self)


@dataclass(frozen=True)
class NamedPair:
    """Two structures over one signature; sides are kept disjoint by tagging."""

    left: MetricStructure
    right: MetricStructure

    def __post_init__(self):
        if self.left.signature != self.right.signature:
            raise ValueError("paired structures must share a signature")

    @property
    def signature(self) -> Signature:
        return self.left.signature


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.witness}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, witness: tuple, detail: str):
        self.violations.append(Violation(kind, witness, detail))

    def __str__(self):
        if self.ok:
            lines = ["valid"]
        else:
            lines = [f"{len(self.violations)} violation(s)"] + [
                f"  - {v}" for v in self.violations
            ]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


class StructureValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(str(report))


def _tuples(n_points: int, arity: int):
    return product(range(n_points), repeat=arity)


def _is_point(image, n_points: int) -> bool:
    return isinstance(image, int) and 0 <= image < n_points


@dataclass(frozen=True)
class IntegerForm:
    """A structure's numbers as integers over the denominator ``den``: each
    distance d and each predicate value v of a signature symbol is held as
    d * den and v * den."""

    den: int
    dist: tuple[tuple[int, ...], ...]
    predicates: dict

    @classmethod
    def of(cls, structure: MetricStructure, den: int | None = None) -> IntegerForm:
        """The structure's form over ``den``: by default the lcm of the
        denominators of its distances and of its signature's predicate tables
        (a table the structure lacks is left out), else a multiple of it."""
        names = {p.name for p in structure.signature.predicates}
        tables = {name: t for name, t in structure.predicate_tables.items() if name in names}
        if den is None:
            dens = {v.denominator for row in structure.dist for v in row}
            dens.update(v.denominator for t in tables.values() for v in t.values())
            den = lcm(*dens)

        def scaled(v) -> int:
            return v.numerator * (den // v.denominator)

        return cls(
            den,
            tuple(tuple(map(scaled, row)) for row in structure.dist),
            {name: {args: scaled(v) for args, v in t.items()} for name, t in tables.items()},
        )


def _modulus_bounds(modulus: PwlModulus, form: IntegerForm) -> list[list[int]]:
    """floor(modulus(d) * den) at every distance d of the structure, -1 at a
    negative one.  A gap or image distance g * den exceeds modulus(gap) iff
    it exceeds this integer; the modulus never decreases, so the bound of a
    tuple pair is the max of its coordinates' bounds, -1 iff its gap is
    negative.  The modulus is not defined there, and such a pair is not
    checked against it."""
    den = form.den
    bounds = {-1: -1}
    for g in {g for row in form.dist for g in row if g >= 0}:
        m = modulus.evaluate(Fraction(g, den))
        bounds[g] = m.numerator * den // m.denominator
    return [[bounds[max(g, -1)] for g in row] for row in form.dist]


def _bounds(rows: list[list[int]], xs: tuple, coords: list, js):
    """The integer modulus bounds between the tuple xs and the present
    tuples at the indices js, in order."""
    cols = [map(rows[x].__getitem__, map(coord.__getitem__, js)) for x, coord in zip(xs, coords)]
    return cols[0] if len(cols) == 1 else map(max, *cols)


def _least_bound(rows: list[list[int]]) -> int:
    """The least off-diagonal bound, -1 on one point: two distinct tuples
    differ in some coordinate, so the bound of any pair of them is at least
    this."""
    return min((b for x, row in enumerate(rows) for y, b in enumerate(row) if x != y), default=-1)


def _candidates(values: list[int], least: int):
    """For each tuple i, the later tuples j whose value lies more than
    ``least`` from its own, ascending: with every pair's bound at least
    ``least``, no other pair can break the modulus.  The values are sorted
    once, and two bisects per tuple find them; at a negative ``least``
    every later tuple is one."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ordered = [values[k] for k in order]

    def later(i, v):
        lo = bisect_left(ordered, v - least)
        hi = bisect_right(ordered, v + least, lo)
        return sorted(filter(i.__lt__, chain(order[:lo], order[hi:])))

    return map(later, range(len(values)), values)


def _modulus_detail(modulus: PwlModulus, d, xs: tuple, ys: tuple) -> str:
    """``modulus(gap) = bound`` for a reported pair, on the structure's own
    Fractions."""
    gap = max(d[x][y] for x, y in zip(xs, ys))
    return f"modulus({format_rat(gap)}) = {format_rat(modulus.evaluate(gap))}"


def validate(structure: MetricStructure, allow_pseudometric: bool = False) -> ValidationReport:
    """Full check of the structure axioms; every violation carries a witness.

    Every comparison runs on the structure's ``IntegerForm``; the
    structure's Fractions are formatted only for a reported violation.  A
    modulus is evaluated once per distinct distance, and again for each
    reported pair.  A tuple pair can break a predicate's modulus only when
    its values lie further apart than the least off-diagonal bound, the
    least bound any pair of distinct tuples has; only such pairs are
    compared, in the order of a full scan, so the report is the same."""
    report = ValidationReport()
    n = structure.size
    labels = structure.points
    d = structure.dist

    if len(d) != n or any(len(row) != n for row in d):
        report.add("matrix-shape", (), f"distance matrix must be {n}x{n}")
        return report
    form = structure.integer_form
    dist, den = form.dist, form.den

    for i in range(n):
        if dist[i][i] != 0:
            report.add("self-distance", (labels[i],), f"d(x,x) = {format_rat(d[i][i])} != 0")
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                report.add(
                    "symmetry",
                    (labels[i], labels[j]),
                    f"d = {format_rat(d[i][j])} vs {format_rat(d[j][i])}",
                )
            if dist[i][j] < 0:
                report.add("negative-distance", (labels[i], labels[j]), format_rat(d[i][j]))
            if dist[i][j] > den:
                report.add(
                    "diameter", (labels[i], labels[j]), f"d = {format_rat(d[i][j])} > 1"
                )
            if dist[i][j] == 0:
                if allow_pseudometric:
                    report.notes.append(
                        f"pseudometric: d({labels[i]},{labels[j]}) = 0 (non-conforming)"
                    )
                else:
                    report.add("identity-of-indiscernibles", (labels[i], labels[j]), "d = 0")
    for i, row_i in enumerate(dist):
        for j, d_ij in enumerate(row_i):
            row_j = dist[j]
            # d(i,k) > d(i,j) + d(j,k) for some k iff max_k d(i,k) - d(j,k) > d(i,j)
            if max(map(sub, row_i, row_j)) <= d_ij:
                continue
            for k in range(n):
                if row_i[k] > d_ij + row_j[k]:
                    report.add(
                        "triangle",
                        (labels[i], labels[j], labels[k]),
                        f"d({labels[i]},{labels[k]}) = {format_rat(d[i][k])} > "
                        f"{format_rat(d[i][j])} + {format_rat(d[j][k])}",
                    )

    for sym in structure.signature.predicates:
        table = structure.predicate_tables.get(sym.name)
        if table is None:
            report.add("missing-table", (sym.name,), "predicate table absent")
            continue
        scaled = form.predicates[sym.name]
        for args in _tuples(n, sym.arity):
            if args not in table:
                report.add("incomplete-table", (sym.name, args), "missing entry")
        for args, value in scaled.items():
            if not (0 <= value <= den):
                report.add(
                    "predicate-bound",
                    (sym.name, args),
                    f"value {format_rat(table[args])} not in [0,1]",
                )
        # tuple pairs xs < ys in product order, as long as both have a value
        present = [xs for xs in _tuples(n, sym.arity) if xs in table]
        coords = [list(coord) for coord in zip(*present)]
        values = [scaled[xs] for xs in present]
        rows = _modulus_bounds(sym.modulus, form)
        for i, js in enumerate(_candidates(values, _least_bound(rows))):
            if not js:
                continue
            v, xs = values[i], present[i]
            bounds = list(_bounds(rows, xs, coords, js))
            # a negative gap has bound -1: it passes this filter, and the
            # loop below skips it, as it is reported as a negative distance
            gaps = map(abs, map(sub, map(values.__getitem__, js), repeat(v)))
            if not any(map(gt, gaps, bounds)):
                continue
            for j, bound in zip(js, bounds):
                if bound >= 0 and abs(v - values[j]) > bound:
                    ys = present[j]
                    detail = _modulus_detail(sym.modulus, d, xs, ys)
                    report.add(
                        "predicate-modulus",
                        (sym.name, xs, ys),
                        f"|{format_rat(table[xs])} - {format_rat(table[ys])}| > {detail}",
                    )
    for sym in structure.signature.functions:
        table = structure.function_tables.get(sym.name)
        if table is None:
            report.add("missing-table", (sym.name,), "function table absent")
            continue
        for args in _tuples(n, sym.arity):
            if args not in table:
                report.add("incomplete-table", (sym.name, args), "missing entry")
        for args, value in table.items():
            if not _is_point(value, n):
                report.add("function-range", (sym.name, args), f"image {value!r} not a point")
        present = [xs for xs in _tuples(n, sym.arity) if xs in table]
        coords = [list(coord) for coord in zip(*present)]
        # an image that is not a point is reported above, and skipped here
        images = [fx if _is_point(fx, n) else None for fx in map(table.__getitem__, present)]
        rows = _modulus_bounds(sym.modulus, form)
        for i, fx in enumerate(images):
            if fx is None:
                continue
            later = range(i + 1, len(present))
            for j, bound in zip(later, _bounds(rows, present[i], coords, later)):
                fy = images[j]
                if fy is not None and 0 <= bound < dist[fx][fy]:
                    xs, ys = present[i], present[j]
                    detail = _modulus_detail(sym.modulus, d, xs, ys)
                    report.add(
                        "function-modulus",
                        (sym.name, xs, ys),
                        f"d(f(x),f(y)) = {format_rat(d[fx][fy])} > {detail}",
                    )
    for name in structure.signature.constants:
        if name not in structure.constant_map:
            report.add("missing-constant", (name,), "constant not interpreted")
        else:
            idx = structure.constant_map[name]
            if not _is_point(idx, n):
                report.add("constant-range", (name,), f"image {idx!r} not a point")
    for name in structure.constant_map:
        if name not in structure.signature.constants:
            report.add("stray-constant", (name,), "interpreted constant not in signature")
    for name in structure.predicate_tables:
        if not any(p.name == name for p in structure.signature.predicates):
            report.add("stray-table", (name,), "predicate table without a symbol")
    for name in structure.function_tables:
        if not any(f.name == name for f in structure.signature.functions):
            report.add("stray-table", (name,), "function table without a symbol")
    return report


def reduct(structure: MetricStructure, subsignature: Signature) -> MetricStructure:
    """Restrict interpretations to a subsignature; domain and metric unchanged."""
    if not subsignature.is_subsignature_of(structure.signature):
        raise ValueError("reduct target is not a subsignature (symbols must match exactly)")
    return MetricStructure(
        signature=subsignature,
        points=structure.points,
        dist=structure.dist,
        predicate_tables={
            p.name: dict(structure.predicate_tables[p.name]) for p in subsignature.predicates
        },
        function_tables={
            f.name: dict(structure.function_tables[f.name]) for f in subsignature.functions
        },
        constant_map={c: structure.constant_map[c] for c in subsignature.constants},
    )


_FRESH_CONSTANT = re.compile(r"^c(\d+)$")


def expand_with_constants(structure: MetricStructure, points) -> MetricStructure:
    """Append fresh constants c<i> naming the given points (labels or indices)."""
    indices = [structure.point_index(p) for p in points]
    taken = [int(m.group(1)) for c in structure.signature.constants if (m := _FRESH_CONSTANT.match(c))]
    next_id = max(taken, default=-1) + 1
    names = []
    for _ in indices:
        while structure.signature.has_symbol(f"c{next_id}"):
            next_id += 1
        names.append(f"c{next_id}")
        next_id += 1
    sig = Signature(
        predicates=structure.signature.predicates,
        functions=structure.signature.functions,
        constants=structure.signature.constants + tuple(names),
    )
    cmap = dict(structure.constant_map)
    cmap.update(zip(names, indices))
    return MetricStructure(
        signature=sig,
        points=structure.points,
        dist=structure.dist,
        predicate_tables={k: dict(v) for k, v in structure.predicate_tables.items()},
        function_tables={k: dict(v) for k, v in structure.function_tables.items()},
        constant_map=cmap,
    )


def _graph_predicate_modulus(func_modulus: PwlModulus) -> PwlModulus:
    # d(b, F(a)) moves by at most d(b,b') + d(F(a),F(a')); bounded by the
    # concave majorant of max(min(2t,1), min(2*mod_F(t),1)), capped at 1
    doubling = capped_linear(2)
    return cap_at_one(modulus_max(compose(doubling, func_modulus), doubling))


def relationalize(structure: MetricStructure) -> MetricStructure:
    """Replace each n-ary function F by an (n+1)-ary predicate P_F with
    P_F(a_0,...,a_n) = d(a_n, F(a_0,...,a_{n-1})).

    The original table is recoverable: F(a) = b iff P_F(a, b) = 0.
    """
    if not structure.signature.functions:
        return structure
    new_preds = list(structure.signature.predicates)
    new_tables = {k: dict(v) for k, v in structure.predicate_tables.items()}
    n = structure.size
    for sym in structure.signature.functions:
        pname = f"P_{sym.name}"
        if structure.signature.has_symbol(pname) or any(p.name == pname for p in new_preds):
            raise ValueError(f"relationalized name {pname!r} collides with an existing symbol")
        new_preds.append(
            PredicateSymbol(pname, sym.arity + 1, _graph_predicate_modulus(sym.modulus))
        )
        table = {}
        ftab = structure.function_tables[sym.name]
        for args in _tuples(n, sym.arity):
            image = ftab[args]
            for b in range(n):
                table[args + (b,)] = structure.dist[b][image]
        new_tables[pname] = table
    sig = Signature(
        predicates=tuple(new_preds), functions=(), constants=structure.signature.constants
    )
    return MetricStructure(
        signature=sig,
        points=structure.points,
        dist=structure.dist,
        predicate_tables=new_tables,
        function_tables={},
        constant_map=dict(structure.constant_map),
    )


def find_isomorphism(left: MetricStructure, right: MetricStructure):
    """Brute-force exact isomorphism; returns a point mapping or None."""
    if left.signature != right.signature or left.size != right.size:
        return None
    from itertools import permutations

    n = left.size
    sig = left.signature
    for perm in permutations(range(n)):
        if any(left.dist[i][j] != right.dist[perm[i]][perm[j]] for i in range(n) for j in range(n)):
            continue
        if any(perm[left.constant_map[c]] != right.constant_map[c] for c in sig.constants):
            continue
        ok = True
        for p in sig.predicates:
            lt, rt = left.predicate_tables[p.name], right.predicate_tables[p.name]
            if any(lt[args] != rt[tuple(perm[a] for a in args)] for args in _tuples(n, p.arity)):
                ok = False
                break
        if not ok:
            continue
        for f in sig.functions:
            lt, rt = left.function_tables[f.name], right.function_tables[f.name]
            if any(
                perm[lt[args]] != rt[tuple(perm[a] for a in args)] for args in _tuples(n, f.arity)
            ):
                ok = False
                break
        if ok:
            return {left.points[i]: right.points[perm[i]] for i in range(n)}
    return None


# --- JSON (de)serialization -------------------------------------------------

def _key_to_tuple(key: str) -> tuple[int, ...]:
    body = key.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"table key must look like '(i,j,...)', got {key!r}")
    parts = [p.strip() for p in body[1:-1].split(",")]
    return tuple(int(p) for p in parts if p)


def _tuple_to_key(args: tuple[int, ...]) -> str:
    return "(" + ",".join(str(a) for a in args) + ")"


def signature_to_json(sig: Signature) -> dict:
    return {
        "predicates": [
            {"name": p.name, "arity": p.arity, "modulus": modulus_to_json(p.modulus)}
            for p in sig.predicates
        ],
        "functions": [
            {"name": f.name, "arity": f.arity, "modulus": modulus_to_json(f.modulus)}
            for f in sig.functions
        ],
        "constants": list(sig.constants),
    }


def _symbol_name(raw) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"a symbol name must be a string, got {raw!r}")
    return raw


def _json_int(raw, what: str) -> int:
    """A JSON integer; a bool or a float (which ``int()`` would truncate) is
    refused."""
    if type(raw) is not int:
        raise ValueError(f"{what} must be an integer, got {raw!r}")
    return raw


def signature_from_json(data: dict) -> Signature:
    def symbol(kind, raw):
        name = _symbol_name(raw["name"])
        arity = _json_int(raw["arity"], f"the arity of {name!r}")
        return kind(name, arity, modulus_from_json(raw["modulus"]))

    def symbols(kind, key):
        return tuple(symbol(kind, s) for s in data.get(key, []))

    return Signature(
        predicates=symbols(PredicateSymbol, "predicates"),
        functions=symbols(FunctionSymbol, "functions"),
        constants=tuple(map(_symbol_name, data.get("constants", []))),
    )


def structure_to_json(structure: MetricStructure) -> dict:
    return {
        "signature": signature_to_json(structure.signature),
        "points": list(structure.points),
        "dist": [[rat_to_json(v) for v in row] for row in structure.dist],
        "predicates": {
            name: {_tuple_to_key(args): rat_to_json(v) for args, v in sorted(table.items())}
            for name, table in structure.predicate_tables.items()
        },
        "functions": {
            name: {_tuple_to_key(args): v for args, v in sorted(table.items())}
            for name, table in structure.function_tables.items()
        },
        "constants": dict(structure.constant_map),
    }


def _tables(decode_value, decode_key):
    """Decoder for {symbol: {"(i,j,...)": value}} tables."""
    return lambda raw: {
        name: {decode_key(k): decode_value(v) for k, v in table.items()}
        for name, table in raw.items()
    }


def _decoders():
    """A rational and a table-key decoder that decode each distinct
    ``[num, den]`` of two ints and each distinct key string once, for one
    structure.  Anything else goes through ``rat_from_json`` and
    ``_key_to_tuple`` every time, and fails with their messages."""
    rats, keys = {}, {}

    def rational(raw):
        if type(raw) is list and len(raw) == 2 and type(raw[0]) is int and type(raw[1]) is int:
            pair = raw[0], raw[1]
            value = rats.get(pair)
            if value is None:
                value = rats[pair] = rat_from_json(raw)
            return value
        return rat_from_json(raw)

    def key(raw):
        value = keys.get(raw)
        if value is None:
            value = keys[raw] = _key_to_tuple(raw)
        return value

    return rational, key


def _check_table_size(sym, n: int, table: dict):
    """Refuse an arity above 64, or a table missing more than 100,000 of its
    n^arity entries: validate would enumerate every one."""
    if sym.arity > 64 or n ** sym.arity > len(table) + 100_000:
        raise ValueError(
            f"symbol {sym.name!r} of arity {sym.arity} is out of reach on {n} points: "
            f"its table lists {len(table)} of {n}^{sym.arity} entries"
        )


def structure_from_json(data: dict) -> MetricStructure:
    rational, key = _decoders()
    sig = json_field(data, "signature", signature_from_json)
    points = json_field(data, "points", lambda raw: tuple(str(p) for p in raw))
    dist = json_field(data, "dist", lambda raw: tuple(tuple(map(rational, row)) for row in raw))
    preds = json_field(data, "predicates", _tables(rational, key), {})
    funcs = json_field(
        data, "functions", _tables(lambda v: _json_int(v, "a function image"), key), {}
    )
    for sym in sig.predicates:
        _check_table_size(sym, len(points), preds.get(sym.name, {}))
    for sym in sig.functions:
        _check_table_size(sym, len(points), funcs.get(sym.name, {}))
    consts = json_field(
        data,
        "constants",
        lambda raw: {name: _json_int(v, f"constant {name!r}") for name, v in raw.items()},
        {},
    )
    return MetricStructure(
        signature=sig,
        points=points,
        dist=dist,
        predicate_tables=preds,
        function_tables=funcs,
        constant_map=consts,
    )


def save_structure(structure: MetricStructure, path):
    Path(path).write_text(json.dumps(structure_to_json(structure), indent=2) + "\n")


def _read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def load_structure(path, check: bool = True, allow_pseudometric: bool = False) -> MetricStructure:
    """Load and (by default) validate a structure file."""
    data = _read_json(path)
    structure = structure_from_json(data)
    if check:
        report = validate(structure, allow_pseudometric=allow_pseudometric)
        if not report.ok:
            raise StructureValidationError(report)
    return structure


def pair_to_json(pair: NamedPair) -> dict:
    return {"left": structure_to_json(pair.left), "right": structure_to_json(pair.right)}


def pair_from_json(data: dict) -> NamedPair:
    return NamedPair(
        left=json_field(data, "left", structure_from_json),
        right=json_field(data, "right", structure_from_json),
    )


def save_pair(pair: NamedPair, path):
    Path(path).write_text(json.dumps(pair_to_json(pair), indent=2) + "\n")


def load_pair(path, check: bool = True) -> NamedPair:
    data = _read_json(path)
    pair = pair_from_json(data)
    if check:
        for side, structure in (("left", pair.left), ("right", pair.right)):
            report = validate(structure)
            if not report.ok:
                report.notes.append(f"side: {side}")
                raise StructureValidationError(report)
    return pair
