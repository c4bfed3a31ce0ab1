"""Moduli of uniform continuity in canonical concave piecewise-linear form.

A modulus is a non-decreasing, subadditive, continuous function on [0, inf)
vanishing at zero.  We restrict to concave piecewise-linear functions with
rational breakpoints: concavity plus vanishing at zero implies subadditivity,
and the class is closed under composition, pointwise-max envelopes and exact
comparison, so nothing is lost (any modulus is dominated by its affine
envelope, which lands in this class).

A ``PwlModulus`` stores its breakpoints ``(0,0) = (x_0,y_0), ..., (x_k,y_k)``
with strictly increasing inputs and a ``final_slope`` used beyond ``x_k``.
Canonical form: segment slopes strictly decrease and the final slope is
strictly below the last segment slope, so pointwise-equal moduli are
structurally equal.  Every computed modulus (``concave_envelope``,
``compose``, ``modulus_max``, ``cap_at_one``) gets that form from one upper
hull, ``_hull``.

``compose``, ``modulus_max``, ``modulus_leq``, ``cap_at_one`` and
``capped_linear`` are ``functools.lru_cache`` functions (``capped_linear``
through ``_capped_linear``, after ``rat``), keyed by their arguments: the
moduli, or ``capped_linear``'s slope and cap as Fractions.  Each cache keeps
the ``_CACHE_SIZE`` most recently used answers, and ``cache_info()`` counts
its hits and misses.  A ``PwlModulus`` computes its hash once, when it is
built, and keeps it, so a key hashes without any ``Fraction`` arithmetic.
The caches are exact: a ``PwlModulus`` is immutable and canonical, so equal
arguments are equal moduli with one result.

On a miss, such as every operation of a single ``clgames theta``, an
operation whose answer is one of its arguments returns that very object,
so a later cache key holding it matches by identity, not by ``==`` on
tuples of Fractions: ``compose`` returns the other side of an identity
and zero beside a zero modulus, ``modulus_max`` the first of equal
arguments, and ``cap_at_one`` a modulus already at most 1.  Otherwise the
hull builds the answer.  The shortcuts are exact because the canonical
form is unique, so the hull would rebuild that very modulus.

``KaryModulus`` aggregates per-coordinate unary moduli with max or sum;
``WeakModulus`` extends that to infinitely many coordinates via a finite
prefix plus a tail rule, and is only ever evaluated through its finite
truncations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .rationals import format_rat, json_field, rat, rat_from_json, rat_to_json

__all__ = [
    "Aggregator",
    "PwlModulus",
    "KaryModulus",
    "WeakModulus",
    "zero_modulus",
    "identity_modulus",
    "linear_modulus",
    "capped_linear",
    "compose",
    "concave_envelope",
    "modulus_max",
    "modulus_leq",
    "cap_at_one",
    "truncate",
    "modulus_to_json",
    "modulus_from_json",
    "weak_modulus_to_json",
    "weak_modulus_from_json",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# the answers each calculus cache keeps
_CACHE_SIZE = 1 << 14


class Aggregator(str, enum.Enum):
    MAX = "max"
    SUM = "sum"


@dataclass(frozen=True)
class PwlModulus:
    """Canonical concave piecewise-linear modulus."""

    breakpoints: tuple[tuple[Fraction, Fraction], ...]
    final_slope: Fraction

    def __post_init__(self):
        bps = self.breakpoints
        if not bps or bps[0] != (_ZERO, _ZERO):
            raise ValueError("modulus breakpoints must start at (0, 0)")
        if self.final_slope < 0:
            raise ValueError("final slope must be non-negative")
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise ValueError("breakpoint inputs must be strictly increasing")
            if y1 < y0:
                raise ValueError("breakpoint outputs must be non-decreasing")
        slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(bps, bps[1:])]
        for s0, s1 in zip(slopes, slopes[1:]):
            if s1 >= s0:
                raise ValueError("segment slopes must strictly decrease (canonical concavity)")
        if slopes and self.final_slope >= slopes[-1]:
            raise ValueError("final slope must be strictly below the last segment slope")
        # hashed once: the calculus caches hash their arguments on every call
        object.__setattr__(self, "_hash", hash((bps, self.final_slope)))

    def __hash__(self) -> int:
        return self._hash

    def __call__(self, t) -> Fraction:
        return self.evaluate(t)

    def evaluate(self, t) -> Fraction:
        """Piecewise-linear interpolation; rejects negative arguments."""
        t = rat(t)
        if t < 0:
            raise ValueError(f"modulus argument must be non-negative, got {t}")
        bps = self.breakpoints
        if t >= bps[-1][0]:
            xk, yk = bps[-1]
            return yk + self.final_slope * (t - xk)
        # t is strictly inside; find the segment by scan (breakpoint lists are short)
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            if t <= x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        raise AssertionError("unreachable")

    def describe(self) -> str:
        pts = ", ".join(f"({format_rat(x)}, {format_rat(y)})" for x, y in self.breakpoints)
        return f"pwl[{pts}; slope {format_rat(self.final_slope)}]"


def _hull(points: dict, tail_slope: Fraction) -> PwlModulus:
    """Canonical least concave majorant, eventual slope ``tail_slope``, of
    the points ``x -> y`` (the origin among them): the upper hull by
    monotone chain (Andrew 1979), which drops collinear vertices, cut at the
    leftmost maximizer of y - tail_slope * x, where the tail ray takes over.
    """
    hull: list[tuple[Fraction, Fraction]] = []
    for p in sorted(points.items()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (p[0] - x0) <= (p[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(p)
    heights = [y - tail_slope * x for x, y in hull]
    return PwlModulus(tuple(hull[: heights.index(max(heights)) + 1]), tail_slope)


def zero_modulus() -> PwlModulus:
    return PwlModulus(((_ZERO, _ZERO),), _ZERO)


def identity_modulus() -> PwlModulus:
    return PwlModulus(((_ZERO, _ZERO),), _ONE)


# shared, as a PwlModulus is frozen: ``compose`` compares against them and
# ``formulas`` returns them as the moduli of its fixed connectives
_ZERO_MODULUS, _IDENTITY = zero_modulus(), identity_modulus()


def linear_modulus(slope) -> PwlModulus:
    slope = rat(slope)
    if slope < 0:
        raise ValueError("slope must be non-negative")
    return PwlModulus(((_ZERO, _ZERO),), slope)


def capped_linear(slope, cap=_ONE) -> PwlModulus:
    """min(slope * t, cap): the workhorse modulus of the [0,1] setting."""
    return _capped_linear(rat(slope), rat(cap))


@lru_cache(maxsize=_CACHE_SIZE)
def _capped_linear(slope: Fraction, cap: Fraction) -> PwlModulus:
    if slope < 0 or cap < 0:
        raise ValueError("slope and cap must be non-negative")
    if slope == 0 or cap == 0:
        return zero_modulus()
    return PwlModulus(((_ZERO, _ZERO), (cap / slope, cap)), _ZERO)


@lru_cache(maxsize=_CACHE_SIZE)
def compose(outer: PwlModulus, inner: PwlModulus) -> PwlModulus:
    """Exact composition outer(inner(t)); concave PWL is closed under it.

    Cached by (outer, inner), up to ``_CACHE_SIZE`` answers, exactly, as
    equal canonical moduli have one composite.  On a miss, the identity on
    either side returns the other side, and the zero modulus on either side
    returns zero, as the argument object itself, so later cache keys match
    it by identity; every input is canonical, so the hull would rebuild
    exactly that modulus.  Otherwise the answer is the hull of
    outer(inner(x)) over inner's breakpoints and the points where inner
    reaches one of outer's.
    """
    if inner == _IDENTITY or outer == _ZERO_MODULUS:
        return outer
    if outer == _IDENTITY or inner == _ZERO_MODULUS:
        return inner
    # candidate kinks: inner's own breakpoints plus the points where inner
    # crosses one of outer's breakpoint inputs
    xs = {x for x, _ in inner.breakpoints}
    for u, _ in outer.breakpoints:
        if u == 0:
            continue
        x = _preimage(inner, u)
        if x is not None:
            xs.add(x)
    pts = {x: outer.evaluate(inner.evaluate(x)) for x in xs}
    if inner.final_slope == 0 or outer.final_slope == 0:
        # one factor is eventually constant, hence so is the composite
        final = _ZERO
    else:
        final = outer.final_slope * inner.final_slope
    return _hull(pts, final)


def _preimage(delta: PwlModulus, target: Fraction) -> Fraction | None:
    """Least t with delta(t) = target, or None when the value is never reached."""
    bps = delta.breakpoints
    for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
        if y0 <= target <= y1:
            if y1 == y0:
                return x0 if target == y0 else None
            return x0 + (target - y0) * (x1 - x0) / (y1 - y0)
    xk, yk = bps[-1]
    if target == yk:
        return xk
    if target > yk and delta.final_slope > 0:
        return xk + (target - yk) / delta.final_slope
    return None


def concave_envelope(samples: Sequence[tuple], tail_slope) -> PwlModulus:
    """Least non-decreasing concave PWL majorant of the samples whose
    eventual slope is ``tail_slope``.

    Equivalently the pointwise inf of affine functions a*t + b with
    a >= tail_slope, b >= 0 dominating every sample.  Rejects samples with a
    negative coordinate, a missing origin, or a positive value at 0; the
    checked samples then go through the one hull, ``_hull``.
    """
    tail_slope = rat(tail_slope)
    if tail_slope < 0:
        raise ValueError("tail slope must be non-negative")
    pts: dict[Fraction, Fraction] = {}
    for p in samples:
        x, y = rat(p[0]), rat(p[1])
        if x < 0 or y < 0:
            raise ValueError(f"sample ({x}, {y}) has a negative coordinate")
        if x == 0 and y > 0:
            raise ValueError("a modulus vanishes at zero; sample (0, y>0) rejected")
        pts[x] = max(pts.get(x, _ZERO), y)
    if pts.get(_ZERO) != _ZERO:
        raise ValueError("samples must include the origin (0, 0)")
    return _hull(pts, tail_slope)


@lru_cache(maxsize=_CACHE_SIZE)
def modulus_max(*moduli: PwlModulus) -> PwlModulus:
    """Least concave PWL majorant of the pointwise max of the moduli: the
    shared zero modulus for none, and the first modulus, returned as it is,
    when every argument equals it (the hull of one canonical modulus is
    that modulus).  Otherwise it is the one hull, ``_hull``, of their
    breakpoints under the steepest final slope."""
    if not moduli:
        return _ZERO_MODULUS
    if all(m == moduli[0] for m in moduli[1:]):
        return moduli[0]
    points = {_ZERO: _ZERO}
    for m in moduli:
        for x, y in m.breakpoints:
            points[x] = max(points.get(x, _ZERO), y)
    return _hull(points, max((m.final_slope for m in moduli), default=_ZERO))


@lru_cache(maxsize=_CACHE_SIZE)
def modulus_leq(a: PwlModulus, b: PwlModulus) -> bool:
    """Exact pointwise a <= b on [0, inf)."""
    if a.final_slope > b.final_slope:
        return False
    xs = {x for x, _ in a.breakpoints} | {x for x, _ in b.breakpoints}
    return all(a.evaluate(x) <= b.evaluate(x) for x in xs)


@lru_cache(maxsize=_CACHE_SIZE)
def cap_at_one(delta: PwlModulus) -> PwlModulus:
    """Pointwise min(delta, 1); stays concave PWL."""
    if delta.final_slope == 0 and delta.breakpoints[-1][1] <= 1:
        return delta
    kept = {x: y for x, y in delta.breakpoints if y < 1}
    kept[_preimage(delta, _ONE)] = _ONE
    return _hull(kept, _ZERO)


@dataclass(frozen=True)
class KaryModulus:
    """Aggregated per-coordinate modulus on [0, inf)^arity."""

    arity: int
    per_coordinate: tuple[PwlModulus, ...]
    aggregator: Aggregator

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        if len(self.per_coordinate) != self.arity:
            raise ValueError("per-coordinate moduli must match the arity")

    def evaluate(self, xs: Sequence) -> Fraction:
        if len(xs) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(xs)}")
        vals = [m.evaluate(x) for m, x in zip(self.per_coordinate, xs)]
        if not vals:
            return _ZERO
        if self.aggregator is Aggregator.MAX:
            return max(vals)
        return sum(vals, _ZERO)


@dataclass(frozen=True)
class WeakModulus:
    """Coordinate-indexed modulus family: a finite prefix plus a tail rule.

    Only the finite truncations are ever evaluated, so values stay finite;
    ``allow_infinite`` records whether the (never computed) full evaluation
    on an infinite-support vector would be permitted to take the value inf.
    """

    coords: tuple[PwlModulus, ...]
    tail: PwlModulus
    aggregator: Aggregator
    allow_infinite: bool = False

    def coordinate(self, i: int) -> PwlModulus:
        if i < 0:
            raise ValueError("coordinate index must be non-negative")
        return self.coords[i] if i < len(self.coords) else self.tail

    def truncation(self, k: int) -> KaryModulus:
        if k < 0:
            raise ValueError("truncation length must be non-negative")
        return KaryModulus(k, tuple(self.coordinate(i) for i in range(k)), self.aggregator)

    def evaluate(self, xs: Sequence) -> Fraction:
        return self.truncation(len(xs)).evaluate(xs)


def truncate(omega: WeakModulus, k: int) -> KaryModulus:
    return omega.truncation(k)


def modulus_to_json(delta: PwlModulus) -> dict:
    return {
        "breakpoints": [[rat_to_json(x), rat_to_json(y)] for x, y in delta.breakpoints],
        "final_slope": rat_to_json(delta.final_slope),
    }


def modulus_from_json(data: dict) -> PwlModulus:
    if not isinstance(data, dict) or "breakpoints" not in data or "final_slope" not in data:
        raise ValueError("modulus JSON needs 'breakpoints' and 'final_slope'")
    bps = tuple(
        (rat_from_json(x), rat_from_json(y)) for x, y in data["breakpoints"]
    )
    return PwlModulus(bps, rat_from_json(data["final_slope"]))


def weak_modulus_to_json(omega: WeakModulus) -> dict:
    return {
        "coords": [modulus_to_json(m) for m in omega.coords],
        "tail": modulus_to_json(omega.tail),
        "aggregator": omega.aggregator.value,
        "allow_infinite": omega.allow_infinite,
    }


def weak_modulus_from_json(data: dict) -> WeakModulus:
    return WeakModulus(
        coords=json_field(
            data, "coords", lambda raw: tuple(modulus_from_json(m) for m in raw), ()
        ),
        tail=json_field(data, "tail", modulus_from_json),
        aggregator=json_field(data, "aggregator", Aggregator, Aggregator.MAX),
        allow_infinite=json_field(data, "allow_infinite", _json_bool, False),
    )


def _json_bool(raw) -> bool:
    """A JSON boolean; ``bool()`` would take any string or list as true."""
    if type(raw) is not bool:
        raise ValueError(f"must be true or false, got {raw!r}")
    return raw
