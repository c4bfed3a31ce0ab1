"""Exact rational helpers: parsing and JSON encoding of `fractions.Fraction`.

Every real-valued quantity in this package (distances, predicate values,
formula values, game values, epsilons) is a `Fraction`, so all comparisons
are exact.  On the wire a rational is a ``[numerator, denominator]`` pair;
plain integers, ``"num/den"`` strings and decimal strings are accepted on
input and converted exactly.  ``json_field`` decodes one field of a JSON
object for the structure and modulus loaders.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["Rational", "rat", "rat_from_json", "rat_to_json", "format_rat"]

Rational = Fraction

# Fraction expands a decimal exponent exactly, in time and memory that grow
# with it: "1e-10000000" takes seconds, and a few more digits would not end
MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"e[-+]?0*(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _check_exponent(text: str):
    match = _EXPONENT.search(text)
    if match is None:
        return
    digits = match.group(1).replace("_", "")
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise ValueError(
            f"exponent out of range in {shown!r}: at most {MAX_EXPONENT} in absolute value"
        )


def rat(value) -> Fraction:
    """Coerce ints, strings ("3/4", "0.25") and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _check_exponent(value)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        raise TypeError(
            "floats are rejected to keep arithmetic exact; pass a string or [num, den]"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rat_from_json(value) -> Fraction:
    """Decode a JSON rational: [num, den], int, or an exact string form."""
    if isinstance(value, list):
        if len(value) != 2 or type(value[0]) is not int or type(value[1]) is not int:
            raise ValueError(f"rational pair must be [num, den] with integers, got {value!r}")
        num, den = value
        if den <= 0:
            raise ValueError(f"rational denominator must be positive, got {den}")
        return Fraction(num, den)
    return rat(value)


def rat_to_json(value: Fraction) -> list:
    return [value.numerator, value.denominator]


def format_rat(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def json_field(data, name: str, decode, default=None):
    """decode(data[name]), or the default when the field is absent (None
    makes it required); a missing or ill-shaped field becomes a ValueError
    that names it."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if name not in data:
        if default is None:
            raise ValueError(f"missing field {name!r}")
        return default
    try:
        return decode(data[name])
    except KeyError as exc:
        raise ValueError(f"field {name!r}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"field {name!r}: {exc}") from None
