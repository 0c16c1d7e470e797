"""Exact rational parsing and rendering.

Everything in this package is computed over `fractions.Fraction`; floats are
rejected at the boundary so that equality tests (optimum comparisons, duality
gaps, core inequalities) stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Hashable, Mapping, TypeVar

from .errors import InputError, PreconditionError

K = TypeVar("K", bound=Hashable)

# Largest rational literal accepted, in decimal digits: the digits written
# plus the magnitude of any exponent ("1e400" counts 401). Python renders
# integers of up to 4300 digits, so values built from accepted literals stay
# printable, and literals like "1e10000000" are refused before they are built.
MAX_LITERAL_DIGITS = 1000

# Largest common denominator of an instance's weights, in decimal digits.
# Engines scale every weight by it; a numerator of at most MAX_LITERAL_DIGITS
# digits over this denominator keeps every derived value (duals, payoffs,
# optima) within Python's 4300-digit rendering limit. Coprime denominators
# multiply, so 15 weights 1/(10**899 + k) already reach about 13,500 digits.
MAX_SCALE_DIGITS = 3000


def parse_rational(value) -> Fraction:
    """Parse an int, Fraction, or string like "4", "7/2", "0.5" into a Fraction.

    Floats are rejected: a JSON literal like 0.1 has no exact binary value and
    would silently poison exact comparisons downstream. Literals longer than
    MAX_LITERAL_DIGITS raise PreconditionError.
    """
    if type(value) is str:
        # Fast path, ahead of the isinstance tests (Fraction's is an ABC
        # check): "digits" or "digits/digits" in ASCII with a nonzero
        # denominator, within the bound. Every other string, errors
        # included, takes the general path below.
        num, slash, den = value.partition("/")
        if (
            num.isdigit() and num.isascii() and len(num) + len(den) <= MAX_LITERAL_DIGITS
            and (not slash or den.isdigit() and den.isascii() and den.strip("0"))
        ):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    if isinstance(value, int):
        if abs(value) >= 10**MAX_LITERAL_DIGITS:
            raise PreconditionError(f"integer literal exceeds {MAX_LITERAL_DIGITS} digits")
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"float {value!r} rejected; write rationals as strings like \"7/2\""
        )
    if isinstance(value, str):
        if _literal_digits(value) > MAX_LITERAL_DIGITS:
            shown = value if len(value) <= 20 else value[:20] + "..."
            raise PreconditionError(f"rational literal {shown!r} exceeds {MAX_LITERAL_DIGITS} digits")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}") from exc
    raise InputError(f"not a rational: {value!r}")


def _literal_digits(text: str) -> int:
    """Digits written in `text` plus the magnitude of its exponent, if any."""
    mantissa, _, exponent = text.replace("_", "").lower().partition("e")
    digits = sum(ch.isdecimal() for ch in mantissa)
    magnitude = exponent.strip().lstrip("+-")
    if magnitude.isdecimal():
        # Any exponent of more than nine digits is past the bound anyway.
        digits += int(magnitude) if len(magnitude) <= 9 else 10**9
    return digits


def format_rational(q: Fraction) -> str:
    """Render an int or Fraction in lowest terms as "num/den" (bare integer
    when the denominator is 1), as `str(Fraction(q))` does."""
    num, den = q.numerator, q.denominator
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise PreconditionError("value has too many digits to render") from None


def common_denominator(values) -> int:
    """Least common multiple of the denominators of the ints or Fractions
    `values` (at least 1); any other value is an InputError."""
    try:
        return lcm(*{v.denominator for v in values})
    except AttributeError:
        raise InputError("rationals must be ints or Fractions") from None


def scale_to_integers(values: Mapping[K, Fraction]) -> tuple[dict[K, int], int]:
    """`values`, ints or Fractions, times their common denominator, and that
    denominator.

    Raises PreconditionError when the denominator exceeds MAX_SCALE_DIGITS,
    before any engine spends time on the scaled values.
    """
    scale = common_denominator(values.values())
    if scale >= 10**MAX_SCALE_DIGITS:
        raise PreconditionError(f"common denominator exceeds {MAX_SCALE_DIGITS} digits")
    return {k: v.numerator * (scale // v.denominator) for k, v in values.items()}, scale
