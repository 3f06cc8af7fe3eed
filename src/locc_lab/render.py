"""Presentation-layer formatting of exact rationals.

All analysis results are exact fractions; anything decimal is produced
here, with a fixed significant-digit count and round-half-even, so the
same result renders to the same bytes on every platform and run.
"""

from __future__ import annotations

import decimal
from fractions import Fraction


def format_rational(x: Fraction) -> str:
    """num/den with the denominator always spelled out (1 -> "1/1"); each
    integer goes through `Decimal`, which, unlike `str(int)`, has no digit limit."""
    return f"{decimal.Decimal(x.numerator)}/{decimal.Decimal(x.denominator)}"


def _to_decimal(x: Fraction, significant: int) -> decimal.Decimal:
    with decimal.localcontext() as ctx:
        ctx.prec = significant
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def format_decimal(x: Fraction) -> str:
    """Decimal rendering to 4 significant digits, trailing zeros stripped
    (24/25 -> "0.96", 5/6 -> "0.8333", 1 -> "1")."""
    d = _to_decimal(x, 4)
    if d == d.to_integral_value():
        return str(int(d))
    return format(d.normalize(), "f")


def format_decimal_fixed(x: Fraction) -> str:
    """Decimal rendering for machine output: 15 significant digits, no
    exponent notation, nothing stripped beyond what the division itself
    produces (5/6 -> "0.833333333333333")."""
    return format(_to_decimal(x, 15), "f")

