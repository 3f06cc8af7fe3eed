"""Majorization decisions on compressed spectra.

Deterministic convertibility of bipartite pure states under local
operations and classical communication reduces to majorization of Schmidt
spectra (Nielsen's criterion); when that fails, the optimal probability of
a conclusive (exact, probabilistic) conversion is Vidal's minimum of
tail-sum ratios.

Both checks read the prefix sums of the two spectra from one sweep that
walks their integer run lists side by side and stops only at
*breakpoints* - prefix positions where either compressed spectrum's
active distinct value changes.  Between breakpoints the prefix-sum
difference is affine in the prefix length and a ratio of two affine tails
is monotone, so the extrema live at the segment endpoints.  This keeps the
cost proportional to the number of distinct values rather than the full
(possibly exponential) dimension.

The prefix sums are integer numerators, each over its own spectrum's
denominator.  Majorization compares them by cross-multiplying and builds
no `Fraction`; Vidal's minimum keeps each tail ratio an exact `Fraction`.
The tests cross-validate the sweep exactly against dense per-prefix scans.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterator

from .spectrum import SchmidtSpectrum


class Comparability(Enum):
    """Single-copy relation between two spectra."""

    SOURCE_TO_TARGET = "source->target"
    TARGET_TO_SOURCE = "target->source"
    EQUIVALENT = "equivalent"
    INCOMPARABLE = "incomparable"


def _prefix_sums(
    x: SchmidtSpectrum, y: SchmidtSpectrum, stop: float = math.inf
) -> Iterator[tuple[int, int]]:
    """(Sx(n), Sy(n)) at n = 0, at every run boundary of x or y below stop,
    and at stop, in increasing n; S(n) is the sum of the n largest
    coefficients as an integer numerator over that spectrum's own
    denominator, with a spectrum zero-padded past its rank.  Without a
    stop the sweep ends where both run lists are exhausted."""
    runs_x, runs_y = iter(x.runs), iter(y.runs)
    padding = (0, math.inf)
    vx, left_x = next(runs_x)
    vy, left_y = next(runs_y)
    sx = sy = n = 0
    yield sx, sy
    while n < stop and (vx or vy):
        step = min(left_x, left_y, stop - n)
        n += step
        sx += vx * step
        sy += vy * step
        yield sx, sy
        left_x -= step
        left_y -= step
        if not left_x:
            vx, left_x = next(runs_x, padding)
        if not left_y:
            vy, left_y = next(runs_y, padding)


def majorized_by(x: SchmidtSpectrum, y: SchmidtSpectrum) -> bool:
    """True iff every descending prefix sum of x is <= that of y.

    Ranks may differ; the shorter spectrum is implicitly zero-padded.  Only
    breakpoints are inspected: the prefix-sum difference is piecewise
    linear in the prefix length, so checking both endpoints of every
    linear segment decides all intermediate positions too.  Each check
    Sx/Dx <= Sy/Dy is made on the integer numerators as Sx*Dy <= Sy*Dx.
    """
    dx, dy = x.denominator, y.denominator
    return all(sx * dy <= sy * dx for sx, sy in _prefix_sums(x, y))


def vidal_pmax(source: SchmidtSpectrum, target: SchmidtSpectrum) -> Fraction:
    """Optimal success probability of a conclusive source -> target conversion.

    Vidal's formula: the minimum over prefix lengths l of the tail-sum
    ratio E_l(source) / E_l(target), where E_l is 1 minus the sum of the
    l-1 largest coefficients.  Positions with a zero target tail are
    excluded (their ratio is +infinity), which restricts l to
    1..target.dim; if the source has fewer nonzero coefficients than the
    target the conversion is impossible and 0 is returned rather than an
    error, so sweeps over many pairs stay total.

    The minimum is attained at a breakpoint of either compressed spectrum
    because the ratio of two affine functions is monotone between
    breakpoints; only those positions are evaluated.  The result is exact.
    """
    rank = target.dim
    if source.dim < rank:
        return Fraction(0)
    ds, dt = source.denominator, target.denominator
    # rank - 1 is the largest prefix length with a positive target tail
    return min(
        (1 - Fraction(ss, ds)) / (1 - Fraction(st, dt))
        for ss, st in _prefix_sums(source, target, rank - 1)
    )


def compare(a: SchmidtSpectrum, b: SchmidtSpectrum) -> Comparability:
    """Classify the single-copy relation between two spectra.

    Equivalent exactly when the canonical spectra are equal (majorization
    both ways collapses to equality); otherwise one-directional if exactly
    one direction majorizes, else incomparable.
    """
    if a == b:
        return Comparability.EQUIVALENT
    if majorized_by(a, b):
        return Comparability.SOURCE_TO_TARGET
    if majorized_by(b, a):
        return Comparability.TARGET_TO_SOURCE
    return Comparability.INCOMPARABLE
