"""Naive dense oracles that the tests compare the package against.

Each one works on the fully expanded coefficient vector and shares no
code with the package's compressed paths: powers enumerate every product
and hand the list to `make_spectrum`, and the majorization and Vidal
checks scan every prefix.  They are deliberately exponential, so the
power oracle is capped.  `strict_extremes` states directly the strict
extreme-coefficient pattern that `classify_pair` reports as strong
incomparability.
"""

import itertools
import math
from fractions import Fraction

from locc_lab import SchmidtSpectrum, make_spectrum

#: Default cap on dim**k for the dense power oracle.
DEFAULT_ORACLE_CAP = 10**6


class OracleCapExceeded(RuntimeError):
    """The dense oracle was asked for more than its product cap."""

    def __init__(self, requested: int, cap: int):
        self.requested = requested
        self.cap = cap
        super().__init__(f"dense enumeration of {requested} products exceeds {cap}")


def tensor_power_dense(
    a: SchmidtSpectrum, k: int, *, cap: int | None = None
) -> SchmidtSpectrum:
    """The k-copy spectrum by enumerating all dim**k products of expanded
    values (default cap 10**6 products)."""
    if k < 1:
        raise ValueError(f"copy count must be >= 1, got {k}")
    cap = DEFAULT_ORACLE_CAP if cap is None else cap
    requested = a.dim**k
    if requested > cap:
        raise OracleCapExceeded(requested, cap)
    return make_spectrum(
        math.prod(combo, start=Fraction(1))
        for combo in itertools.product(a.expand(), repeat=k)
    )


def majorized_by_dense(x: SchmidtSpectrum, y: SchmidtSpectrum) -> bool:
    """Full per-prefix majorization scan (oracle for majorized_by)."""
    xs = list(x.expand())
    ys = list(y.expand())
    top = max(len(xs), len(ys))
    xs += [Fraction(0)] * (top - len(xs))
    ys += [Fraction(0)] * (top - len(ys))
    sum_x = Fraction(0)
    sum_y = Fraction(0)
    for vx, vy in zip(xs, ys):
        sum_x += vx
        sum_y += vy
        if sum_x > sum_y:
            return False
    return True


def vidal_pmax_dense(source: SchmidtSpectrum, target: SchmidtSpectrum) -> Fraction:
    """Vidal's minimum evaluated at every prefix (oracle for vidal_pmax)."""
    if source.dim < target.dim:
        return Fraction(0)
    src = source.expand()
    tgt = target.expand()
    best = None
    tail_s = Fraction(1)
    tail_t = Fraction(1)
    for l in range(1, len(tgt) + 1):
        ratio = tail_s / tail_t
        if best is None or ratio < best:
            best = ratio
        tail_s -= src[l - 1]
        tail_t -= tgt[l - 1]
    return best


def strict_extremes(a: SchmidtSpectrum, b: SchmidtSpectrum) -> bool:
    """Both extreme coefficients of one spectrum strictly below the
    other's, on the expanded vectors zero-padded to the common rank."""
    xs = list(a.expand())
    ys = list(b.expand())
    top = max(len(xs), len(ys))
    xs += [Fraction(0)] * (top - len(xs))
    ys += [Fraction(0)] * (top - len(ys))
    return (xs[0] < ys[0] and xs[-1] < ys[-1]) or (xs[0] > ys[0] and xs[-1] > ys[-1])
