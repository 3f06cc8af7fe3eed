"""Many-copy analysis of incomparable pairs.

A pair that is incomparable copy-by-copy may still convert deterministically
when several copies are transformed collectively; other pairs stay
incomparable at every copy count and under any catalyst.  This module
certifies exactly that a direction can never convert (`obstruction`),
classifies pairs along that axis, finds the minimal deterministic copy
count, scans the optimal conclusive probability against the copy count
(with its exponential-decay bound where one applies), and collects
numerical evidence for the still-open claim that determinism at k+1 copies
persists for all larger counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .majorization import Comparability, compare, majorized_by, vidal_pmax
from .spectrum import InputError, SchmidtSpectrum, tensor_power, tensor_powers

#: Exponents of the power-sum test in `obstruction`.  On the 78 grid misses
#: of six seeded catalyst-benchmark passes, 2..3 certify 32, 2..8 certify
#: 36, and 2..64 certify no more than 2..8.
POWER_SUM_ALPHAS = range(2, 9)


@dataclass(frozen=True)
class Obstruction:
    """Which exact test rules a direction out (see `obstruction`): the
    extreme-coefficient test when alpha is None, else the power-sum test
    at that exponent."""

    alpha: int | None = None

    def __str__(self) -> str:
        if self.alpha is None:
            return "extreme-coefficient test"
        return f"power-sum test at alpha={self.alpha}"


class PairKind(Enum):
    COMPARABLE_SINGLE_COPY = "comparable"
    K_COPY_INCOMPARABLE = "k-copy incomparable"
    STRONGLY_INCOMPARABLE = "strongly incomparable"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class PairClassification:
    """Outcome of classifying a pair.

    kind selects the variant; the other fields are populated per variant:
    direction for single-copy comparable pairs and for k-copy pairs (the
    one direction that becomes deterministic), k for k-copy pairs (both
    directions stay incomparable for n <= k, one becomes deterministic at
    n = k+1), witness for strongly incomparable pairs (the obstructions of
    a -> b and of b -> a), searched_up_to for the honest "no answer within
    budget" outcome.
    """

    kind: PairKind
    direction: Comparability | None = None
    k: int | None = None
    witness: tuple[Obstruction, Obstruction] | None = None
    searched_up_to: int | None = None


@dataclass(frozen=True)
class PmaxScanRow:
    k: int
    pmax: Fraction
    decay_bound: Fraction | None


@dataclass(frozen=True)
class PmaxScan:
    """Optimal conclusive probability per copy count, rows contiguous from 1.

    Whenever the exponential-decay bound applies, each row satisfies
    pmax <= bound; construction enforces both invariants.
    """

    rows: tuple[PmaxScanRow, ...]

    def __post_init__(self):
        for i, row in enumerate(self.rows):
            if row.k != i + 1:
                raise ValueError("rows must be contiguous from k=1")
            if row.decay_bound is not None and row.pmax > row.decay_bound:
                raise ValueError(f"row k={row.k}: pmax {row.pmax} above bound")

    def argmax_k(self) -> int:
        """Copy count with the largest pmax (smallest k on ties)."""
        return max(self.rows, key=lambda r: (r.pmax, -r.k)).k


class BaselineNotDeterministic(ValueError):
    """Evidence scan requires the (k+1)-copy conversion to be deterministic."""


def _padded_extremes(
    a: SchmidtSpectrum, b: SchmidtSpectrum
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(a1, b1, ad, bd): largest and smallest coefficients of both spectra,
    the smaller-rank spectrum zero-padded to the common dimension."""
    top = max(a.dim, b.dim)
    ad = a.smallest if a.dim == top else Fraction(0)
    bd = b.smallest if b.dim == top else Fraction(0)
    return a.largest, b.largest, ad, bd


def obstruction(source: SchmidtSpectrum, target: SchmidtSpectrum) -> Obstruction | None:
    """Exact certificate that source -> target is never deterministic.

    Two tests run, each necessary for a deterministic conversion of any
    number of copies, with or without any catalyst, so a returned
    `Obstruction` rules the direction out at every copy count; None
    promises nothing.

    * The extreme-coefficient test: the conversion forces largest(source)
      <= largest(target) and smallest(source) >= smallest(target), extremes
      taken after zero padding to the common rank.
    * The power-sum test: for every integer alpha >= 2 the power sum
      sum_i p_i**alpha is Schur-convex and multiplicative under the tensor
      product, so the conversion forces it to be no larger for the source
      than for the target.  Alphas run through `POWER_SUM_ALPHAS` and the
      sums are compared as integer numerators over D**alpha,
      cross-multiplied, with no rounding.  The largest-coefficient half of
      the extreme test is its infinite-exponent limit.

    The extreme test runs first, and the power-sum test reports the
    smallest alpha that fires.
    """
    a1, b1, ad, bd = _padded_extremes(source, target)
    if a1 > b1 or ad < bd:
        return Obstruction()
    sd, td = source.denominator, target.denominator
    for alpha in POWER_SUM_ALPHAS:
        lhs = sum(m * n**alpha for n, m in source.runs) * td**alpha
        rhs = sum(m * n**alpha for n, m in target.runs) * sd**alpha
        if lhs > rhs:
            return Obstruction(alpha)
    return None


def _copies(source: SchmidtSpectrum, target: SchmidtSpectrum, k_max: int):
    """(n, source^n, target^n) for n = 1..k_max, each power built once.  The
    range comes first, so zip stops before asking for a power beyond k_max."""
    return zip(
        range(1, k_max + 1), tensor_powers(source, k_max), tensor_powers(target, k_max)
    )


def find_min_deterministic_k(
    source: SchmidtSpectrum,
    target: SchmidtSpectrum,
    k_max: int,
) -> int | None:
    """Smallest n <= k_max with n copies deterministically convertible.

    Short-circuits to None when `obstruction` already rules the direction
    out at every copy count; otherwise checks majorization of the n-fold
    powers for n = 1, 2, ... and returns the first hit, or None if the
    budget is exhausted.  Powers are built one step at a time, so a hit
    below the first copy count over the memory cap is returned without
    reaching that count.
    """
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    if obstruction(source, target) is not None:
        return None
    for n, powered_source, powered_target in _copies(source, target, k_max):
        if majorized_by(powered_source, powered_target):
            return n
    return None


def classify_pair(
    a: SchmidtSpectrum,
    b: SchmidtSpectrum,
    k_max: int = 8,
) -> PairClassification:
    """Classify a pair by its many-copy transformation behaviour.

    Single-copy comparable pairs are reported as such.  An incomparable
    pair whose extreme-coefficient test fails in both directions (both
    extremes of one spectrum strictly below the other's) is strongly
    incomparable: no copy count and no catalyst converts it either way.
    Otherwise the minimal deterministic copy count is searched in each
    direction that no obstruction rules out, a -> b first and then b -> a,
    walking from two copies on since `compare` already decided one copy
    (the order is fixed for determinism; at most one direction can ever
    succeed, since both succeeding would force the spectra to be equal).
    Pairs that resolve neither way within k_max copies are honestly
    reported as undecided: no terminating procedure is known for
    "incomparable at every k" outside the sufficient condition.
    """
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    relation = compare(a, b)
    if relation != Comparability.INCOMPARABLE:
        return PairClassification(PairKind.COMPARABLE_SINGLE_COPY, direction=relation)
    witness = (obstruction(a, b), obstruction(b, a))
    if witness == (Obstruction(), Obstruction()):
        return PairClassification(PairKind.STRONGLY_INCOMPARABLE, witness=witness)
    directions = (
        (Comparability.SOURCE_TO_TARGET, (a, b)),
        (Comparability.TARGET_TO_SOURCE, (b, a)),
    )
    unobstructed = (d for d, w in zip(directions, witness) if w is None)
    for direction, pair in unobstructed:
        for n, powered_source, powered_target in _copies(*pair, k_max):
            if n > 1 and majorized_by(powered_source, powered_target):
                return PairClassification(
                    PairKind.K_COPY_INCOMPARABLE, k=n - 1, direction=direction
                )
    return PairClassification(PairKind.UNDECIDED, searched_up_to=k_max)


def pmax_scan(source: SchmidtSpectrum, target: SchmidtSpectrum, k_max: int) -> PmaxScan:
    """Optimal conclusive probability for k = 1..k_max copies.

    When the padded smallest coefficients satisfy smallest(source) <
    smallest(target), the probability is bounded by their ratio to the
    k-th power and decays exponentially no matter how the copies are
    manipulated collectively; that bound is attached per row.  Outside
    that regime no bound column is emitted (the probability may even reach
    1 at some copy count).
    """
    if k_max < 1:
        raise InputError(f"k_max must be >= 1, got {k_max}")
    _, _, ad, bd = _padded_extremes(source, target)
    decay_base = ad / bd if ad < bd else None
    rows = []
    for k, powered_source, powered_target in _copies(source, target, k_max):
        p = vidal_pmax(powered_source, powered_target)
        bound = decay_base**k if decay_base is not None else None
        rows.append(PmaxScanRow(k, p, bound))
    return PmaxScan(tuple(rows))


def conjecture_scan(
    source: SchmidtSpectrum,
    target: SchmidtSpectrum,
    k: int,
    n_max: int,
) -> tuple[tuple[int, bool], ...]:
    """Numerical EVIDENCE that determinism at k+1 copies persists beyond.

    Requires the (k+1)-copy conversion to be deterministic, then reports
    for each n = k+2..n_max whether the n-copy conversion is deterministic
    too.  A run of True values is evidence only, never a proof; multiples
    of k+1 hold trivially (repeat the (k+1)-copy protocol), the
    interesting entries are the remainders.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    # The baseline is built on its own, so a baseline over the memory cap
    # fails before any other power is built.
    if not majorized_by(tensor_power(source, k + 1), tensor_power(target, k + 1)):
        raise BaselineNotDeterministic(
            f"the {k + 1}-copy conversion is not deterministic"
        )
    powers = _copies(source, target, n_max)
    return tuple((n, majorized_by(x, y)) for n, x, y in powers if n > k + 1)
