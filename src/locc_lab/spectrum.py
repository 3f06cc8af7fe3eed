"""Exact Schmidt spectra with multiplicity compression.

For transformation questions a bipartite pure state is fully described by
its Schmidt probabilities (squared Schmidt coefficients).  We keep them as
exact rationals, sorted descending, with equal values merged into
(value, multiplicity) runs.  The compression is what makes many-copy
analysis tractable: the k-th tensor power of a state with d coefficients
has d**k of them, but only O(k**(m-1)) distinct values when the base
spectrum has m distinct ones, so the compressed form stays small while the
dense vector explodes.

Floating point appears nowhere except `entropy`; every other operation is
exact, so majorization decisions near ties are decided correctly.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

#: Exact arbitrary-precision rational; always in lowest terms with a
#: positive denominator, which is exactly the invariant we need.
Rational = Fraction

CoefficientLike = Union[Fraction, int, float, str]

#: Default cap on the number of *distinct* entries a tensor power may
#: produce.  Override per call or via the environment variable below.
DEFAULT_MEMORY_CAP = 2_000_000
MEMORY_CAP_ENV_VAR = "LOCC_LAB_MEM_CAP"

#: Default cap on dim**k for the naive dense oracle.
DEFAULT_ORACLE_CAP = 10**6


class NegativeEntry(ValueError):
    """A probability was negative."""

    def __init__(self, index: int, value: Fraction):
        self.index = index
        self.value = value
        super().__init__(f"entry {index + 1} is negative: {value}")


class SumNotOne(ValueError):
    """Probabilities do not sum to exactly 1; reports the exact deficit."""

    def __init__(self, total: Fraction):
        self.total = total
        self.deficit = 1 - total
        super().__init__(f"probabilities sum to {total}, off by {self.deficit}")


class MemoryCapExceeded(RuntimeError):
    """A tensor power would exceed the distinct-entry memory cap."""

    def __init__(self, estimated: int, cap: int):
        self.estimated = estimated
        self.cap = cap
        super().__init__(
            f"estimated {estimated} distinct entries exceeds the cap of {cap}"
        )


class OracleCapExceeded(RuntimeError):
    """The dense oracle was asked for more than its product cap."""

    def __init__(self, requested: int, cap: int):
        self.requested = requested
        self.cap = cap
        super().__init__(f"dense enumeration of {requested} products exceeds {cap}")


def default_memory_cap() -> int:
    """Distinct-entry cap: LOCC_LAB_MEM_CAP if set, else 2 million."""
    raw = os.environ.get(MEMORY_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_MEMORY_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{MEMORY_CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    return cap


def as_rational(value: CoefficientLike) -> Fraction:
    """Coerce a coefficient to an exact rational.

    Ints, Fractions, and strings pass straight to ``Fraction`` (decimal
    strings such as "0.36" parse exactly, to 9/25).  Floats are read via
    their shortest repr, so the literal 0.4 means 2/5 rather than the
    nearest binary double; values without a short decimal form (math.pi,
    results of float division) should be supplied as strings or Fractions
    instead.
    """
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Compressed Schmidt spectrum.

    entries: (value, multiplicity) runs, values strictly descending and
    pairwise distinct, every value in (0, 1], multiplicities positive.
    dim: total coefficient count including multiplicities, i.e. the
    Schmidt rank after zero-stripping.  The values weighted by their
    multiplicities sum to exactly 1.

    Instances are immutable and safe to share.  Calling the constructor
    directly validates every invariant above; `make_spectrum` is the usual
    way in.  The package's own builders (`make_spectrum` after its checks,
    tensor products and powers, `maximally_entangled`, the catalyst grid)
    produce the invariants by construction and skip this validation.
    """

    entries: tuple[tuple[Fraction, int], ...]
    dim: int

    def __post_init__(self):
        if not self.entries:
            raise ValueError("spectrum must have at least one entry")
        total = Fraction(0)
        previous = None
        count = 0
        for value, mult in self.entries:
            if not (0 < value <= 1):
                raise ValueError(f"value {value} outside (0, 1]")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} must be positive")
            if previous is not None and value >= previous:
                raise ValueError("values must be strictly descending")
            previous = value
            total += value * mult
            count += mult
        if total != 1:
            raise SumNotOne(total)
        if count != self.dim:
            raise ValueError(f"dim {self.dim} != sum of multiplicities {count}")

    @property
    def largest(self) -> Fraction:
        return self.entries[0][0]

    @property
    def smallest(self) -> Fraction:
        return self.entries[-1][0]

    def expand(self) -> tuple[Fraction, ...]:
        """Dense descending value list, each value repeated by multiplicity."""
        return tuple(v for v, m in self.entries for _ in range(m))

    def __repr__(self):
        runs = ", ".join(f"{v}x{m}" for v, m in self.entries)
        return f"SchmidtSpectrum(dim={self.dim}: {runs})"


def _trusted_spectrum(
    entries: tuple[tuple[Fraction, int], ...], dim: int
) -> SchmidtSpectrum:
    """Spectrum whose invariants the caller guarantees; skips validation."""
    spectrum = object.__new__(SchmidtSpectrum)
    object.__setattr__(spectrum, "entries", entries)
    object.__setattr__(spectrum, "dim", dim)
    return spectrum


def _from_value_mults(mapping: dict[Fraction, int]) -> SchmidtSpectrum:
    """Build a spectrum from a value -> multiplicity accumulator whose
    positive values, weighted by their multiplicities, sum to exactly 1."""
    entries = tuple(sorted(mapping.items(), key=lambda item: item[0], reverse=True))
    return _trusted_spectrum(entries, sum(mapping.values()))


def make_spectrum(probs: Iterable[CoefficientLike]) -> SchmidtSpectrum:
    """Canonicalize a probability list into a compressed spectrum.

    Sorts descending, merges equal values into multiplicities, and strips
    zeros (the original padded length is deliberately not kept).  Raises
    NegativeEntry for negative input and SumNotOne when the exact sum
    differs from 1.
    """
    values = [as_rational(p) for p in probs]
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
    return _from_value_mults(merged)


def tensor_product(a: SchmidtSpectrum, b: SchmidtSpectrum) -> SchmidtSpectrum:
    """Spectrum of the joint state: all pairwise products, merged."""
    acc: dict[Fraction, int] = {}
    for va, ma in a.entries:
        for vb, mb in b.entries:
            value = va * vb
            acc[value] = acc.get(value, 0) + ma * mb
    return _from_value_mults(acc)


def _multinomial(k: int, counts) -> int:
    result = math.factorial(k)
    for c in counts:
        result //= math.factorial(c)
    return result


def tensor_power(
    a: SchmidtSpectrum, k: int, *, mem_cap: int | None = None
) -> SchmidtSpectrum:
    """Compressed spectrum of k copies of a state.

    Runs a multinomial expansion over the *distinct* base values: a
    composition (c_1..c_m) of k over the m distinct values contributes
    the product of v_i**c_i with multiplicity
    multinomial(k; c_1..c_m) * prod(mult_i**c_i), and equal products from
    different compositions are merged afterwards.  Compositions are
    enumerated as multisets of value indices (one index per copy).  Their
    count, C(k+m-1, m-1), upper-bounds the distinct output entries; if it
    exceeds the memory cap the call fails up front with MemoryCapExceeded
    instead of thrashing.
    """
    if k < 1:
        raise ValueError(f"copy count must be >= 1, got {k}")
    cap = default_memory_cap() if mem_cap is None else mem_cap
    m = len(a.entries)
    estimated = math.comb(k + m - 1, m - 1)
    if estimated > cap:
        raise MemoryCapExceeded(estimated, cap)
    acc: dict[Fraction, int] = {}
    for combo in itertools.combinations_with_replacement(range(m), k):
        counts = Counter(combo)
        value = Fraction(1)
        weight = _multinomial(k, counts.values())
        for index, c in counts.items():
            v, mult = a.entries[index]
            value *= v**c
            weight *= mult**c
        acc[value] = acc.get(value, 0) + weight
    return _from_value_mults(acc)


def tensor_power_dense(
    a: SchmidtSpectrum, k: int, *, cap: int | None = None
) -> SchmidtSpectrum:
    """Test oracle: the k-copy spectrum by naive enumeration.

    Enumerates all dim**k products of expanded values and merges.  Exists
    solely as an independent check on `tensor_power`; capped (default
    10**6 products) because it is deliberately exponential.
    """
    if k < 1:
        raise ValueError(f"copy count must be >= 1, got {k}")
    cap = DEFAULT_ORACLE_CAP if cap is None else cap
    requested = a.dim**k
    if requested > cap:
        raise OracleCapExceeded(requested, cap)
    acc: dict[Fraction, int] = {}
    for combo in itertools.product(a.expand(), repeat=k):
        value = math.prod(combo, start=Fraction(1))
        acc[value] = acc.get(value, 0) + 1
    return _from_value_mults(acc)


def maximally_entangled(d: int) -> SchmidtSpectrum:
    """Uniform spectrum (1/d, ..., 1/d) of rank d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return _trusted_spectrum(((Fraction(1, d), d),), d)


def entropy(a: SchmidtSpectrum) -> float:
    """Entropy of entanglement in bits: -sum p log2 p over the spectrum.

    The one deliberately floating-point quantity in the toolkit; it feeds
    asymptotic-rate comparisons, not exact decisions.
    """
    return -sum(m * float(v) * math.log2(float(v)) for v, m in a.entries)
