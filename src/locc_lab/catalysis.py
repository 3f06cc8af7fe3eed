"""Entanglement catalysis: verify and search for catalyst states.

A catalyst is a borrowed entangled state that makes an otherwise
impossible deterministic conversion possible and is returned intact:
source (x) catalyst majorized by target (x) catalyst even though the bare
pair is incomparable.  Verification is a single majorization check; the
search enumerates candidate spectra on an exact rational grid, so every
hit is a certificate.  An exact obstruction test runs first, and when it
fires no catalyst exists at all; otherwise "none" is a statement about the
grid resolution, never a nonexistence proof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .majorization import majorized_by
from .multicopy import obstruction
from .spectrum import (
    InputError,
    SchmidtSpectrum,
    _trusted_spectrum,
    tensor_power,
    tensor_product,
)


@dataclass(frozen=True)
class CatalystSearchConfig:
    """Search space: catalyst ranks min_dim..max_dim inclusive, candidate
    values multiples of 1/grid_denominator, catalysis checked on the
    copies-fold pair.  Rank-1 catalysts are excluded (tensoring with a
    product state changes nothing), and the grid must be fine enough to
    hold an ordered distribution of the largest rank."""

    min_dim: int = 2
    max_dim: int = 4
    grid_denominator: int = 20
    copies: int = 1

    def __post_init__(self):
        if self.min_dim < 2:
            raise InputError("catalyst rank below 2 is trivial and never helps")
        if self.max_dim < self.min_dim:
            raise InputError("max_dim must be >= min_dim")
        if self.grid_denominator < self.max_dim:
            raise InputError("grid denominator must be >= the largest rank")
        if self.copies < 1:
            raise InputError("copies must be >= 1")


def catalyzes(
    source: SchmidtSpectrum, target: SchmidtSpectrum, catalyst: SchmidtSpectrum
) -> bool:
    """True iff borrowing the catalyst makes source -> target deterministic."""
    return majorized_by(
        tensor_product(source, catalyst), tensor_product(target, catalyst)
    )


def _descending_compositions(
    total: int, parts: int, cap: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Non-increasing positive integer tuples of given length summing to
    `total`, in ascending lexicographic order (flattest first)."""
    if parts == 1:
        if cap is None or total <= cap:
            yield (total,)
        return
    lowest = -(-total // parts)  # ceil: keep room for the non-increasing tail
    highest = total - (parts - 1)
    if cap is not None:
        highest = min(highest, cap)
    for first in range(lowest, highest + 1):
        for rest in _descending_compositions(total - first, parts - 1, first):
            yield (first,) + rest


def grid_candidates(cfg: CatalystSearchConfig) -> Iterator[SchmidtSpectrum]:
    """All candidate catalysts of the configured grid, in search order:
    ranks ascending, and within a rank the ordered distributions
    (v1 >= ... >= vc > 0, sum 1, multiples of 1/q) flattest first."""
    q = cfg.grid_denominator
    for rank in range(cfg.min_dim, cfg.max_dim + 1):
        for parts in _descending_compositions(q, rank):
            runs = tuple(
                (Fraction(p, q), len(list(group)))
                for p, group in itertools.groupby(parts)
            )
            yield _trusted_spectrum(runs, rank)


def search_catalyst(
    source: SchmidtSpectrum,
    target: SchmidtSpectrum,
    cfg: CatalystSearchConfig | None = None,
) -> SchmidtSpectrum | None:
    """First grid candidate that catalyzes the copies-fold pair, or None.

    `obstruction` rules out catalyzed conversions too, so a pair it
    obstructs is rejected without touching the grid, and that None is
    exact: no catalyst of any rank exists.  Checking the single-copy pair
    is equivalent to checking the k-copy pair, because extremes and power
    sums of a tensor power are powers of those of the base.  A None after
    enumeration means nothing was found at this grid resolution - finer
    grids or larger ranks may still succeed.
    """
    cfg = CatalystSearchConfig() if cfg is None else cfg
    if obstruction(source, target) is not None:
        return None
    powered_source = tensor_power(source, cfg.copies)
    powered_target = tensor_power(target, cfg.copies)
    for candidate in grid_candidates(cfg):
        if catalyzes(powered_source, powered_target, candidate):
            return candidate
    return None
