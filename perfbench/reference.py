"""Exact dense reference for the benchmark's answer checks.

Everything here works on plain descending tuples of ``Fraction``
probabilities that the workload generators produced themselves, and never
calls into ``locc_lab``: the checks must stay valid when the package's own
test oracles move or change.  Many-copy questions are answered on the
fully expanded vector, held as integer numerators over one common
denominator (a "vector" below), so every comparison is an exact integer
comparison.  Callers only expand where ``dim**k <= DENSE_CAP``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

#: Largest dense vector the checks will build.
DENSE_CAP = 5_000

Probs = tuple  # descending tuple of positive Fractions summing to 1
Vector = tuple  # (descending integer numerators, common denominator)


def normalized(values) -> Probs:
    """Descending tuple of the nonzero entries; the sum must be exactly 1."""
    out = tuple(sorted((Fraction(v) for v in values if v != 0), reverse=True))
    if sum(out) != 1 or any(v < 0 for v in out):
        raise ValueError("not a probability vector")
    return out


def fits(dim: int, k: int) -> bool:
    """True when k copies of a rank-dim state expand to at most DENSE_CAP entries."""
    return dim**k <= DENSE_CAP


def vector(x: Probs) -> Vector:
    den = math.lcm(*(v.denominator for v in x))
    return tuple(v.numerator * (den // v.denominator) for v in x), den


@lru_cache(maxsize=64)
def power(x: Probs, k: int) -> Vector:
    """The dim**k products of k copies, descending, as a vector."""
    if k == 1:
        return vector(x)
    return kron(power(x, k - 1), vector(x))


def kron(x: Vector, y: Vector) -> Vector:
    """All pairwise products, descending."""
    return tuple(sorted((a * b for a in x[0] for b in y[0]), reverse=True)), x[1] * y[1]


def majorized(x: Vector, y: Vector) -> bool:
    """Every prefix sum of x is at most that of y (zero-padded)."""
    (xs, dx), (ys, dy) = x, y
    sx = sy = 0
    for i in range(max(len(xs), len(ys))):
        sx += xs[i] if i < len(xs) else 0
        sy += ys[i] if i < len(ys) else 0
        if sx * dy > sy * dx:
            return False
    return True


def pmax(x: Vector, y: Vector) -> Fraction:
    """Vidal's minimum over every prefix of the tail-sum ratio."""
    (xs, dx), (ys, dy) = x, y
    if len(xs) < len(ys):
        return Fraction(0)
    best = (1, 1)  # the l = 1 ratio, as (numerator, denominator)
    tx, ty = dx, dy  # tails scaled by their own denominators
    for i in range(len(ys) - 1):
        tx -= xs[i]
        ty -= ys[i]
        if tx * dy * best[1] < best[0] * ty * dx:
            best = (tx * dy, ty * dx)
    return Fraction(*best)


def catalyzes(x: Vector, y: Vector, c: Vector) -> bool:
    return majorized(kron(x, c), kron(y, c))


def relation(x: Probs, y: Probs) -> str:
    """Single-copy relation, named as ``Comparability`` values are."""
    if x == y:
        return "equivalent"
    if majorized(vector(x), vector(y)):
        return "source->target"
    if majorized(vector(y), vector(x)):
        return "target->source"
    return "incomparable"


def extremes(x: Probs, y: Probs):
    """(x1, y1, xd, yd) after zero-padding to the common rank."""
    top = max(len(x), len(y))
    xd = x[-1] if len(x) == top else Fraction(0)
    yd = y[-1] if len(y) == top else Fraction(0)
    return x[0], y[0], xd, yd


def necessary(x: Probs, y: Probs) -> bool:
    """Extreme-coefficient condition every many-copy or catalysed x -> y obeys."""
    x1, y1, xd, yd = extremes(x, y)
    return x1 <= y1 and xd >= yd


def strong(x: Probs, y: Probs) -> bool:
    """Strict extreme pattern that rules out both directions for good."""
    x1, y1, xd, yd = extremes(x, y)
    return (x1 < y1 and xd < yd) or (x1 > y1 and xd > yd)


def decay_base(x: Probs, y: Probs):
    """Base of the pmax decay bound for x -> y, or None outside its regime."""
    _, _, xd, yd = extremes(x, y)
    return xd / yd if xd < yd else None


def deterministic_at(x: Probs, y: Probs, n: int) -> bool | None:
    """Whether n copies convert x -> y, or None when too large to expand."""
    if not fits(max(len(x), len(y)), n):
        return None
    return majorized(power(x, n), power(y, n))


def min_k(x: Probs, y: Probs) -> int | None:
    """Smallest n whose n copies convert x -> y, among the n small enough
    to expand; None if there is none."""
    n = 1
    while fits(max(len(x), len(y)), n):
        if majorized(power(x, n), power(y, n)):
            return n
        n += 1
    return None


def pmax_at(x: Probs, y: Probs, n: int) -> Fraction | None:
    """Optimal n-copy conclusive probability, or None when too large to expand."""
    if not fits(max(len(x), len(y)), n):
        return None
    return pmax(power(x, n), power(y, n))


def entropy(x: Probs) -> float:
    return -sum(float(v) * math.log2(float(v)) for v in x)


@lru_cache(maxsize=None)
def _partitions(total: int, parts: int, cap: int) -> int:
    """Partitions of total into exactly `parts` positive parts, each <= cap."""
    if parts == 0:
        return 1 if total == 0 else 0
    return sum(
        _partitions(total - first, parts - 1, first)
        for first in range(max(1, -(-total // parts)), min(cap, total - parts + 1) + 1)
    )


def grid_size(q: int, min_dim: int, max_dim: int) -> int:
    """Candidates of a catalyst grid: partitions of q into min_dim..max_dim parts."""
    return sum(_partitions(q, rank, q) for rank in range(min_dim, max_dim + 1))


def grid(q: int, min_dim: int, max_dim: int):
    """Every grid catalyst as a descending probability tuple (any order)."""

    def parts(total, count, cap):
        if count == 0:
            if total == 0:
                yield ()
            return
        for first in range(max(1, -(-total // count)), min(cap, total - count + 1) + 1):
            for rest in parts(total - first, count - 1, first):
                yield (first,) + rest

    for rank in range(min_dim, max_dim + 1):
        for p in parts(q, rank, q):
            yield tuple(Fraction(v, q) for v in p)
