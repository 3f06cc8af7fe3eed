#!/usr/bin/env python3
"""The many-copy taxonomy of incomparable pairs.

An incomparable pair can be:
  * k-copy incomparable - stuck for n <= k copies, deterministic (one way)
    at n = k+1;
  * strongly incomparable - no copy count and no catalyst ever gives a
    deterministic conversion in either direction (certified here by the
    extreme-coefficient test failing both ways);
  * undecided - nothing fired within the copy-count budget; an honest
    outcome, because no terminating decision procedure is known for
    "incomparable at every k".

This script classifies the bundled pairs and pokes at the exact
obstruction test doing the heavy lifting.
"""

from locc_lab import (
    PairKind,
    classify_pair,
    find_min_deterministic_k,
    load_fixture,
    obstruction,
)

PAIRS = [("eq2", "eq3"), ("eq6", "eq7"), ("eq8", "eq9"), ("eq12", "eq13")]

for name_a, name_b in PAIRS:
    a, b = load_fixture(name_a), load_fixture(name_b)
    got = classify_pair(a, b, k_max=8)
    print(f"{name_a} vs {name_b}:")
    if got.kind is PairKind.K_COPY_INCOMPARABLE:
        print(f"  {got.k}-copy incomparable: both directions stuck for "
              f"n <= {got.k}, deterministic at n = {got.k + 1} "
              f"({got.direction.value})")
    elif got.kind is PairKind.STRONGLY_INCOMPARABLE:
        forward, backward = got.witness
        print(f"  strongly incomparable ({forward} fails {name_a} -> {name_b} "
              f"and {backward} fails {name_b} -> {name_a})")
    else:
        print(f"  {got.kind.value}")
    print()

print("Why eq12/eq13 is hopeless at any copy count:")
zeta, omega = load_fixture("eq12"), load_fixture("eq13")
print("  largest:", zeta.largest, "vs", omega.largest)
print("  smallest:", zeta.smallest, "vs", omega.smallest)
print("  obstruction source->target:", obstruction(zeta, omega))
print("  obstruction target->source:", obstruction(omega, zeta))
print()
print("Both extremes strictly smaller means the extreme test fails in both")
print("directions for every tensor power and every catalyst, so the pair")
print("can only ever be converted conclusively, never deterministically.")
print()

print("For contrast, the pair that needs six copies:")
print("  minimal deterministic n for eq8 -> eq9:",
      find_min_deterministic_k(load_fixture("eq8"), load_fixture("eq9"), 8))
