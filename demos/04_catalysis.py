#!/usr/bin/env python3
"""Entanglement catalysis: borrowed entanglement that unlocks a conversion.

The pair eq2/eq3 is incomparable copy-by-copy, yet tensoring BOTH sides
with a suitable rank-2 state chi makes the majorization go through: the
conversion consumes nothing of chi, which is returned intact.  This script
verifies the classic catalyst (0.6, 0.4), then finds catalysts by
exhaustive search over an exact rational grid, and shows the exact
obstruction test that rejects non-catalyzable pairs without touching the
grid.
"""

from locc_lab import (
    CatalystSearchConfig,
    catalyzes,
    grid_candidates,
    load_fixture,
    majorized_by,
    make_spectrum,
    obstruction,
    search_catalyst,
    tensor_product,
)

psi, phi = load_fixture("eq2"), load_fixture("eq3")
chi = load_fixture("chi")

print("bare pair majorized:", majorized_by(psi, phi))
print("with catalyst chi =", chi)
print("  psi (x) chi:", tensor_product(psi, chi))
print("  phi (x) chi:", tensor_product(phi, chi))
print("  majorized:", catalyzes(psi, phi, chi))
print()

cfg = CatalystSearchConfig(min_dim=2, max_dim=2, grid_denominator=10)
print(f"searching rank-2 catalysts on the 1/{cfg.grid_denominator} grid,")
print("flattest distributions first:")
for candidate in grid_candidates(cfg):
    verdict = "catalyzes!" if catalyzes(psi, phi, candidate) else "no"
    print(f"  {tuple(str(v) for v in candidate.expand())}: {verdict}")
print("first hit:", search_catalyst(psi, phi, cfg))
print()

print("A finer default grid (1/20, ranks 2..4) finds an even flatter one:")
print("  ", search_catalyst(psi, phi))
print()

zeta, omega = load_fixture("eq12"), load_fixture("eq13")
print("For the strongly incomparable pair eq12/eq13 the search refuses")
print("to enumerate at all - the extreme-coefficient test already rules")
print("out every catalyst at every copy count:")
print("  search_catalyst(eq12, eq13) ->", search_catalyst(zeta, omega))
print()
print("The exact power-sum test prunes more pairs the same way: for")
print("eq8 = (.4,.4,.1,.1) and (.4,.3,.3) the sums of squares tie, but the")
print("sums of cubes do not, so no catalyst of any rank exists:")
rho = make_spectrum(["0.4", "0.3", "0.3"])
print("  obstruction(eq8, rho) ->", obstruction(load_fixture("eq8"), rho))
print()
print("A 'none' without an obstruction only ever means 'none at this grid")
print("resolution'; it is never a nonexistence proof.")
