"""Bundled example states.

A small catalog of states exercising every behaviour the toolkit decides:
a single-copy-incomparable pair that becomes deterministic with two copies
(eq2/eq3, with its two-copy spectra eq4/eq5 and a working catalyst chi), a
pair needing three copies (eq6/eq7), one needing six (eq8/eq9), and a
strongly incomparable pair (eq12/eq13).  The names are the labels used
throughout the documentation and test suite.

Coefficients are stored as the original decimal strings and parsed
exactly; a regression test pins the digits with a checksum.  All entries
are probabilities (squared Schmidt coefficients), already normalized.
"""

from __future__ import annotations

from .spectrum import SchmidtSpectrum, make_spectrum

CATALOG: dict[str, tuple[str, ...]] = {
    # 4x4 vs 3x3: incomparable, deterministic with two copies.
    "eq2": ("0.4", "0.36", "0.14", "0.1"),
    "eq3": ("0.5", "0.25", "0.25"),
    # Their two-copy spectra, dense (eq5 keeps its padding zeros).
    "eq4": (
        ".16", ".144", ".144", ".1296", ".056", ".056", ".0504", ".0504",
        ".04", ".04", ".036", ".036", ".0196", ".014", ".014", ".01",
    ),
    "eq5": (
        ".25", ".125", ".125", ".125", ".125", ".0625", ".0625", ".0625",
        ".0625", "0", "0", "0", "0", "0", "0", "0",
    ),
    # Incomparable until three copies.
    "eq6": ("0.4", "0.4", "0.1", "0.1"),
    "eq7": ("0.5", "0.27", "0.23"),
    # Incomparable until six copies.
    "eq8": ("0.4", "0.4", "0.1", "0.1"),
    "eq9": ("0.48", "0.27", "0.25"),
    # Strongly incomparable 3x3 pair; the source has the larger entropy.
    "eq12": ("0.4", "0.4", "0.2"),
    "eq13": ("0.5", "0.25", "0.25"),
    # Rank-2 catalyst for the eq2 -> eq3 conversion.
    "chi": ("0.6", "0.4"),
}


def load_fixture(name: str) -> SchmidtSpectrum:
    """Catalog entry as a spectrum (zeros stripped, multiplicities merged)."""
    try:
        coefficients = CATALOG[name]
    except KeyError:
        known = ", ".join(CATALOG)
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}") from None
    return make_spectrum(coefficients)
