"""Acceptance gate: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked "oracle" were recorded from dense
brute-force evaluation (full product enumeration, full per-prefix scans)
before the compressed implementation existed, and are frozen here.
"""

import random
from fractions import Fraction as F

from locc_lab import (
    Comparability,
    Obstruction,
    PairKind,
    catalyzes,
    classify_pair,
    compare,
    conjecture_scan,
    entropy,
    find_min_deterministic_k,
    majorized_by,
    make_spectrum,
    maximally_entangled,
    obstruction,
    pmax_scan,
    search_catalyst,
    tensor_power,
    tensor_product,
    vidal_pmax,
)
from locc_lab.catalysis import CatalystSearchConfig
from conftest import random_spectrum
from oracles import majorized_by_dense, tensor_power_dense, vidal_pmax_dense


def report(criterion: int, text: str):
    print(f"acceptance criterion {criterion}: PASS - {text}")


def test_criterion_1_single_copy_pair_and_two_copy_determinism(cat):
    assert compare(cat["eq2"], cat["eq3"]) is Comparability.INCOMPARABLE
    two_a = tensor_power(cat["eq2"], 2)
    two_b = tensor_power(cat["eq3"], 2)
    assert two_a == cat["eq4"]            # all 16 values, exact
    assert sum(m for _, m in two_a.entries) == 16
    assert two_b == cat["eq5"]            # the 9 nonzero values, exact
    assert two_b.dim == 9
    assert majorized_by(two_a, two_b)
    got = classify_pair(cat["eq2"], cat["eq3"], 8)
    assert got.kind is PairKind.K_COPY_INCOMPARABLE and got.k == 1
    report(1, "eq2/eq3 incomparable, two-copy vectors exact, deterministic at 2")


def test_criterion_2_conversion_percentages_and_minimal_k(cat):
    p1 = vidal_pmax(cat["eq6"], cat["eq7"])
    p2 = vidal_pmax(tensor_power(cat["eq6"], 2), tensor_power(cat["eq7"], 2))
    assert p1 == F(20, 23)  # oracle
    assert p2 == F(72, 73)  # oracle
    assert round(100 * p1) == 87
    assert round(100 * p2) == 99
    assert find_min_deterministic_k(cat["eq6"], cat["eq7"], 8) == 3
    report(2, "eq6->eq7 rounds to 87% / 99%, deterministic at 3 copies")


def test_criterion_3_five_copy_incomparable_pair(cat):
    assert find_min_deterministic_k(cat["eq8"], cat["eq9"], 8) == 6
    for n in range(1, 6):
        assert not majorized_by(
            tensor_power(cat["eq8"], n), tensor_power(cat["eq9"], n)
        )
    report(3, "eq8/eq9 fails through 5 copies, deterministic at 6")


def test_criterion_4_strong_incomparability_and_decay(cat):
    zeta, omega = cat["eq12"], cat["eq13"]
    assert vidal_pmax(zeta, omega) == F(4, 5)
    scan = pmax_scan(zeta, omega, 6)
    for row in scan.rows:
        assert row.pmax <= F(4, 5) ** row.k
    got = classify_pair(zeta, omega, 8)
    assert got.kind is PairKind.STRONGLY_INCOMPARABLE
    assert abs(entropy(omega) - 1.5) < 1e-12
    assert entropy(zeta) > entropy(omega)
    report(4, "eq12->eq13 pmax 4/5, decay bound holds, strongly incomparable")


def test_criterion_5_non_monotone_scan(cat):
    scan = pmax_scan(cat["eq13"], cat["eq12"], 6)
    p = {row.k: row.pmax for row in scan.rows}
    assert p[1] == F(5, 6)  # oracle
    assert scan.argmax_k() == 3
    assert p[2] < p[3] > p[4]
    report(5, "eq13->eq12 peaks at k=3 with p2 < p3 > p4")


def test_criterion_6_catalysis(cat):
    chi = make_spectrum((F(3, 5), F(2, 5)))
    assert catalyzes(cat["eq2"], cat["eq3"], chi)
    cfg = CatalystSearchConfig(min_dim=2, max_dim=2, grid_denominator=10)
    found = search_catalyst(cat["eq2"], cat["eq3"], cfg)
    assert found is not None
    assert catalyzes(cat["eq2"], cat["eq3"], found)
    assert obstruction(cat["eq12"], cat["eq13"]) == Obstruction()  # short-circuit fires
    assert search_catalyst(cat["eq12"], cat["eq13"]) is None
    report(6, "chi verified, search finds a valid catalyst, impossible pair pruned")


def test_criterion_7_oracle_equivalence_500_random_spectra():
    rng = random.Random(20260809)
    for _ in range(500):
        s = random_spectrum(rng, max_dim=5)
        k = rng.randint(1, 3)
        assert tensor_power(s, k) == tensor_power_dense(s, k)
        x = random_spectrum(rng, max_dim=5)
        y = random_spectrum(rng, max_dim=5)
        assert majorized_by(x, y) == majorized_by_dense(x, y)
        assert vidal_pmax(x, y) == vidal_pmax_dense(x, y)
        xk, yk = tensor_power(x, k), tensor_power(y, k)
        assert majorized_by(xk, yk) == majorized_by_dense(xk, yk)
        assert vidal_pmax(xk, yk) == vidal_pmax_dense(xk, yk)
    report(7, "500 random spectra: compressed == dense, exactly")


def test_criterion_8_majorization_lattice_laws_1000_pairs():
    rng = random.Random(11235813)
    monotone_checked = 0
    for _ in range(1000):
        a = random_spectrum(rng, max_dim=6)
        b = random_spectrum(rng, max_dim=6)
        assert majorized_by(a, a) and majorized_by(b, b)
        if majorized_by(a, b) and majorized_by(b, a):
            assert a == b
        assert majorized_by(maximally_entangled(a.dim), a)
        if majorized_by(a, b):
            c = random_spectrum(rng, max_dim=3)
            assert majorized_by(tensor_product(a, c), tensor_product(b, c))
            monotone_checked += 1
        assert (vidal_pmax(a, b) == 1) == majorized_by(a, b)
    assert monotone_checked > 50
    report(8, f"1000 random pairs obey the lattice laws "
              f"({monotone_checked} exercised tensor-monotonicity)")


def test_criterion_9_three_by_three_incomparable_pairs_are_strong():
    rng = random.Random(333)
    flagged = 0
    attempts = 0
    while flagged < 1000:
        attempts += 1
        assert attempts < 100_000
        a = random_spectrum(rng, max_dim=3, min_dim=3)
        b = random_spectrum(rng, max_dim=3, min_dim=3)
        if compare(a, b) is not Comparability.INCOMPARABLE:
            continue
        flagged += 1
        assert classify_pair(a, b).kind is PairKind.STRONGLY_INCOMPARABLE
    report(9, f"1000 incomparable 3x3 pairs all carry a strictness witness "
              f"(from {attempts} draws)")


def test_criterion_10_conjecture_evidence(cat):
    got = conjecture_scan(cat["eq2"], cat["eq3"], 1, 5)
    assert got == ((3, True), (4, True), (5, True))
    doc = conjecture_scan.__doc__
    assert "EVIDENCE" in doc and "never a proof" in doc
    report(10, "determinism persists at n=3,4,5 (evidence only)")
