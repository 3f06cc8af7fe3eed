"""Majorization, deterministic convertibility, conclusive probabilities."""

import random
from fractions import Fraction as F

import pytest

from locc_lab import (
    Comparability,
    SchmidtSpectrum,
    catalyzes,
    compare,
    majorized_by,
    make_spectrum,
    maximally_entangled,
    tensor_power,
    tensor_product,
    vidal_pmax,
)
from conftest import random_spectrum
from oracles import majorized_by_dense, vidal_pmax_dense


class TestMajorizedBy:
    def test_uniform_is_majorized_by_everything(self, cat):
        u4 = maximally_entangled(4)
        assert majorized_by(u4, cat["eq2"])
        assert majorized_by(u4, cat["eq6"])
        assert majorized_by(u4, u4)

    def test_two_copy_vectors(self, cat):
        assert majorized_by(cat["eq4"], cat["eq5"])

    def test_incomparable_pair_fails_both_ways(self, cat):
        assert not majorized_by(cat["eq2"], cat["eq3"])
        assert not majorized_by(cat["eq3"], cat["eq2"])

    def test_rank_mismatch_padding(self, cat):
        # a lower-rank spectrum saturates its prefix sums first
        assert not majorized_by(cat["eq3"], cat["eq2"])
        assert majorized_by(maximally_entangled(4), make_spectrum((F(1, 2), F(1, 2))))

    def test_reflexive(self, cat):
        for s in cat.values():
            assert majorized_by(s, s)

    def test_breakpoints_match_dense_scan(self, cat):
        rng = random.Random(31337)
        for _ in range(150):
            x = random_spectrum(rng, max_dim=6)
            y = random_spectrum(rng, max_dim=6)
            assert majorized_by(x, y) == majorized_by_dense(x, y)
            assert majorized_by(y, x) == majorized_by_dense(y, x)

    def test_breakpoints_match_dense_scan_on_powers(self, cat):
        rng = random.Random(4242)
        for _ in range(25):
            x = random_spectrum(rng, max_dim=4)
            y = random_spectrum(rng, max_dim=4)
            k = rng.randint(2, 3)
            xk, yk = tensor_power(x, k), tensor_power(y, k)
            assert majorized_by(xk, yk) == majorized_by_dense(xk, yk)

    def test_antisymmetry_means_equality(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_spectrum(rng, max_dim=5)
            b = random_spectrum(rng, max_dim=5)
            if majorized_by(a, b) and majorized_by(b, a):
                assert a == b
        # permuted inputs canonicalize to the same spectrum
        a = make_spectrum((F(1, 6), F(1, 2), F(1, 3)))
        b = make_spectrum((F(1, 2), F(1, 3), F(1, 6)))
        assert majorized_by(a, b) and majorized_by(b, a) and a == b

    def test_transitive_on_random_triples(self):
        rng = random.Random(23)
        seen = 0
        for _ in range(2000):
            a, b, c = (random_spectrum(rng, max_dim=6) for _ in range(3))
            if majorized_by(a, b) and majorized_by(b, c):
                seen += 1
                assert majorized_by(a, c)
        assert seen > 10  # the law was actually exercised

    def test_tensoring_preserves_majorization(self):
        rng = random.Random(57)
        seen = 0
        for _ in range(400):
            a = random_spectrum(rng, max_dim=5)
            b = random_spectrum(rng, max_dim=5)
            if not majorized_by(a, b):
                continue
            seen += 1
            c = random_spectrum(rng, max_dim=4)
            assert majorized_by(tensor_product(a, c), tensor_product(b, c))
        assert seen > 20


class TestNielsen:
    def test_uniform_converts_to_anything(self, cat):
        assert majorized_by(maximally_entangled(3), cat["eq3"])

    def test_three_copies_become_deterministic(self, cat):
        s3 = tensor_power(cat["eq6"], 3)
        t3 = tensor_power(cat["eq7"], 3)
        assert majorized_by(s3, t3)

    def test_single_copies_incomparable(self, cat):
        assert not majorized_by(cat["eq8"], cat["eq9"])
        assert not majorized_by(cat["eq9"], cat["eq8"])


class TestVidalPmax:
    def test_three_copy_pair_single_copy_value(self, cat):
        assert vidal_pmax(cat["eq6"], cat["eq7"]) == F(20, 23)

    def test_identity_conversion(self, cat):
        for s in cat.values():
            assert vidal_pmax(s, s) == 1

    def test_strongly_incomparable_pair(self, cat):
        assert vidal_pmax(cat["eq12"], cat["eq13"]) == F(4, 5)

    def test_rank_deficient_source_is_impossible(self, cat):
        assert vidal_pmax(cat["eq3"], cat["eq2"]) == 0

    def test_conversion_to_mes_is_dim_times_smallest(self, cat):
        for s in (cat["eq3"], cat["eq7"], cat["eq12"], cat["eq13"]):
            d = s.dim
            assert vidal_pmax(s, maximally_entangled(d)) == d * s.smallest

    def test_breakpoints_match_dense_scan(self):
        rng = random.Random(808)
        for _ in range(150):
            a = random_spectrum(rng, max_dim=6)
            b = random_spectrum(rng, max_dim=6)
            assert vidal_pmax(a, b) == vidal_pmax_dense(a, b)

    def test_breakpoints_match_dense_scan_on_powers(self):
        rng = random.Random(909)
        for _ in range(25):
            a = random_spectrum(rng, max_dim=4)
            b = random_spectrum(rng, max_dim=4)
            k = rng.randint(2, 3)
            ak, bk = tensor_power(a, k), tensor_power(b, k)
            assert vidal_pmax(ak, bk) == vidal_pmax_dense(ak, bk)

    def test_probability_one_iff_deterministic(self):
        rng = random.Random(65537)
        for _ in range(300):
            a = random_spectrum(rng, max_dim=6)
            b = random_spectrum(rng, max_dim=6)
            assert (vidal_pmax(a, b) == 1) == majorized_by(a, b)


def _unreadable(name):
    def read(self):
        raise AssertionError(f"SchmidtSpectrum.{name} was read")

    return property(read)


class TestIntegerSweep:
    """The sweeps read the integer runs: majorization never builds the
    `Fraction` view `entries` nor sums `dim`, and Vidal's sweep never
    builds `entries`."""

    PAIRS = (("eq2", "eq3"), ("eq4", "eq5"), ("eq6", "eq7"), ("eq8", "eq9"), ("eq12", "eq13"))

    def test_majorization_reads_only_the_runs(self, cat, monkeypatch):
        pairs = [(cat[a], cat[b]) for a, b in self.PAIRS]
        expected = [(majorized_by_dense(x, y), majorized_by_dense(y, x)) for x, y in pairs]
        monkeypatch.setattr(SchmidtSpectrum, "entries", _unreadable("entries"))
        monkeypatch.setattr(SchmidtSpectrum, "dim", _unreadable("dim"))
        assert [(majorized_by(x, y), majorized_by(y, x)) for x, y in pairs] == expected
        assert catalyzes(cat["eq2"], cat["eq3"], cat["chi"])
        assert not catalyzes(cat["eq12"], cat["eq13"], cat["chi"])
        with pytest.raises(AssertionError, match="dim"):
            cat["eq2"].dim

    def test_vidal_reads_no_fractions(self, cat, monkeypatch):
        pairs = [(cat[a], cat[b]) for a, b in self.PAIRS]
        expected = [(vidal_pmax_dense(x, y), vidal_pmax_dense(y, x)) for x, y in pairs]
        monkeypatch.setattr(SchmidtSpectrum, "entries", _unreadable("entries"))
        assert [(vidal_pmax(x, y), vidal_pmax(y, x)) for x, y in pairs] == expected


class TestCompare:
    def test_incomparable(self, cat):
        assert compare(cat["eq2"], cat["eq3"]) is Comparability.INCOMPARABLE

    def test_one_directional(self, cat):
        assert compare(maximally_entangled(3), cat["eq3"]) is Comparability.SOURCE_TO_TARGET
        assert compare(cat["eq3"], maximally_entangled(3)) is Comparability.TARGET_TO_SOURCE

    def test_equivalent(self, cat):
        assert compare(cat["eq7"], cat["eq7"]) is Comparability.EQUIVALENT
        assert compare(cat["eq3"], cat["eq13"]) is Comparability.EQUIVALENT
