"""Spectrum construction, tensor combinatorics, entropy."""

import math
import random
from fractions import Fraction as F

import pytest

from locc_lab import (
    InputError,
    MemoryCapExceeded,
    NegativeEntry,
    SchmidtSpectrum,
    SumNotOne,
    entropy,
    find_min_deterministic_k,
    make_spectrum,
    maximally_entangled,
    pmax_scan,
    tensor_power,
    tensor_product,
)
from conftest import random_spectrum
from oracles import OracleCapExceeded, tensor_power_dense


class TestAsRational:
    """How make_spectrum reads each coefficient as an exact rational."""

    def test_decimal_string_is_exact(self):
        assert make_spectrum(["0.36", "0.64"]).entries == ((F(16, 25), 1), (F(9, 25), 1))

    def test_float_literal_reads_as_shortest_decimal(self):
        assert make_spectrum([0.4, 0.6]).entries == ((F(3, 5), 1), (F(2, 5), 1))
        got = make_spectrum([0.1296, 0.8704]).entries
        assert got == ((F(8704, 10000), 1), (F(1296, 10000), 1))

    def test_fraction_and_int_pass_through(self):
        assert make_spectrum([F(3, 7), F(4, 7)]).entries == ((F(4, 7), 1), (F(3, 7), 1))
        assert make_spectrum([1, 0]).entries == ((F(1), 1),)


class TestMakeSpectrum:
    def test_four_by_four_example(self):
        s = make_spectrum(("0.4", "0.36", "0.14", "0.1"))
        assert s.entries == ((F(2, 5), 1), (F(9, 25), 1), (F(7, 50), 1), (F(1, 10), 1))
        assert s.dim == 4

    def test_sorts_merges_and_strips_zeros(self):
        s = make_spectrum((F(1, 4), F(1, 4), F(1, 2), 0))
        assert s.entries == ((F(1, 2), 1), (F(1, 4), 2))
        assert s.dim == 3

    def test_product_state(self):
        s = make_spectrum((1,))
        assert s.entries == ((F(1), 1),)
        assert s.dim == 1

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as err:
            make_spectrum((F(3, 2), F(-1, 2)))
        assert err.value.index == 1

    def test_sum_not_one_reports_exact_deficit(self):
        with pytest.raises(SumNotOne) as err:
            make_spectrum((F(1, 2), F(1, 3)))
        assert err.value.total == F(5, 6)
        assert err.value.deficit == F(1, 6)

    def test_round_trip_through_expand(self, cat):
        for s in cat.values():
            assert make_spectrum(s.expand()) == s

    def test_direct_construction_validates(self):
        built = SchmidtSpectrum(4, ((2, 1), (1, 2)))
        assert built == make_spectrum(["0.5", "0.25", "0.25"])
        assert built.dim == 3
        for denominator, runs, message in [
            (4, ((1, 2), (2, 1)), "strictly descending"),
            (4, ((2, 2),), "not the least one"),
            (4, ((2, 1), (1, 1)), "sum to 3"),
            (1, (), "at least one run"),
            (1, ((1, 1), (0, 1)), "numerator 0 must be positive"),
            (1, ((1, 0),), "multiplicity 0 must be positive"),
        ]:
            with pytest.raises(ValueError, match=message):
                SchmidtSpectrum(denominator, runs)

    def test_repr_shows_rank_and_runs(self):
        built = make_spectrum(["0.5", "0.25", "0.25"])
        assert repr(built) == "SchmidtSpectrum(dim=3: 1/2x1, 1/4x2)"


class TestTensorProduct:
    def test_uniform_times_uniform(self):
        u2 = maximally_entangled(2)
        assert tensor_product(u2, u2).entries == ((F(1, 4), 4),)

    def test_pairwise_products_sorted(self, cat):
        chi = make_spectrum((F(3, 5), F(2, 5)))
        got = tensor_product(cat["eq2"], chi)
        assert got.expand() == (
            F(6, 25), F(27, 125), F(4, 25), F(18, 125),
            F(21, 250), F(3, 50), F(7, 125), F(1, 25),
        )

    def test_two_copies_match_catalog_vector(self, cat):
        assert tensor_product(cat["eq2"], cat["eq2"]) == cat["eq4"]

    def test_commutative_and_associative(self, cat):
        a, b, c = cat["eq2"], cat["eq7"], cat["chi"]
        assert tensor_product(a, b) == tensor_product(b, a)
        assert tensor_product(tensor_product(a, b), c) == tensor_product(
            a, tensor_product(b, c)
        )

    def test_dim_multiplies(self, cat):
        assert tensor_product(cat["eq2"], cat["eq3"]).dim == 12

    def test_memory_cap(self, cat, monkeypatch):
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "8")
        assert tensor_product(cat["eq2"], cat["chi"]).dim == 8
        with pytest.raises(MemoryCapExceeded) as err:
            tensor_product(cat["eq2"], cat["eq7"])
        assert err.value.estimated == 4 * 3


class TestTensorPower:
    def test_two_value_cube(self):
        s = make_spectrum([F(2, 5)] * 2 + [F(1, 10)] * 2)
        got = tensor_power(s, 3)
        expected = tuple(
            (F(2, 5) ** i * F(1, 10) ** (3 - i), m)
            for i, m in ((3, 8), (2, 24), (1, 24), (0, 8))
        )
        assert got.entries == expected
        assert got.dim == 64

    def test_square_matches_catalog_vector(self, cat):
        assert tensor_power(cat["eq2"], 2) == cat["eq4"]
        assert tensor_power(cat["eq3"], 2) == cat["eq5"]

    def test_uniform_stays_uniform(self):
        assert tensor_power(maximally_entangled(3), 4).entries == ((F(1, 81), 81),)

    def test_power_splits_into_products(self, cat):
        s = cat["eq7"]
        assert tensor_power(s, 5) == tensor_product(tensor_power(s, 2), tensor_power(s, 3))

    def test_invalid_copy_count(self, cat):
        with pytest.raises(InputError, match="copy count must be >= 1, got 0"):
            tensor_power(cat["eq2"], 0)

    def test_memory_cap(self, cat, monkeypatch):
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "5")
        with pytest.raises(MemoryCapExceeded) as err:
            tensor_power(cat["eq2"], 2)
        assert err.value.estimated == math.comb(2 + 3, 3)

    def test_memory_cap_env_override(self, cat, monkeypatch):
        # eq2 has 4 distinct values: its square may have C(5, 3) = 10
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "10")
        assert tensor_power(cat["eq2"], 2).dim == 16
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "5")
        with pytest.raises(MemoryCapExceeded) as err:
            tensor_power(cat["eq2"], 2)
        assert err.value.cap == 5
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "0")
        with pytest.raises(InputError):
            tensor_power(cat["eq2"], 2)

    def test_memory_cap_env_not_an_integer(self, cat, monkeypatch):
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "abc")
        with pytest.raises(InputError, match="LOCC_LAB_MEM_CAP"):
            tensor_power(cat["eq2"], 2)

    def test_memory_cap_is_checked_per_power(self, cat, monkeypatch):
        # eq2 has 4 distinct values: powers 1, 2, 3 may have 4, 10, 20
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "10")
        assert find_min_deterministic_k(cat["eq2"], cat["eq3"], 8) == 2
        for build in (lambda: pmax_scan(cat["eq2"], cat["eq3"], 3),
                      lambda: tensor_power(cat["eq2"], 3)):
            with pytest.raises(MemoryCapExceeded) as err:
                build()
            assert err.value.estimated == 20


class TestDenseOracle:
    def test_matches_compressed_on_catalog_state(self, cat):
        for k in range(1, 5):
            assert tensor_power_dense(cat["eq6"], k) == tensor_power(cat["eq6"], k)

    def test_single_copy_unchanged(self, cat):
        for s in (cat["eq2"], cat["eq13"]):
            assert tensor_power_dense(s, 1) == s

    def test_product_state_power(self):
        one = make_spectrum((1,))
        assert tensor_power_dense(one, 5) == one

    def test_oracle_cap(self, cat):
        with pytest.raises(OracleCapExceeded):
            tensor_power_dense(cat["eq2"], 3, cap=50)

    def test_random_spectra_match(self):
        rng = random.Random(1405)
        for _ in range(60):
            s = random_spectrum(rng, max_dim=5)
            k = rng.randint(1, 4)
            assert tensor_power(s, k) == tensor_power_dense(s, k)


class TestMaximallyEntangled:
    def test_rank_three(self):
        assert maximally_entangled(3).entries == ((F(1, 3), 3),)

    def test_rank_one(self):
        assert maximally_entangled(1).entries == ((F(1), 1),)

    def test_rank_zero(self):
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            maximally_entangled(0)

    def test_entropy_is_log2_dim(self):
        assert entropy(maximally_entangled(4)) == 2.0
        for d in (2, 3, 5, 7):
            assert abs(entropy(maximally_entangled(d)) - math.log2(d)) < 1e-12


class TestEntropy:
    def test_dyadic_spectrum_is_exact(self, cat):
        assert entropy(cat["eq13"]) == 1.5

    def test_three_level_value(self, cat):
        assert abs(entropy(cat["eq12"]) - 1.5219280948873621) < 1e-12
        assert entropy(cat["eq12"]) > entropy(cat["eq13"])

    def test_product_state_has_none(self):
        assert entropy(make_spectrum((1,))) == 0.0
        assert math.copysign(1.0, entropy(make_spectrum((1,)))) == 1.0  # not -0.0

    def test_additive_over_tensor_products(self, cat):
        rng = random.Random(7)
        for _ in range(25):
            a = random_spectrum(rng, max_dim=5)
            b = random_spectrum(rng, max_dim=5)
            total = entropy(tensor_product(a, b))
            assert abs(total - (entropy(a) + entropy(b))) < 1e-12


def test_every_constructed_spectrum_sums_to_exactly_one(cat):
    rng = random.Random(99)
    spectra = list(cat.values())
    spectra += [random_spectrum(rng) for _ in range(40)]
    spectra += [tensor_power(cat["eq7"], 4), tensor_product(cat["eq2"], cat["chi"])]
    for s in spectra:
        assert sum(v * m for v, m in s.entries) == 1
        assert s.dim == sum(m for _, m in s.entries)
