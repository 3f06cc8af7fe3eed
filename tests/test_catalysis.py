"""Catalyst verification and grid search."""

import random
from fractions import Fraction as F

import pytest

from locc_lab import (
    CatalystSearchConfig,
    InputError,
    Obstruction,
    catalyzes,
    grid_candidates,
    majorized_by,
    make_spectrum,
    maximally_entangled,
    obstruction,
    search_catalyst,
    tensor_power,
)
from conftest import random_spectrum


class TestCatalyzes:
    def test_known_catalyst(self, cat):
        assert not majorized_by(cat["eq2"], cat["eq3"])
        assert catalyzes(cat["eq2"], cat["eq3"], cat["chi"])

    def test_identity_pair_catalyzed_by_anything(self, cat):
        rng = random.Random(5)
        for _ in range(20):
            chi = random_spectrum(rng, max_dim=4, min_dim=2)
            assert catalyzes(cat["eq7"], cat["eq7"], chi)

    def test_impossible_pair_never_catalyzed(self, cat):
        # exhaustive q=8 grid, pruning deliberately bypassed
        cfg = CatalystSearchConfig(min_dim=2, max_dim=3, grid_denominator=8)
        assert obstruction(cat["eq12"], cat["eq13"]) == Obstruction()
        for chi in grid_candidates(cfg):
            assert not catalyzes(cat["eq12"], cat["eq13"], chi)

    def test_deterministic_conversion_survives_any_catalyst(self, cat):
        rng = random.Random(6)
        src, tgt = maximally_entangled(3), cat["eq3"]
        assert majorized_by(src, tgt)
        for _ in range(20):
            chi = random_spectrum(rng, max_dim=4, min_dim=2)
            assert catalyzes(src, tgt, chi)


class TestSearchCatalyst:
    def test_finds_the_known_rank_two_catalyst(self, cat):
        cfg = CatalystSearchConfig(min_dim=2, max_dim=2, grid_denominator=10)
        found = search_catalyst(cat["eq2"], cat["eq3"], cfg)
        assert found == make_spectrum((F(3, 5), F(2, 5)))
        assert catalyzes(cat["eq2"], cat["eq3"], found)

    def test_short_circuits_impossible_pair(self, cat):
        assert search_catalyst(cat["eq12"], cat["eq13"]) is None
        cfg = CatalystSearchConfig(copies=2)
        assert search_catalyst(cat["eq12"], cat["eq13"], cfg) is None

    def test_trivial_pair_returns_first_grid_point(self, cat):
        found = search_catalyst(cat["eq7"], cat["eq7"])
        assert found == maximally_entangled(2)  # flattest rank-2 candidate

    def test_none_at_coarse_resolution(self, cat):
        cfg = CatalystSearchConfig(min_dim=2, max_dim=2, grid_denominator=4)
        assert search_catalyst(cat["eq2"], cat["eq3"], cfg) is None

    def test_deterministic_across_runs(self, cat):
        cfg = CatalystSearchConfig(min_dim=2, max_dim=3, grid_denominator=12)
        first = search_catalyst(cat["eq2"], cat["eq3"], cfg)
        second = search_catalyst(cat["eq2"], cat["eq3"], cfg)
        assert first == second is not None


def catalyzes_copies(source, target, catalyst, k):
    """The k-copy catalysis check that `catalyst --check --copies k` runs."""
    return catalyzes(tensor_power(source, k), tensor_power(target, k), catalyst)


class TestMulticopyEloccCheck:
    def test_matches_single_copy_catalysis(self, cat):
        assert catalyzes_copies(cat["eq2"], cat["eq3"], cat["chi"], 1) is True
        assert catalyzes_copies(cat["eq2"], cat["eq3"], cat["chi"], 1) == catalyzes(
            cat["eq2"], cat["eq3"], cat["chi"]
        )

    def test_impossible_pair_fails_at_every_copy_count(self, cat):
        for k in (1, 2, 3):
            assert not catalyzes_copies(cat["eq12"], cat["eq13"], cat["chi"], k)

    def test_identity_pair(self, cat):
        for k in (1, 2):
            assert catalyzes_copies(cat["eq7"], cat["eq7"], cat["chi"], k)

    def test_invalid_copy_count(self, cat):
        with pytest.raises(InputError, match="copy count must be >= 1, got 0"):
            catalyzes_copies(cat["eq2"], cat["eq3"], cat["chi"], 0)


class TestGrid:
    def test_rank_two_order_is_flattest_first(self):
        cfg = CatalystSearchConfig(min_dim=2, max_dim=2, grid_denominator=10)
        got = [chi.expand() for chi in grid_candidates(cfg)]
        assert got == [
            (F(5, 10), F(5, 10)),
            (F(6, 10), F(4, 10)),
            (F(7, 10), F(3, 10)),
            (F(8, 10), F(2, 10)),
            (F(9, 10), F(1, 10)),
        ]

    def test_first_candidate_is_maximally_entangled(self):
        cfg = CatalystSearchConfig(min_dim=2, max_dim=2, grid_denominator=20)
        assert next(grid_candidates(cfg)) == maximally_entangled(2)

    def test_ranks_ascend_and_distributions_are_valid(self):
        cfg = CatalystSearchConfig(min_dim=2, max_dim=4, grid_denominator=6)
        dims = []
        for chi in grid_candidates(cfg):
            dims.append(chi.dim)
            values = chi.expand()
            assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))
            assert sum(values) == 1
        assert dims == sorted(dims)
        assert set(dims) == {2, 3, 4}

    def test_config_validation(self):
        with pytest.raises(InputError):
            CatalystSearchConfig(min_dim=1)
        with pytest.raises(InputError):
            CatalystSearchConfig(min_dim=3, max_dim=2)
        with pytest.raises(InputError):
            CatalystSearchConfig(max_dim=5, grid_denominator=4)
        with pytest.raises(InputError):
            CatalystSearchConfig(copies=0)
