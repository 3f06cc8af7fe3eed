"""Shared fixtures and random-spectrum generators."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from locc_lab import CATALOG, load_fixture, make_spectrum

settings.register_profile(
    "locc-lab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("locc-lab")


@pytest.fixture(scope="session")
def cat():
    """All bundled catalog states, by name."""
    return {name: load_fixture(name) for name in CATALOG}


def random_spectrum(rng: random.Random, max_dim: int = 5, min_dim: int = 1,
                    max_weight: int = 24):
    """Random exact spectrum: integer weights over a common denominator."""
    d = rng.randint(min_dim, max_dim)
    weights = [rng.randint(1, max_weight) for _ in range(d)]
    total = sum(weights)
    return make_spectrum(Fraction(w, total) for w in weights)
