"""Hypothesis property tests: algebraic laws and oracle equivalence."""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locc_lab import (
    CatalystSearchConfig,
    Obstruction,
    PairKind,
    SchmidtSpectrum,
    catalyzes,
    classify_pair,
    entropy,
    find_min_deterministic_k,
    grid_candidates,
    load_fixture,
    majorized_by,
    make_spectrum,
    maximally_entangled,
    obstruction,
    pmax_scan,
    tensor_power,
    tensor_product,
    vidal_pmax,
)
from locc_lab.spectrum import tensor_powers
from oracles import (
    classify_dense,
    majorized_by_dense,
    strict_extremes,
    tensor_power_dense,
    vidal_pmax_dense,
)


#: Passes the extreme test, obstructed at alpha=3 (the squares' sums tie).
POWER_SUM_PAIR = (load_fixture("eq8"), make_spectrum(["0.4", "0.3", "0.3"]))


@st.composite
def spectra(draw, min_dim=1, max_dim=5, max_weight=24):
    d = draw(st.integers(min_dim, max_dim))
    weights = draw(st.lists(st.integers(1, max_weight), min_size=d, max_size=d))
    total = sum(weights)
    return make_spectrum(Fraction(w, total) for w in weights)


@given(spectra())
def test_round_trip_through_expand(s):
    assert make_spectrum(s.expand()) == s


@given(spectra())
def test_exact_unit_sum(s):
    assert sum(v * m for v, m in s.entries) == 1


@given(spectra(), st.integers(1, 3))
def test_tensor_power_matches_dense_oracle(s, k):
    assert tensor_power(s, k) == tensor_power_dense(s, k)


@settings(max_examples=50)
@given(spectra(max_dim=4), spectra(max_dim=4))
def test_stepwise_scans_match_dense_oracle(a, b):
    dense_a = [tensor_power_dense(a, n) for n in range(1, 5)]
    dense_b = [tensor_power_dense(b, n) for n in range(1, 5)]
    assert list(tensor_powers(a, 4)) == dense_a
    rows = pmax_scan(a, b, 4).rows
    assert [row.pmax for row in rows] == [
        vidal_pmax_dense(x, y) for x, y in zip(dense_a, dense_b)
    ]
    hits = [n for n in range(1, 4) if majorized_by_dense(dense_a[n - 1], dense_b[n - 1])]
    expected = hits[0] if hits else None
    assert find_min_deterministic_k(a, b, 3) == expected


@given(spectra(max_dim=4), spectra(max_dim=4))
def test_tensor_product_commutes(a, b):
    assert tensor_product(a, b) == tensor_product(b, a)


@given(spectra(max_dim=3), st.integers(1, 2), st.integers(1, 2))
def test_tensor_power_splits(a, j, k):
    assert tensor_power(a, j + k) == tensor_product(tensor_power(a, j), tensor_power(a, k))


@given(spectra(max_dim=6), spectra(max_dim=6))
def test_majorization_breakpoints_match_dense(x, y):
    assert majorized_by(x, y) == majorized_by_dense(x, y)


@given(spectra(max_dim=6), spectra(max_dim=6))
def test_vidal_breakpoints_match_dense(a, b):
    assert vidal_pmax(a, b) == vidal_pmax_dense(a, b)


@given(spectra())
def test_majorization_reflexive(s):
    assert majorized_by(s, s)


@given(spectra(max_dim=5), spectra(max_dim=5))
def test_majorization_antisymmetric(a, b):
    if majorized_by(a, b) and majorized_by(b, a):
        assert a == b


@given(spectra(max_dim=6), st.integers(0, 2))
def test_pmax_to_maximally_entangled(s, extra):
    d = s.dim + extra
    want = d * s.smallest if extra == 0 else 0
    assert vidal_pmax(s, maximally_entangled(d)) == want


@given(spectra(max_dim=6))
def test_uniform_spectrum_is_bottom(s):
    assert majorized_by(maximally_entangled(s.dim), s)


@given(spectra(max_dim=4), spectra(max_dim=4), spectra(max_dim=3))
def test_tensoring_preserves_majorization(a, b, c):
    if majorized_by(a, b):
        assert majorized_by(tensor_product(a, c), tensor_product(b, c))


@given(spectra(max_dim=6), spectra(max_dim=6))
def test_pmax_one_iff_deterministic(a, b):
    assert (vidal_pmax(a, b) == 1) == majorized_by(a, b)


@settings(max_examples=50)
@given(spectra(max_dim=4), spectra(max_dim=4), st.integers(2, 3))
def test_collective_pmax_at_least_per_copy_product(a, b, k):
    # running the single-copy optimal protocol independently on each copy
    # is a valid collective strategy
    per_copy = vidal_pmax(a, b)
    collective = vidal_pmax(tensor_power(a, k), tensor_power(b, k))
    assert collective >= per_copy**k


@settings(max_examples=50)
@given(spectra(max_dim=4), spectra(max_dim=4))
def test_entropy_additive(a, b):
    assert abs(entropy(tensor_product(a, b)) - entropy(a) - entropy(b)) < 1e-12


@settings(max_examples=50)
@given(spectra(max_dim=4), spectra(max_dim=4), st.integers(3, 12))
@example(load_fixture("eq12"), load_fixture("eq13"), 8)  # extreme test
@example(*POWER_SUM_PAIR, 8)
def test_obstruction_is_sound(x, y, q):
    assume(obstruction(x, y) is not None)
    cfg = CatalystSearchConfig(min_dim=2, max_dim=3, grid_denominator=q)
    assert not any(catalyzes(x, y, c) for c in grid_candidates(cfg))
    for k in range(1, 4):
        assert not majorized_by_dense(tensor_power_dense(x, k), tensor_power_dense(y, k))


@given(spectra(max_dim=5), spectra(max_dim=5))
@example(*POWER_SUM_PAIR)  # obstructed both ways, not both by the extreme test
def test_strong_incomparability_is_the_strict_extreme_pattern(a, b):
    got = classify_pair(a, b, 2)
    assert (got.kind is PairKind.STRONGLY_INCOMPARABLE) == strict_extremes(a, b)
    if got.kind is PairKind.STRONGLY_INCOMPARABLE:
        assert got.witness == (obstruction(a, b), obstruction(b, a))
        assert got.witness == (Obstruction(), Obstruction())


@given(spectra(max_dim=4), spectra(max_dim=4), st.integers(1, 3))
@example(load_fixture("eq2"), load_fixture("eq3"), 3)  # deterministic at 2 copies
@example(load_fixture("eq3"), load_fixture("eq2"), 3)  # the same, b -> a
@example(load_fixture("eq6"), load_fixture("eq7"), 3)  # deterministic at 3 copies
@example(*POWER_SUM_PAIR, 3)  # obstructed both ways, not strongly incomparable
def test_classify_pair_matches_dense_oracle(a, b, k_max):
    got = classify_pair(a, b, k_max)
    assert (got.kind, got.direction, got.k, got.searched_up_to) == classify_dense(
        a, b, k_max
    )


@settings(max_examples=50)
@given(spectra(max_dim=4), spectra(max_dim=4), st.integers(4, 12))
def test_trusted_builders_pass_validation(a, b, q):
    # every builder yields the canonical form that make_spectrum gives
    built = [tensor_product(a, b), tensor_power(a, 3), *tensor_powers(b, 3)]
    built += grid_candidates(CatalystSearchConfig(min_dim=2, max_dim=4, grid_denominator=q))
    built += [a, make_spectrum(b.expand()), maximally_entangled(q)]
    for s in built:
        assert SchmidtSpectrum(s.denominator, s.runs) == s
        assert s.dim == len(s.expand())
        assert make_spectrum(s.expand()) == s
