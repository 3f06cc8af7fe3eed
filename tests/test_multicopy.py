"""Many-copy classification, probability scans, conjecture evidence."""

import random
from fractions import Fraction as F

import pytest

from locc_lab import (
    BaselineNotDeterministic,
    Comparability,
    InputError,
    Obstruction,
    PairKind,
    PmaxScan,
    PmaxScanRow,
    classify_pair,
    conjecture_scan,
    find_min_deterministic_k,
    make_spectrum,
    maximally_entangled,
    multicopy,
    obstruction,
    pmax_scan,
    tensor_power,
    vidal_pmax,
)
from conftest import random_spectrum

# omega -> zeta optimal probabilities per copy count, recorded from the
# dense per-prefix oracle ahead of the implementation.
OMEGA_TO_ZETA = (
    (1, F(5, 6)),
    (2, F(25, 28)),
    (3, F(125, 138)),
    (4, F(3125, 3728)),
    (5, F(3125, 3594)),
    (6, F(171875, 195872)),
)


class TestMulticopyNecessary:
    """`obstruction`: the extreme-coefficient test first, then power sums."""

    def test_strongly_incomparable_pair_fails(self, cat):
        assert obstruction(cat["eq12"], cat["eq13"]) == Obstruction()

    def test_rank_padded_pair_passes(self, cat):
        # largest 2/5 <= 1/2 and smallest 1/10 >= 0 (padded)
        assert obstruction(cat["eq2"], cat["eq3"]) is None

    def test_identity(self, cat):
        for s in cat.values():
            assert obstruction(s, s) is None

    def test_power_sum_test_names_its_alpha(self, cat):
        # the extreme test passes and the sums of squares tie (0.34 both);
        # the sums of cubes do not
        rho = make_spectrum(["0.4", "0.3", "0.3"])
        assert obstruction(cat["eq8"], rho) == Obstruction(3)


class TestStrongIncomparabilityWitness:
    """The extreme-coefficient test failing both ways certifies strong
    incomparability; the witness holds both directions' obstructions."""

    def test_smaller_extremes_branch(self, cat):
        got = classify_pair(cat["eq12"], cat["eq13"], 8)
        assert cat["eq12"].largest < cat["eq13"].largest
        assert got.kind is PairKind.STRONGLY_INCOMPARABLE
        assert got.witness == (Obstruction(), Obstruction())

    def test_larger_extremes_branch(self, cat):
        got = classify_pair(cat["eq13"], cat["eq12"], 8)
        assert cat["eq13"].largest > cat["eq12"].largest
        assert got.kind is PairKind.STRONGLY_INCOMPARABLE
        assert got.witness == (Obstruction(), Obstruction())

    def test_padded_smallest_blocks_the_branch(self, cat):
        # eq2's padded comparison has smallest 1/10 > 0, so only eq3 -> eq2
        # fails the extreme test even though the largest coefficients differ
        a, b = cat["eq2"], cat["eq3"]
        assert (obstruction(a, b), obstruction(b, a)) == (None, Obstruction())
        assert classify_pair(a, b, 8).kind is PairKind.K_COPY_INCOMPARABLE

    def test_no_witness_for_identical(self, cat):
        assert classify_pair(cat["eq7"], cat["eq7"], 8).witness is None


class TestFindMinDeterministicK:
    def test_two_copies(self, cat):
        assert find_min_deterministic_k(cat["eq2"], cat["eq3"], 8) == 2

    def test_three_copies(self, cat):
        assert find_min_deterministic_k(cat["eq6"], cat["eq7"], 8) == 3

    def test_six_copies(self, cat):
        assert find_min_deterministic_k(cat["eq8"], cat["eq9"], 8) == 6

    def test_budget_exhausted(self, cat):
        assert find_min_deterministic_k(cat["eq8"], cat["eq9"], 5) is None

    def test_short_circuit_on_impossible_pair(self, cat):
        assert find_min_deterministic_k(cat["eq12"], cat["eq13"], 8) is None

    def test_invalid_budget(self, cat):
        with pytest.raises(InputError, match="k_max must be >= 1, got 0"):
            find_min_deterministic_k(cat["eq2"], cat["eq3"], 0)

    def test_every_budget_check_is_an_input_error(self, cat):
        a, b = cat["eq2"], cat["eq3"]
        strong = cat["eq12"], cat["eq13"]
        for call, message in (
            (lambda: classify_pair(*strong, 0), "k_max must be >= 1, got 0"),
            (lambda: pmax_scan(a, b, 0), "k_max must be >= 1, got 0"),
            (lambda: conjecture_scan(a, b, 0, 5), "k must be >= 1, got 0"),
            (lambda: conjecture_scan(a, b, 1, 0), "n_max must be >= 1, got 0"),
        ):
            with pytest.raises(InputError, match=message):
                call()

    def test_success_implies_necessary_condition(self):
        rng = random.Random(1234)
        found = 0
        for _ in range(300):
            a = random_spectrum(rng, max_dim=4)
            b = random_spectrum(rng, max_dim=4)
            n = find_min_deterministic_k(a, b, 4)
            if n is not None:
                found += 1
                assert obstruction(a, b) is None
        assert found > 20

    def test_never_both_directions(self):
        rng = random.Random(4321)
        for _ in range(200):
            a = random_spectrum(rng, max_dim=4)
            b = random_spectrum(rng, max_dim=4)
            if a == b:
                continue
            fwd = find_min_deterministic_k(a, b, 4)
            rev = find_min_deterministic_k(b, a, 4)
            assert fwd is None or rev is None


class TestClassifyPair:
    def test_single_copy_incomparable_pair(self, cat):
        got = classify_pair(cat["eq2"], cat["eq3"], 8)
        assert got.kind is PairKind.K_COPY_INCOMPARABLE
        assert got.k == 1
        assert got.direction is Comparability.SOURCE_TO_TARGET

    def test_direction_order_is_fixed(self, cat):
        got = classify_pair(cat["eq3"], cat["eq2"], 8)
        assert got.kind is PairKind.K_COPY_INCOMPARABLE
        assert got.k == 1
        assert got.direction is Comparability.TARGET_TO_SOURCE

    def test_five_copy_pair(self, cat):
        got = classify_pair(cat["eq8"], cat["eq9"], 8)
        assert (got.kind, got.k) == (PairKind.K_COPY_INCOMPARABLE, 5)

    def test_strongly_incomparable(self, cat):
        got = classify_pair(cat["eq12"], cat["eq13"], 8)
        assert got.kind is PairKind.STRONGLY_INCOMPARABLE
        assert got.witness == (Obstruction(), Obstruction())

    def test_equivalent(self, cat):
        got = classify_pair(cat["eq7"], cat["eq7"], 8)
        assert got.kind is PairKind.COMPARABLE_SINGLE_COPY
        assert got.direction is Comparability.EQUIVALENT

    def test_comparable(self, cat):
        got = classify_pair(maximally_entangled(3), cat["eq3"], 8)
        assert got.kind is PairKind.COMPARABLE_SINGLE_COPY
        assert got.direction is Comparability.SOURCE_TO_TARGET

    def test_undecided_within_budget(self, cat):
        got = classify_pair(cat["eq8"], cat["eq9"], 3)
        assert got.kind is PairKind.UNDECIDED
        assert got.searched_up_to == 3

    def test_decides_each_copy_count_once(self, cat, monkeypatch):
        calls = {"obstruction": [], "majorized_by": [], "tensor_powers": []}
        for name, log in calls.items():
            def spy(*args, _original=getattr(multicopy, name), _log=log):
                _log.append(args)
                return _original(*args)

            monkeypatch.setattr(multicopy, name, spy)
        a, b = cat["eq2"], cat["eq3"]
        classify_pair(a, b, 8)
        # compare decided one copy, so the walk starts at two copies
        assert calls["obstruction"] == [(a, b), (b, a)]
        assert calls["majorized_by"] == [(tensor_power(a, 2), tensor_power(b, 2))]
        # obstructed both ways: no direction is walked and no power is built
        rho = make_spectrum(["0.4", "0.3", "0.3"])
        for pair in ((cat["eq12"], cat["eq13"]), (cat["eq8"], rho)):
            calls["tensor_powers"].clear()
            classify_pair(*pair, 8)
            assert calls["tensor_powers"] == []


class TestPmaxMes:
    """Conversion to the rank-d maximally entangled state (Vidal's formula
    reduces to d times the smallest coefficient at equal rank)."""

    def test_catalog_values(self, cat):
        assert vidal_pmax(cat["eq13"], maximally_entangled(3)) == F(3, 4)
        assert vidal_pmax(cat["eq12"], maximally_entangled(3)) == F(3, 5)

    def test_uniform_converts_with_certainty(self):
        for d in (1, 2, 5):
            assert vidal_pmax(maximally_entangled(d), maximally_entangled(d)) == 1

    def test_padded_rank_is_impossible(self, cat):
        assert vidal_pmax(cat["eq12"], maximally_entangled(4)) == 0

    def test_rank_below_spectrum_is_answered(self, cat):
        # eq2 = (.4, .36, .14, .1): tail ratios 1, .6/(2/3), .24/(1/3)
        assert vidal_pmax(cat["eq2"], maximally_entangled(3)) == F(18, 25)


class TestPmaxScan:
    def test_decaying_direction_respects_bound(self, cat):
        scan = pmax_scan(cat["eq12"], cat["eq13"], 6)
        for row in scan.rows:
            assert row.decay_bound == F(4, 5) ** row.k
            assert row.pmax <= row.decay_bound

    def test_oscillating_direction_values(self, cat):
        scan = pmax_scan(cat["eq13"], cat["eq12"], 6)
        assert tuple((r.k, r.pmax) for r in scan.rows) == OMEGA_TO_ZETA
        assert all(r.decay_bound is None for r in scan.rows)
        assert scan.argmax_k() == 3
        p = {r.k: r.pmax for r in scan.rows}
        assert p[2] < p[3] > p[4]

    def test_identity_scan(self, cat):
        scan = pmax_scan(cat["eq7"], cat["eq7"], 3)
        assert [r.pmax for r in scan.rows] == [1, 1, 1]
        assert all(r.decay_bound is None for r in scan.rows)

    def test_rank_deficient_source_scans_to_zero(self, cat):
        scan = pmax_scan(cat["eq3"], cat["eq2"], 2)
        assert [r.pmax for r in scan.rows] == [0, 0]
        assert [r.decay_bound for r in scan.rows] == [0, 0]

    def test_row_invariants_enforced(self):
        # A broken invariant is a bug, not bad input: the CLI must not map
        # it to exit code 2.
        for rows in ((PmaxScanRow(2, F(1), None),), (PmaxScanRow(1, F(1), F(1, 2)),)):
            with pytest.raises(ValueError) as err:
                PmaxScan(rows)
            assert not isinstance(err.value, InputError)


class TestConjectureScan:
    def test_evidence_for_two_copy_pair(self, cat):
        got = conjecture_scan(cat["eq2"], cat["eq3"], 1, 5)
        assert got == ((3, True), (4, True), (5, True))

    def test_evidence_for_three_copy_pair(self, cat):
        got = conjecture_scan(cat["eq6"], cat["eq7"], 2, 6)
        assert got == ((4, True), (5, True), (6, True))
        # multiples of k+1 hold by simply repeating the base protocol
        assert (6, True) in got

    def test_baseline_must_be_deterministic(self, cat):
        with pytest.raises(BaselineNotDeterministic):
            conjecture_scan(cat["eq6"], cat["eq7"], 1, 5)

    def test_empty_range(self, cat):
        assert conjecture_scan(cat["eq2"], cat["eq3"], 1, 2) == ()

    def test_documented_as_evidence_not_proof(self):
        assert "EVIDENCE" in conjecture_scan.__doc__
        assert "proof" in conjecture_scan.__doc__


def test_exponential_decay_bound_on_random_equal_rank_pairs():
    rng = random.Random(2718)
    checked = 0
    for _ in range(200):
        d = rng.randint(2, 4)
        a = random_spectrum(rng, max_dim=d, min_dim=d)
        b = random_spectrum(rng, max_dim=d, min_dim=d)
        if a.dim != d or b.dim != d or not a.smallest < b.smallest:
            continue
        checked += 1
        ratio = a.smallest / b.smallest
        scan = pmax_scan(a, b, 3)
        for row in scan.rows:
            assert row.decay_bound == ratio**row.k
            assert row.pmax <= row.decay_bound
    assert checked > 30


def test_independent_per_copy_protocol_lower_bound():
    # converting each copy separately succeeds with probability pmax**k,
    # so the collective optimum can never fall below that
    rng = random.Random(314)
    for _ in range(60):
        a = random_spectrum(rng, max_dim=4)
        b = random_spectrum(rng, max_dim=4)
        p1 = vidal_pmax(a, b)
        for k in (2, 3):
            pk = vidal_pmax(tensor_power(a, k), tensor_power(b, k))
            assert pk >= p1**k
