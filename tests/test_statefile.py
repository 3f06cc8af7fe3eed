"""State-file parsing, the bundled catalog, and decimal rendering."""

import decimal
import hashlib
import random
from fractions import Fraction as F

import pytest

from locc_lab import (
    StateFileError,
    load_fixture,
    load_state,
    maximally_entangled,
    tensor_power,
)
from locc_lab.catalog import CATALOG
from locc_lab.render import format_decimal, format_decimal_fixed, format_rational
from locc_lab.statefile import read_state

# Digit-for-digit pin of the bundled coefficient strings.
CATALOG_SHA256 = "145b9f89e881dbc1634e9bf7a3bc148bb5131ecd1e066ea70e194bac8fe27a74"


class TestCatalog:
    def test_checksum_pins_every_digit(self):
        text = "\n".join(
            name + ":" + ",".join(vals) for name, vals in sorted(CATALOG.items())
        )
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_SHA256

    def test_coefficients_parse_exactly(self):
        assert load_fixture("eq2").entries == (
            (F(2, 5), 1), (F(9, 25), 1), (F(7, 50), 1), (F(1, 10), 1)
        )
        assert load_fixture("chi").entries == ((F(3, 5), 1), (F(2, 5), 1))

    def test_two_copy_vectors_are_the_actual_squares(self):
        assert load_fixture("eq4") == tensor_power(load_fixture("eq2"), 2)
        assert load_fixture("eq5") == tensor_power(load_fixture("eq3"), 2)

    def test_padding_zeros_are_stripped(self):
        assert load_fixture("eq5").dim == 9
        assert len(CATALOG["eq5"]) == 16

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_fixture("eq99")


class TestLineFormat:
    def test_exact_decimal_parsing(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("0.5\n0.25\n0.25\n")
        assert load_state(str(path)).entries == ((F(1, 2), 1), (F(1, 4), 2))

    def test_comments_blanks_and_fractions(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# a comment\n\n9/25  # trailing comment\n16/25\n")
        assert load_state(str(path)).entries == ((F(16, 25), 1), (F(9, 25), 1))

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("0.5\nbogus\n0.5\n")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line == 2
        assert "bogus" in str(err.value)

    def test_bad_token_after_comment_and_blank_reports_file_line(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# header\n\n0.5\nabc\n0.5")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line == 4
        assert f"{path}:4: " in str(err.value)

    def test_negative_entry_reports_file_line(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# weights\n0.5\n\n0.75  # big\n-0.25\n")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line == 5

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_bytes(b"\xff\xfe0.5\n")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert str(path) in str(err.value)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_bytes(b"\xef\xbb\xbf0.5\n0.5\n")
        assert load_state(str(path)) == maximally_entangled(2)

    def test_two_tokens_on_a_line_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("0.5 0.5\n")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(StateFileError):
            load_state(str(path))


class TestJsonFormat:
    def test_numbers_parse_exactly(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[0.4, 0.36, 0.14, 0.1]")
        assert load_state(str(path)) == load_fixture("eq2")

    def test_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_bytes(b"\xef\xbb\xbf[0.5, 0.5]")
        assert load_state(str(path)) == maximally_entangled(2)

    def test_digits_beyond_double_precision_are_kept(self, tmp_path):
        digits = ("0.33333333333333333333", "0.66666666666666666667")
        json_path = tmp_path / "state.json"
        json_path.write_text("[" + ", ".join(digits) + "]")
        lines_path = tmp_path / "state.txt"
        lines_path.write_text("\n".join(digits) + "\n")
        got = load_state(str(json_path))
        assert got == load_state(str(lines_path))
        assert got.smallest == F(33333333333333333333, 10**20)

    def test_number_tokens_are_the_file_text(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('[1E-1, 9e-1, 0, "0", NaN]')
        assert read_state(str(path)) == [
            ("1E-1", None), ("9e-1", None), ("0", None), ("0", None), ("NaN", None)
        ]

    def test_unparsable_numbers_name_their_element(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[0.5, NaN]")
        with pytest.raises(StateFileError, match="entry 2 'NaN'"):
            load_state(str(path))
        # More digits than int() converts by default: still an input error.
        path.write_text("[" + "1" * 5000 + "]")
        with pytest.raises(StateFileError, match="cannot parse entry 1"):
            load_state(str(path))

    def test_strings_parse_exactly(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('["1/2", "0.25", "0.25"]')
        assert load_state(str(path)) == load_fixture("eq3")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[0.5,\n0.25,]")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line is not None

    def test_negative_element_names_its_position(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[\n0.5,\n0.75,\n-0.25\n]")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line is None
        assert "entry 3" in str(err.value)

    def test_non_list_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text('["0.5", {"x": 1}]')
        with pytest.raises(StateFileError):
            load_state(str(path))


class TestModes:
    def test_fixture_name_fallback(self):
        assert read_state("eq2") == [(token, None) for token in CATALOG["eq2"]]
        assert load_state("eq2") == load_fixture("eq2")

    def test_missing_input(self):
        with pytest.raises(StateFileError):
            load_state("definitely-not-a-file")

    def test_amplitudes_squared(self, tmp_path):
        path = tmp_path / "amps.txt"
        path.write_text("0.6\n0.8\n")
        got = load_state(str(path), amplitudes=True)
        assert got.entries == ((F(16, 25), 1), (F(9, 25), 1))

    def test_normalize_rescales_exactly(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("2\n1\n1\n")
        assert load_state(str(path), normalize=True) == load_fixture("eq13")

    def test_unnormalized_sum_is_rejected_without_flag(self, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("0.5\n0.25\n")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert "1/4" in str(err.value)  # exact deficit is reported

    def test_negative_entry_reports_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\n0.75\n-0.25\n")
        with pytest.raises(StateFileError) as err:
            load_state(str(path))
        assert err.value.line == 3


class TestRendering:
    def test_rational_always_shows_denominator(self):
        assert format_rational(F(1)) == "1/1"
        assert format_rational(F(24, 25)) == "24/25"

    def test_huge_rationals_render_exactly(self):
        assert format_rational(F(10**200000 + 1, 3)) == "1" + "0" * 199999 + "1/3"
        rng = random.Random(20000)
        for _ in range(5):
            n = rng.randrange(-(10**20000), 10**20000)
            assert format_rational(F(n)) == f"{decimal.Decimal(n)}/1"
        assert format_decimal_fixed(F(10**20000 + 1, 10**20000)) == "1.00000000000000"

    def test_decimal_strips_trailing_zeros(self):
        assert format_decimal(F(24, 25)) == "0.96"
        assert format_decimal(F(5, 6)) == "0.8333"
        assert format_decimal(F(1)) == "1"
        assert format_decimal(F(0)) == "0"
        assert format_decimal(F(20, 23)) == "0.8696"

    def test_fixed_decimal_for_machine_output(self):
        assert format_decimal_fixed(F(5, 6)) == "0.833333333333333"
        assert format_decimal_fixed(F(4, 5)) == "0.8"
        assert format_decimal_fixed(F(171875, 195872)) == "0.877486317595164"
