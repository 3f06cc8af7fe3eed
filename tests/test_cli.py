"""End-to-end CLI behaviour: output, file formats, exit codes."""

import shutil
import subprocess
from decimal import Decimal
from fractions import Fraction

import pytest

from locc_lab import cli, load_state, multicopy, vidal_pmax
from locc_lab.cli import main


#: What every command prints for LOCC_LAB_MEM_CAP=abc.
BAD_CAP = "error: LOCC_LAB_MEM_CAP must be a positive integer, got 'abc'\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompare:
    def test_incomparable_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "eq2", "eq3")
        assert code == 0
        assert "Incomparable" in out
        assert "p_max(A->B) = 24/25 = 0.96" in out
        assert "p_max(B->A) = 0/1 = 0" in out

    def test_equivalent_pair(self, capsys):
        code, out, _ = run(capsys, "compare", "eq3", "eq13")
        assert code == 0
        assert "Equivalent" in out
        assert "p_max(A->B) = 1/1 = 1" in out

    def test_strongly_incomparable_values(self, capsys):
        code, out, _ = run(capsys, "compare", "eq12", "eq13")
        assert code == 0
        assert "p_max(A->B) = 4/5 = 0.8" in out

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(capsys, "compare", "eq2", "no-such-state")
        assert code == 2
        assert "no-such-state" in err

    def test_parse_error_reports_line_and_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("0.5\nnot-a-number\n0.5\n")
        code, _, err = run(capsys, "compare", str(path), "eq3")
        assert code == 2
        assert f"{path}:2" in err

    def test_non_utf8_file_exits_2_naming_it(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe0.5\n")
        code, out, err = run(capsys, "compare", str(path), "eq3")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}: ")

    def test_normalize_flag(self, capsys, tmp_path):
        path = tmp_path / "weights.txt"
        path.write_text("2\n1\n1\n")
        code, out, _ = run(capsys, "compare", str(path), "eq13", "--normalize")
        assert code == 0
        assert "Equivalent" in out

    def test_rational_over_4300_digits(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("1\n1e-5000\n")
        half = tmp_path / "half.txt"
        half.write_text("0.5\n0.5\n")
        code, out, err = run(capsys, "compare", str(big), str(half), "--normalize")
        assert (code, err) == (0, "")
        line = next(x for x in out.splitlines() if x.startswith("p_max(A->B) = "))
        # Decimal parses digit strings of any length; int() stops at 4300.
        num, den = (Fraction(Decimal(t)) for t in line.split(" = ")[1].split("/"))
        expected = vidal_pmax(load_state(str(big), normalize=True), load_state(str(half)))
        assert num / den == expected

    def test_amplitudes_flag(self, capsys, tmp_path):
        path = tmp_path / "amps.txt"
        path.write_text("0.6\n0.8\n")
        probs = tmp_path / "probs.txt"
        probs.write_text("0.36\n0.64\n")
        code, out, _ = run(capsys, "compare", str(path), str(probs), "--amplitudes")
        assert code == 2  # --amplitudes applies to both states; probs no longer sum to 1
        code, out, _ = run(capsys, "compare", str(path), "--amplitudes", str(path))
        assert code == 0
        assert "Equivalent" in out


class TestClassify:
    def test_single_copy_comparable(self, capsys):
        for a, b, relation in (
            ("eq4", "eq2", "Comparable: A -> B deterministic"),
            ("eq2", "eq4", "Comparable: B -> A deterministic"),
            ("eq3", "eq13", "Equivalent"),
        ):
            line = f"Comparable (single copy): {relation}\n"
            assert run(capsys, "classify", a, b) == (0, line, "")

    def test_single_copy_incomparable(self, capsys):
        for a, b, direction in (("eq2", "eq3", "A -> B"), ("eq3", "eq2", "B -> A")):
            line = f"1-copy LOCC incomparable ({direction} deterministic at 2 copies)\n"
            assert run(capsys, "classify", a, b) == (0, line, "")

    def test_five_copy_pair(self, capsys):
        code, out, _ = run(capsys, "classify", "eq8", "eq9")
        assert code == 0
        assert "5-copy LOCC incomparable" in out
        assert "at 6 copies" in out

    def test_strongly_incomparable(self, capsys):
        code, out, _ = run(capsys, "classify", "eq12", "eq13")
        assert code == 0
        assert "Strongly incomparable" in out
        assert "largest(A) < largest(B)" in out

    def test_strongly_incomparable_lines_in_both_orders(self, capsys):
        for a, b, op in (("eq12", "eq13", "<"), ("eq13", "eq12", ">")):
            line = (f"Strongly incomparable (largest(A) {op} largest(B) "
                    f"and smallest(A) {op} smallest(B))\n")
            assert run(capsys, "classify", a, b) == (0, line, "")

    def test_undecided_within_budget(self, capsys):
        code, out, _ = run(capsys, "classify", "eq8", "eq9", "--k-max", "3")
        assert code == 0
        assert "Undecided up to 3 copies" in out

    def test_memory_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "2")
        code, _, err = run(capsys, "classify", "eq2", "eq3")
        assert code == 3
        assert "cap" in err


class TestScan:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "scan", "eq13", "eq12", "--k-max", "6")
        assert code == 0
        assert out.splitlines()[0].split() == [
            "k", "pmax_exact", "pmax_decimal", "theorem3_bound_exact"
        ]
        assert "5/6" in out and "171875/195872" in out

    def test_csv_format(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "eq13", "eq12", "--k-max", "3",
                         "--csv", str(target))
        assert code == 0
        data = target.read_bytes()
        assert b"\r" not in data
        lines = data.decode().splitlines()
        assert lines[0] == "k,pmax_exact,pmax_decimal,theorem3_bound_exact"
        assert lines[1] == "1,5/6,0.833333333333333,"
        assert lines[2] == "2,25/28,0.892857142857143,"
        assert lines[3] == "3,125/138,0.905797101449275,"

    def test_csv_bound_column(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        code, _, _ = run(capsys, "scan", "eq12", "eq13", "--k-max", "2",
                         "--csv", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[1] == "1,4/5,0.8,4/5"
        assert lines[2] == "2,16/25,0.64,16/25"

    def test_csv_byte_stable_across_runs(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run(capsys, "scan", "eq13", "eq12", "--k-max", "5", "--csv", str(first))
        run(capsys, "scan", "eq13", "eq12", "--k-max", "5", "--csv", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_csv_exits_4(self, capsys, tmp_path):
        code, out, err = run(capsys, "scan", "eq13", "eq12",
                             "--csv", str(tmp_path / "missing-dir" / "x.csv"))
        assert code == 4
        assert out == ""
        assert err.startswith("error:")


class TestCatalyst:
    def test_check_known_catalyst(self, capsys):
        code, out, _ = run(capsys, "catalyst", "eq2", "eq3", "--check", "chi")
        assert code == 0
        assert out.strip() == "true"

    def test_check_useless_candidate(self, capsys, tmp_path):
        path = tmp_path / "chi.txt"
        path.write_text("0.9\n0.1\n")
        code, out, _ = run(capsys, "catalyst", "eq2", "eq3", "--check", str(path))
        assert code == 0
        assert out.strip() == "false"

    def test_check_product_over_memory_cap_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv("LOCC_LAB_MEM_CAP", "5")
        code, out, err = run(capsys, "catalyst", "eq2", "eq3", "--check", "chi")
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_find_on_small_grid(self, capsys):
        code, out, _ = run(capsys, "catalyst", "eq2", "eq3", "--find",
                           "--dims", "2..2", "--grid-q", "10")
        assert code == 0
        assert out.strip() == "catalyst: 3/5 2/5"

    def test_find_short_circuit(self, capsys):
        code, out, _ = run(capsys, "catalyst", "eq12", "eq13", "--find")
        assert code == 0
        assert "none" in out
        assert "extreme-coefficient" in out

    def test_find_power_sum_obstruction(self, capsys, tmp_path):
        path = tmp_path / "rho.txt"
        path.write_text(".4\n.3\n.3\n")
        code, out, _ = run(capsys, "catalyst", "eq8", str(path), "--find")
        assert code == 0
        assert out.strip() == (
            "none (power-sum test at alpha=3 rules out any catalyst)"
        )

    def test_find_none_at_resolution(self, capsys):
        code, out, _ = run(capsys, "catalyst", "eq2", "eq3", "--find",
                           "--dims", "2..2", "--grid-q", "4")
        assert code == 0
        assert out.strip() == "none at resolution 1/4 (dims 2..2)"

    def test_bad_dims_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "catalyst", "eq2", "eq3", "--find", "--dims", "wat")
        assert err.value.code == 2

    def test_bad_config_exits_2(self, capsys):
        code, _, err = run(capsys, "catalyst", "eq2", "eq3", "--find",
                           "--dims", "2..4", "--grid-q", "3")
        assert code == 2
        assert "denominator" in err


class TestEntropy:
    def test_dyadic(self, capsys):
        code, out, _ = run(capsys, "entropy", "eq13")
        assert code == 0
        assert out.strip() == "1.5"

    def test_three_level(self, capsys):
        code, out, _ = run(capsys, "entropy", "eq12")
        assert code == 0
        assert out.strip().startswith("1.5219280948873")

    def test_json_digits_beyond_double_precision(self, capsys, tmp_path):
        digits = ("0.33333333333333333333", "0.66666666666666666667")
        json_path = tmp_path / "state.json"
        json_path.write_text("[" + ", ".join(digits) + "]")
        lines_path = tmp_path / "state.txt"
        lines_path.write_text("\n".join(digits) + "\n")
        code, out, err = run(capsys, "entropy", str(json_path))
        assert (code, err) == (0, "")
        assert run(capsys, "entropy", str(lines_path)) == (0, out, "")

    def test_value_below_float_range_contributes_nothing(self, capsys, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("1e-400\n1\n")
        assert run(capsys, "entropy", str(path), "--normalize") == (0, "0\n", "")

    def test_product_state_prints_zero(self, capsys, tmp_path):
        path = tmp_path / "product.txt"
        path.write_text("1\n")
        assert run(capsys, "entropy", str(path)) == (0, "0\n", "")
        assert run(capsys, "entropy", "eq12") == (0, "1.52192809488736\n", "")
        assert run(capsys, "entropy", "eq13") == (0, "1.5\n", "")


class TestExitCodes:
    """Exit code 2 means bad input and nothing else."""

    @pytest.mark.parametrize("argv, env, err", [
        (["classify", "eq2", "eq3", "--k-max", "0"], None,
         "error: k_max must be >= 1, got 0\n"),
        (["catalyst", "eq2", "eq3", "--copies", "0", "--check", "chi"], None,
         "error: copy count must be >= 1, got 0\n"),
        (["catalyst", "eq2", "eq3", "--find", "--grid-q", "3"], None,
         "error: grid denominator must be >= the largest rank\n"),
        (["classify", "eq2", "eq3"], "abc", BAD_CAP),
        (["classify", "eq3", "eq13", "--k-max", "0"], None,
         "error: k_max must be >= 1, got 0\n"),
        (["classify", "eq12", "eq13", "--k-max", "0"], None,
         "error: k_max must be >= 1, got 0\n"),
        (["entropy", "empty.json"], None,
         "error: empty.json: JSON input must be a non-empty list\n"),
        (["entropy", "folder"], None,
         "error: folder: cannot read: [Errno 21] Is a directory: 'folder'\n"),
        (["entropy", "zeros.txt", "--normalize"], None,
         "error: zeros.txt: cannot normalize: sum is not positive\n"),
        (["catalyst", "eq2", "eq3", "--find", "--copies", "0"], None,
         "error: copy count must be >= 1, got 0\n"),
        (["classify", "eq12", "eq13"], "abc", BAD_CAP),
        (["classify", "eq2", "eq4"], "abc", BAD_CAP),
        (["catalyst", "eq12", "eq13", "--find"], "abc", BAD_CAP),
        (["compare", "eq2", "eq3"], "abc", BAD_CAP),
        (["entropy", "eq2"], "abc", BAD_CAP),
    ])
    def test_bad_input_exits_2(self, capsys, monkeypatch, tmp_path, argv, env, err):
        (tmp_path / "empty.json").write_text("[]")
        (tmp_path / "folder").mkdir()
        (tmp_path / "zeros.txt").write_text("0\n0\n")
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("LOCC_LAB_MEM_CAP", env)
        assert run(capsys, *argv) == (2, "", err)

    def test_rationals_over_4300_digits_in_messages(self, capsys, tmp_path):
        off = tmp_path / "off.txt"
        off.write_text("0.5\n1e-5000\n")
        total = "5" + "0" * 4998 + "1/1" + "0" * 5000
        deficit = "4" + "9" * 4999 + "/1" + "0" * 5000
        err = f"error: {off}: probabilities sum to {total}, off by {deficit}\n"
        assert run(capsys, "entropy", str(off)) == (2, "", err)
        negative = tmp_path / "negative.txt"
        negative.write_text("0.5\n0.5\n-1e-5000\n")
        err = f"error: {negative}:3: entry 3 is negative: -1/1{'0' * 5000}\n"
        assert run(capsys, "entropy", str(negative)) == (2, "", err)

    def test_other_value_errors_propagate(self, capsys, monkeypatch):
        def broken(args):
            raise ValueError("not an input error")

        monkeypatch.setattr(cli, "_cmd_entropy", broken)
        with pytest.raises(ValueError, match="not an input error"):
            main(["entropy", "eq12"])
        assert capsys.readouterr().err == ""

    def test_broken_scan_invariant_propagates(self, monkeypatch):
        # eq12 -> eq13 carries the decay bound (4/5)^k; a pmax above it is a bug.
        monkeypatch.setattr(multicopy, "vidal_pmax", lambda x, y: 1)
        with pytest.raises(ValueError, match="above bound"):
            main(["scan", "eq12", "eq13", "--k-max", "2"])


def test_console_script_installed():
    exe = shutil.which("locc-lab")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "compare", "eq2", "eq3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Incomparable" in proc.stdout
