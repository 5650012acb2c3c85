"""Exit-code contract and output checks for every subcommand.

0 = verified / pass, 1 = property violated, 2 = usage or input error,
3 = internal error.
"""

import json
import sys
import time

import pytest

from minorcalc.cli import main


def write_matrix(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


INT_2X2 = {"ring": {"kind": "int"}, "n": 2, "entries": [[1, 2], [3, 4]]}


class TestMinors:
    def test_text_output(self, tmp_path, capsys):
        rc = main(["minors", "--matrix", write_matrix(tmp_path, INT_2X2)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["p{} = 1", "p{1} = 1", "p{2} = 4", "p{1,2} = -2"]

    def test_json_output(self, tmp_path, capsys):
        rc = main(["minors", "--matrix", write_matrix(tmp_path, INT_2X2), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"p{}": "1", "p{1}": "1", "p{2}": "4", "p{1,2}": "-2"}

    def test_bad_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            main(["minors", "--matrix", str(bad)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["minors", "--matrix", str(tmp_path / "nope.json")])
        assert exc.value.code == 2

    def test_nonsquare_rejected(self, tmp_path):
        # a square schema check happens at parse time, so break it there
        data = {"ring": {"kind": "int"}, "n": 2, "entries": [[1, 2]]}
        with pytest.raises(SystemExit) as exc:
            main(["minors", "--matrix", write_matrix(tmp_path, data)])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "data",
    [
        {"ring": {"kind": "int"}, "n": 2, "entries": [[1, None], [3, 4]]},
        [1],
        {"ring": {"kind": "int"}, "n": 2, "entries": [[1, 2.5], [3, 4]]},
        {"ring": {"kind": "mod", "modulus": 4.7}, "n": 1, "entries": [[True]]},
        {"ring": {"kind": "mod", "modulus": 4}, "n": 1, "entries": [[True]]},
        {"ring": {"kind": "int"}, "n": "2", "entries": [[1, 2], [3, 4]]},
        {"ring": {"kind": "footnote"}, "n": 1, "entries": [[[1, 0, 0, 0, 0, 0.5]]]},
        {"ring": {"kind": "footnote"}, "n": 1, "entries": [[False]]},
        {"ring": [], "n": 1, "entries": [[1]]},
        {"ring": {"kind": "int"}, "n": 1, "entries": 7},
        {"ring": {"kind": "int"}, "n": 1, "entries": [1]},
        {"n": 1, "entries": [[1]]},
        {"ring": {"kind": "int"}, "n": 1},
        {"ring": {"kind": "int"}, "n": 9, "entries": [[0] * 9] * 9},
    ],
)
def test_malformed_or_oversized_matrix_is_usage_error(tmp_path, capsys, data):
    for command in (["minors"], ["pow-minors", "-m", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--matrix", write_matrix(tmp_path, data)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cannot read matrix" in captured.err


class TestPowMinors:
    def test_square_of_2x2(self, tmp_path, capsys):
        rc = main(["pow-minors", "--matrix", write_matrix(tmp_path, INT_2X2), "-m", "2"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        # A^2 = [[7,10],[15,22]], det = 4
        assert out == ["p{} = 1", "p{1} = 7", "p{2} = 22", "p{1,2} = 4"]

    def test_negative_power_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["pow-minors", "--matrix", write_matrix(tmp_path, INT_2X2), "-m", "-1"])
        assert exc.value.code == 2

    def test_exact_ints_past_the_str_digit_limit(self, tmp_path, capsys):
        # 2^20000 has 6,021 digits, past Python's default limit of 4,300 for
        # int <-> str conversion; main lifts it, so this is no internal error
        set_limit = getattr(sys, "set_int_max_str_digits", None)
        if set_limit is None:
            pytest.skip("no int <-> str digit limit before Python 3.10.7")
        saved = sys.get_int_max_str_digits()
        set_limit(4300)
        try:
            path = write_matrix(tmp_path, {"ring": {"kind": "int"}, "n": 1, "entries": [[2]]})
            assert main(["pow-minors", "--matrix", path, "-m", "20000"]) == 0
            assert capsys.readouterr().out.splitlines() == ["p{} = 1", f"p{{1}} = {2**20000}"]
            assert main(["pow-minors", "--matrix", path, "-m", "20000", "--json"]) == 0
            assert json.loads(capsys.readouterr().out) == {"p{}": "1", "p{1}": str(2**20000)}
            # a matrix file with such an entry loads too (it used to exit 2)
            set_limit(4300)
            big = tmp_path / "big.json"
            big.write_text('{"ring": {"kind": "int"}, "n": 1, "entries": [[%s]]}' % ("9" * 5000))
            assert main(["minors", "--matrix", str(big)]) == 0
            assert capsys.readouterr().out.splitlines() == ["p{} = 1", "p{1} = " + "9" * 5000]
        finally:
            set_limit(saved)


class TestSynth:
    def test_diag_golden(self, capsys):
        rc = main(["synth", "2", "1", "2"])
        assert rc == 0
        assert capsys.readouterr().out == "P[n=2,i=1,m=2]\np{1}^2 + p{1}*p{2} - p{1,2}\n"

    def test_offdiag_json(self, capsys):
        rc = main(["synth", "2", "1", "2", "--j", "2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2 and payload["i"] == 1 and payload["j"] == 2
        assert len(payload["terms"]) == 1

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "poly.txt"
        rc = main(["synth", "2", "1", "2", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == capsys.readouterr().out

    def test_bad_indices_are_usage_errors(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "3", "5", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["synth", "3", "2", "2", "--j", "2"])
        assert exc.value.code == 2


class TestVerify:
    def test_suite_passes(self, capsys):
        rc = main(["verify", "symbolic", "--n", "2", "--m", "3"])
        assert rc == 0
        assert "PASS: suite symbolic" in capsys.readouterr().out

    def test_random_suite_with_options(self, capsys):
        rc = main(["verify", "random", "--ring", "mod4", "--trials", "20",
                   "--n", "3", "--m", "3", "--seed", "7"])
        assert rc == 0

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "no-such-suite"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "random", "--n", "0"],
        ["verify", "offdiag", "--n", "1"],
        ["verify", "symbolic", "--n", "-1"],
        ["verify", "charpoly", "--ring", "mod4"],
        ["scan", "--ring", "mod:4", "--n", "3", "--mode", "random", "--trials", "-5"],
        ["scan", "--ring", "mod:2", "--n", "0"],
        ["synth", "22", "1", "1"],
        ["synth", "8", "1", "9"],
        ["synth", "7", "1", "10"],
        ["synth", "6", "1", "12"],
        ["synth", "5", "1", "20"],
        ["synth", "8", "1", "9", "--j", "2"],
        ["synth", "2", "1", "2", "--out", "/nonexistent/x.txt"],
        ["verify", "symbolic", "--n", "9"],
        ["scan", "--ring", "int", "--n", "20", "--mode", "random", "--trials", "4"],
        ["scan", "--ring", "int", "--n", "2", "--mode", "random", "--entry-bound", "-3"],
        ["scan", "--ring", "mod:2", "--n", "2", "--mode", "random", "--entry-bound", "-3"],
    ],
)
def test_out_of_range_input_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "spec", ["mod:1_6", "mod: +3", "mod:x", "mod:", "mod:2:3", "footnote:x", "mod:\u0663"]
)
def test_malformed_ring_spec_is_usage_error(spec, capsys):
    # int() would read "1_6" as 16, " +3" as 3 and the Arabic-Indic digit as 3
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--ring", spec, "--n", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ring spec {spec!r}" in captured.err


class TestExampleCD:
    def test_symbolic(self, capsys):
        rc = main(["example-cd"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "identical: True" in out
        assert "differ: True" in out

    def test_numeric(self, capsys):
        rc = main(["example-cd", "--values", "1", "2", "3", "4", "5", "6", "7", "8"])
        assert rc == 0
        assert "differ: True" in capsys.readouterr().out

    def test_substitution_collapses(self, capsys):
        rc = main(["example-cd", "--set", "q=r"])
        assert rc == 0
        assert "differ: False" in capsys.readouterr().out

    def test_bad_substitution(self):
        with pytest.raises(SystemExit) as exc:
            main(["example-cd", "--set", "q=z"])
        assert exc.value.code == 2


class TestCounterexample:
    def test_reproduces(self, capsys):
        rc = main(["counterexample"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all principal minors of A equal 1: True" in out
        assert "{2,3} principal minor of A^2: 1 + x^3" in out
        assert "counterexample reproduced" in out

    def test_other_base_field(self, capsys):
        rc = main(["counterexample", "--base", "3"])
        assert rc == 0

    def test_composite_base_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--base", "4"])
        assert exc.value.code == 2

    def test_large_prime_base_is_quick(self, capsys):
        t0 = time.perf_counter()
        rc = main(["counterexample", "--base", "1000000000000000003"])
        assert rc == 0
        assert time.perf_counter() - t0 < 2
        assert "over F_1000000000000000003" in capsys.readouterr().out


class TestScan:
    def test_clean_scan_exits_zero(self, capsys):
        rc = main(["scan", "--ring", "mod:2", "--n", "2", "--m-max", "3"])
        assert rc == 0
        assert "violations: 0" in capsys.readouterr().out

    def test_modulus_beyond_the_primality_test_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--ring", "mod:3317044064679887385961981", "--n", "2",
                  "--mode", "random", "--trials", "1"])
        assert exc.value.code == 2
        assert "cannot decide whether" in capsys.readouterr().err

    def test_footnote_scan_exits_one(self, capsys):
        rc = main(["scan", "--ring", "footnote:2", "--n", "4", "--m-max", "2"])
        assert rc == 1
        assert "1 + x^3" in capsys.readouterr().out

    def test_json_report(self, capsys):
        rc = main(["scan", "--ring", "mod:2", "--n", "2", "--m-max", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scanned"] == 16

    def test_elapsed_goes_to_stderr(self, capsys):
        main(["scan", "--ring", "mod:2", "--n", "2", "--m-max", "2"])
        captured = capsys.readouterr()
        assert "elapsed" not in captured.out
        assert "elapsed" in captured.err

    def test_bad_ring_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--ring", "gf:9", "--n", "2"])
        assert exc.value.code == 2

    def test_oversized_exhaustive_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--ring", "mod:3", "--n", "4"])
        assert exc.value.code == 2


def test_internal_error_exits_three(monkeypatch, capsys):
    import minorcalc.cli as cli

    def broken(**kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "run_scan", broken)
    rc = main(["scan", "--ring", "mod:2", "--n", "2"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: internal error: RuntimeError: injected fault" in captured.err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
