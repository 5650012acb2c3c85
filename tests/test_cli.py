"""Exit-code contract and output checks for every subcommand.

0 = verified / pass, 1 = property violated, 2 = usage or input error,
3 = internal error.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import minorcalc
from minorcalc import cli, suites
from minorcalc.cli import main
from minorcalc.matrixio import MAX_FILE_DIGITS


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

    def test_oversized_entry_is_quick_usage_error(self, tmp_path, capsys):
        # converting a 1,000,000-digit entry to int and back took 25 s
        big = tmp_path / "big.json"
        big.write_text('{"ring": {"kind": "int"}, "n": 1, "entries": [[%s]]}' % ("9" * 10**6))
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["minors", "--matrix", str(big)])
        assert time.perf_counter() - t0 < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {MAX_FILE_DIGITS} digits" in captured.err


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

    def test_oversized_integer_power_is_quick_usage_error(self, tmp_path, capsys):
        # the Fibonacci entries of [[1,1],[1,0]]^16000000 have 3.3 million
        # digits, which take minutes to compute and print
        fib = {"ring": {"kind": "int"}, "n": 2, "entries": [[1, 1], [1, 0]]}
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["pow-minors", "--matrix", write_matrix(tmp_path, fib), "-m", "16000000"])
        assert time.perf_counter() - t0 < 1
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than {MAX_FILE_DIGITS} digits" in captured.err
        # just under the bound the command runs; Z/k entries do not grow
        assert main(["pow-minors", "--matrix", write_matrix(tmp_path, fib), "-m", "80000"]) == 0
        assert len(capsys.readouterr().out) < MAX_FILE_DIGITS
        mod4 = dict(fib, ring={"kind": "mod", "modulus": 4})
        assert main(["pow-minors", "--matrix", write_matrix(tmp_path, mod4), "-m", "16000000"]) == 0
        assert capsys.readouterr().out.splitlines() == ["p{} = 1", "p{1} = 1", "p{2} = 2", "p{1,2} = 1"]

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
    def test_suite_names_are_the_suites(self):
        assert list(cli.SUITE_NAMES) == sorted(suites.SUITES)

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


# the modules bench/tracer.py reads after `import minorcalc.cli`, and the
# names it patches in each
TRACED_NAMES = {
    "poly": ("Polynomial.__mul__", "Polynomial.__add__", "Polynomial.eval", "Polynomial.__str__"),
    "series": ("TruncatedSeries.inverse", "TruncatedSeries.__mul__"),
    "matrix": ("Matrix.principal_minors", "Matrix.pow", "Matrix.mul"),
    "rings": ("IntegerRing.mul", "ModularRing.mul", "FootnoteAlgebra.mul"),
    "universal": ("synth_diag", "synth_diag.cache_info", "synth_offdiag", "eval_universal"),
    "scan": ("run_scan",),
    "matrixio": ("load_matrix_file",),
}


def test_cli_import_loads_traced_modules_and_defers_the_rest():
    # a fresh interpreter, so that modules the tests imported do not count
    code = ("import sys; before = set(sys.modules); import minorcalc.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(minorcalc.__file__).parents[1]))
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert {f"minorcalc.{name}" for name in TRACED_NAMES} <= loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "minorcalc.suites",
                         "minorcalc.demos"}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in TRACED_NAMES.items() for n in names])
def test_traced_names_stay_in_place(module, name):
    owner = sys.modules[f"minorcalc.{module}"]
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# the names of minorcalc.universal that bench/workloads.py reads besides
# the traced ones; body is a cached_property, found on the class but not
# callable there
WORKLOAD_NAMES = (
    "UniversalPolynomial.body",
    "UniversalPolynomial.serialize",
    "OffDiagCertificate.to_json",
    "synth_diag.cache_clear",
    "synth_offdiag.cache_clear",
)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_names_stay_in_place(name):
    owner = sys.modules["minorcalc.universal"]
    *path, last = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert hasattr(owner, last)
    assert last == "body" or callable(getattr(owner, last))


# The algebra commands whose stdout and exit code stay byte-identical:
# minor tables and powers of seeded matrix files over the quotient algebra
# on F_2 and F_3, the counterexample on four base fields and the scan of
# its family.  Each value is (exit code, sha256 of stdout).
def _algebra_matrix(modulus: int, n: int) -> dict:
    """A seeded n x n file over the algebra on F_modulus: about a third
    of the entries are 0, the rest coordinate vectors in -3..3, which
    loading reduces mod the modulus."""
    rng = random.Random(1000 * modulus + n)
    entries = [[[0] * 6 if rng.randrange(3) == 0 else [rng.randrange(-3, 4) for _ in range(6)]
                for _ in range(n)] for _ in range(n)]
    return {"ring": {"kind": "footnote", "modulus": modulus}, "n": n, "entries": entries}


def _algebra_commands():
    for modulus in (2, 3):
        for n in (1, 3, 5, 6):
            for command in (["minors"], ["minors", "--json"],
                            *(["pow-minors", "-m", str(m)] for m in range(7))):
                yield f"{' '.join(command)} footnote:{modulus} n={n}", command, (modulus, n)
    for base in (2, 3, 5, 101):
        yield f"counterexample --base {base}", ["counterexample", "--base", str(base)], None
    for m_max in (2, 4):
        for extra in ([], ["--json"]):
            argv = ["scan", "--ring", "footnote:2", "--n", "4", "--m-max", str(m_max), *extra]
            yield " ".join(argv), argv, None


ALGEBRA_OUTPUTS = {
    "minors footnote:2 n=1": (0, "fc0e0a7cf008803fdd888984229a3445ac50733dc3e05a28317f9744fe5e3c8a"),
    "minors --json footnote:2 n=1": (0, "efb1c51ad40d7034f26e3ca664cdae2d937ed0586797f6b88ae64fd0002c44c1"),
    "pow-minors -m 0 footnote:2 n=1": (0, "080055897a1cd98858cc254d322bd063dfa67573955fa476cde6466b083b48ba"),
    "pow-minors -m 1 footnote:2 n=1": (0, "fc0e0a7cf008803fdd888984229a3445ac50733dc3e05a28317f9744fe5e3c8a"),
    "pow-minors -m 2 footnote:2 n=1": (0, "43471fad0c38c6ed140740764dfc54e4cde00c8ed2366de5ffbaaf1eafdf9119"),
    "pow-minors -m 3 footnote:2 n=1": (0, "937f2d0ff475882526103b233321384ee8aa2cda8bec667b96d049cb8a65d8b5"),
    "pow-minors -m 4 footnote:2 n=1": (0, "080055897a1cd98858cc254d322bd063dfa67573955fa476cde6466b083b48ba"),
    "pow-minors -m 5 footnote:2 n=1": (0, "fc0e0a7cf008803fdd888984229a3445ac50733dc3e05a28317f9744fe5e3c8a"),
    "pow-minors -m 6 footnote:2 n=1": (0, "43471fad0c38c6ed140740764dfc54e4cde00c8ed2366de5ffbaaf1eafdf9119"),
    "minors footnote:2 n=3": (0, "d483e88a36967b41ccd4f56270d25415c9716ee8acf87163069a8d959d04410f"),
    "minors --json footnote:2 n=3": (0, "e4c3939d8144fd06280624987febbb9dcc9cadeae43226d616ebdc5239bb08a6"),
    "pow-minors -m 0 footnote:2 n=3": (0, "85bbc1786b8291370423aaf679c43aec1612f274d2781bf28740011f7e65d3d2"),
    "pow-minors -m 1 footnote:2 n=3": (0, "d483e88a36967b41ccd4f56270d25415c9716ee8acf87163069a8d959d04410f"),
    "pow-minors -m 2 footnote:2 n=3": (0, "f6e8f5165b964715a1d53ef47fb67e45357dd30c764ea5839d16acead8136547"),
    "pow-minors -m 3 footnote:2 n=3": (0, "5a59422dcb2edb53af5bfdf5612d5cd1c918ca8a3719aa6c0b82cc29d5ffcf3c"),
    "pow-minors -m 4 footnote:2 n=3": (0, "e781d334ad19eff0de303de3b7a4be390337368b6bef9eae64b6ea4a84cb79f3"),
    "pow-minors -m 5 footnote:2 n=3": (0, "32b2e128e2c9023fb3115977e9e0f73934863f61f6cd5d6e8f490aca2acf2999"),
    "pow-minors -m 6 footnote:2 n=3": (0, "49a3c436f3ea7f5e8d38d0777ffe6531ee1aabdf25aed7a62068ed730bc04d23"),
    "minors footnote:2 n=5": (0, "e521669484da4d213809e09eab48190ea65dee0e7d728abd8fa2ece12154f5be"),
    "minors --json footnote:2 n=5": (0, "f1a2c7c77f1175f9d0028fbdc4879cb848af121cd5fb73bc1c89bf53a4d896b0"),
    "pow-minors -m 0 footnote:2 n=5": (0, "b954119fe944666a32985d6cc800e7be29778e635ee9e91f2d23a2de615f0097"),
    "pow-minors -m 1 footnote:2 n=5": (0, "e521669484da4d213809e09eab48190ea65dee0e7d728abd8fa2ece12154f5be"),
    "pow-minors -m 2 footnote:2 n=5": (0, "b03950135fb1f12fdc6e07f8f00790a72ff92297a0226e80cee7d73f5dae76b5"),
    "pow-minors -m 3 footnote:2 n=5": (0, "f02a7b3bfb01f9178527992ff238b8d3540c98b74c7854901adcf59566b97c55"),
    "pow-minors -m 4 footnote:2 n=5": (0, "0b718c8833e11aac1419afcc075b5a96f7de4478f90e49c762af711d13e19b31"),
    "pow-minors -m 5 footnote:2 n=5": (0, "a9c321c6505304438f2e415cb842d83c0de1ee7947694a639e67da7f042f5cdb"),
    "pow-minors -m 6 footnote:2 n=5": (0, "7b83ab084e509adc676f0274515340d3f609b80343c2957265ec4ce351444ca8"),
    "minors footnote:2 n=6": (0, "2373d3958b135b1124366969cdd8610bf7061b39dded5146a0b81d3427439fa5"),
    "minors --json footnote:2 n=6": (0, "6b7d4151f228336be06084d664720a7af1074548f2deae44caefd2cb62cea4cc"),
    "pow-minors -m 0 footnote:2 n=6": (0, "13d23d98128544d09af512f4a3c330e39097f3af8df8c6a81df865e92eb16fe7"),
    "pow-minors -m 1 footnote:2 n=6": (0, "2373d3958b135b1124366969cdd8610bf7061b39dded5146a0b81d3427439fa5"),
    "pow-minors -m 2 footnote:2 n=6": (0, "15b34450e985b47ceda6c1036bb3020262f9f40bf5ce54568600da34e13c0351"),
    "pow-minors -m 3 footnote:2 n=6": (0, "7635373abb6a68f4ee3394e8c694b3e9254ea0e1e692216e0897342bd4466cc4"),
    "pow-minors -m 4 footnote:2 n=6": (0, "142cf8c5f8946044b08f24aa43deae55093a6ca1291758b7084615b4c7b48b0c"),
    "pow-minors -m 5 footnote:2 n=6": (0, "27fbab0462a5d224e284c1c39fa069641dee86ca3f00dcfacb6d815dbec6f83b"),
    "pow-minors -m 6 footnote:2 n=6": (0, "b049ba75a6848fdc923fe7e511e5bff3c99aba703eaad1daf8340c592ec45f8d"),
    "minors footnote:3 n=1": (0, "ff65336f65618dbc2a7061b9b867bba442bd415e5827ed3651bbf5f95c57ffa8"),
    "minors --json footnote:3 n=1": (0, "08d1df3b136c62768ad3c9bee919dc3225688ad83a60907ab66eedf261cfb35f"),
    "pow-minors -m 0 footnote:3 n=1": (0, "080055897a1cd98858cc254d322bd063dfa67573955fa476cde6466b083b48ba"),
    "pow-minors -m 1 footnote:3 n=1": (0, "ff65336f65618dbc2a7061b9b867bba442bd415e5827ed3651bbf5f95c57ffa8"),
    "pow-minors -m 2 footnote:3 n=1": (0, "fd3c632efebc60e3692772c13d5476197d0ac66cc87f8058299182659e832301"),
    "pow-minors -m 3 footnote:3 n=1": (0, "a3ddb0cc348c69088957cd887e60e47b4541a4bbeb49da3d7a3ecbf986386c6d"),
    "pow-minors -m 4 footnote:3 n=1": (0, "091c85aef0c24ba5570b44de8bed50f25a35336ac5e41f6b902223578966e965"),
    "pow-minors -m 5 footnote:3 n=1": (0, "d780f69082de1158f4d12197cae3d2b91d24d3d36b2c1d73b0f2bf01d00d8bb4"),
    "pow-minors -m 6 footnote:3 n=1": (0, "1b2b4aa8a4ea23686ab237e4b71d369783d7a24a6171e5a43048f277a498a981"),
    "minors footnote:3 n=3": (0, "15edf8cefa968fa2d0eec9637834705ad1a8f582bea73f81e3ba33a066829e2d"),
    "minors --json footnote:3 n=3": (0, "3673ce33ea2864b8dc3596f7885d5e45e1ac22878a771675bc4a35bb0650cb36"),
    "pow-minors -m 0 footnote:3 n=3": (0, "85bbc1786b8291370423aaf679c43aec1612f274d2781bf28740011f7e65d3d2"),
    "pow-minors -m 1 footnote:3 n=3": (0, "15edf8cefa968fa2d0eec9637834705ad1a8f582bea73f81e3ba33a066829e2d"),
    "pow-minors -m 2 footnote:3 n=3": (0, "6fbe8ff76fd35c881651bfff5c25150c35bbdf225f89498b7988a48863ac4844"),
    "pow-minors -m 3 footnote:3 n=3": (0, "d746dacb9c1bb92c0b6e3e60bf6897d3982b3cc5e76e7d923982547a5fe9c02a"),
    "pow-minors -m 4 footnote:3 n=3": (0, "46eec9af064fc7c50d6b6d61bdd80e7843e10e44b943f64980bd24e2ffc4d892"),
    "pow-minors -m 5 footnote:3 n=3": (0, "de20bc3b1cac13cb80b99a789e97284e07cfe012c095b4c81b84bb3488fa1e80"),
    "pow-minors -m 6 footnote:3 n=3": (0, "fa451454cb4ee36f48e636ade4a06475d353438f35dba67460e09e1a5dcc4cf2"),
    "minors footnote:3 n=5": (0, "3a54b83c463007b29c9984e54e9a2def8ef759c6f706976bd33a16e5351a07d8"),
    "minors --json footnote:3 n=5": (0, "0c3c546f170a6706100454a56bb726ccc03b8888da2c7d25cf6f3e14a103ac3a"),
    "pow-minors -m 0 footnote:3 n=5": (0, "b954119fe944666a32985d6cc800e7be29778e635ee9e91f2d23a2de615f0097"),
    "pow-minors -m 1 footnote:3 n=5": (0, "3a54b83c463007b29c9984e54e9a2def8ef759c6f706976bd33a16e5351a07d8"),
    "pow-minors -m 2 footnote:3 n=5": (0, "79d47502c5cf3d6890496fea5d05934121fa4a3b6533442eec1e291062e9fc53"),
    "pow-minors -m 3 footnote:3 n=5": (0, "cee992ef910a239d3e1340c1f60e4cf339b3a1d97e1c5479a30c1ffbde8cfb32"),
    "pow-minors -m 4 footnote:3 n=5": (0, "492e53d1016757da2cceabbe0a7447569f3d23cd046a903848d1b505c1db9900"),
    "pow-minors -m 5 footnote:3 n=5": (0, "cbd72f8a78aa29de1c02ea0c9695434d03812a9bd450ad4a4923c8a01547d296"),
    "pow-minors -m 6 footnote:3 n=5": (0, "a2714a6ec52ed797487a4b9ea9edc0c0044d8a3605d9fdf417e776ec0e04d6a7"),
    "minors footnote:3 n=6": (0, "04aed117f3f2c8862b5993dc85d8bc7ef7323fac97752c14f2c3a5e1f6a35c6f"),
    "minors --json footnote:3 n=6": (0, "c8ce8200a66e4a83c8b3e8207b695b90ff2f142cb0d7ef063c06722ff90d3fd4"),
    "pow-minors -m 0 footnote:3 n=6": (0, "13d23d98128544d09af512f4a3c330e39097f3af8df8c6a81df865e92eb16fe7"),
    "pow-minors -m 1 footnote:3 n=6": (0, "04aed117f3f2c8862b5993dc85d8bc7ef7323fac97752c14f2c3a5e1f6a35c6f"),
    "pow-minors -m 2 footnote:3 n=6": (0, "65cc0d844533d76cee2db8877637ea23e30f6909c11296f7a9477cdd0642c79a"),
    "pow-minors -m 3 footnote:3 n=6": (0, "83118d129acac6e0b3f3dd45e24c550b8cd7c13debed5a3904e3eb0fc72649a1"),
    "pow-minors -m 4 footnote:3 n=6": (0, "0e892b8e473a2edce22bb1eec8247cebdc364bd910babfb1a32db26f83cbfd2d"),
    "pow-minors -m 5 footnote:3 n=6": (0, "c2f529dc311dd4ca7193eaa06c9482d23aebeb927f62e1e34d6e702d1a79238e"),
    "pow-minors -m 6 footnote:3 n=6": (0, "03ef2e49cf2bfba2cbcd0a38eb53b571b5812beeed1998f2d3f6e2f7d99c4acc"),
    "counterexample --base 2": (0, "947fcfc9ad9233019e5322df9d753aca914672d09a58b46dba12bba91b06c2ba"),
    "counterexample --base 3": (0, "64f60dd08145e2cdecccd9931e471c045e2b09fc16345c3833783b409be103d5"),
    "counterexample --base 5": (0, "0b1c19fd53737f5b61f976e1965fc48f9801674548f849a774324778ccc13e5f"),
    "counterexample --base 101": (0, "c7123d72edcc2ac1a76886d6ee7fb61a7fa19c7d9e498efe9ec998f2d6a528b5"),
    "scan --ring footnote:2 --n 4 --m-max 2": (1, "06cb462aa8e6f204598830d85a459727065fd569c7aef3bc9eef44d253e36047"),
    "scan --ring footnote:2 --n 4 --m-max 2 --json": (1, "896be50bb54968c3616b0c0f52d708a9dad7745462722975031a0cabc8256a5d"),
    "scan --ring footnote:2 --n 4 --m-max 4": (1, "fe96917173f82170bddebeca4d8db4a23445c987fabbfaea3974a13f2ff1df50"),
    "scan --ring footnote:2 --n 4 --m-max 4 --json": (1, "ad53aae8e83caf23564144ce69acc8268da05318137bfdd35231e8613a61982a"),
}


@pytest.mark.parametrize(
    "argv,matrix,expected",
    [pytest.param(argv, matrix, ALGEBRA_OUTPUTS[name], id=name) for name, argv, matrix in _algebra_commands()],
)
def test_algebra_outputs_are_pinned(tmp_path, capsys, argv, matrix, expected):
    if matrix is not None:
        argv = [*argv, "--matrix", write_matrix(tmp_path, _algebra_matrix(*matrix))]
    rc = main(argv)
    assert (rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == expected
