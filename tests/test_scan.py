import hashlib

import pytest

from minorcalc.scan import ScanReport, Violation, reverify_violation, run_scan


class TestExhaustiveScan:
    def test_z2_n3_no_violations(self):
        report = run_scan("mod:2", 3, 4, "exhaustive")
        assert report.scanned == 512
        assert report.candidates > 0
        assert report.violations == []
        assert not report.exploratory

    @pytest.mark.parametrize("spec,n", [("mod:2", 2), ("mod:2", 3), ("mod:3", 2), ("mod:4", 2)])
    def test_z2_n2_candidate_count_matches_bruteforce(self, spec, n):
        # independent oracle: every matrix of the space, unit diagonal or
        # not, through the generic minor table
        from minorcalc.matrix import Matrix
        from minorcalc.matrixio import ring_from_spec
        from itertools import product

        ring = ring_from_spec(spec)
        expected = 0
        for flat in product(range(ring.modulus), repeat=n * n):
            A = Matrix.from_ints(ring, [flat[r * n : (r + 1) * n] for r in range(n)])
            if A.principal_minors().all_equal(1):
                expected += 1
        report = run_scan(spec, n, 3, "exhaustive")
        assert report.scanned == ring.modulus ** (n * n)
        assert report.candidates == expected

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            run_scan("mod:3", 4, 2, "exhaustive")


class TestRandomScan:
    def test_mod4_exploratory_label(self):
        report = run_scan("mod:4", 3, 3, "random", trials=100, seed=1)
        assert report.exploratory
        assert "EXPLORATORY" in report.to_text()

    def test_mod2_random_clean(self):
        report = run_scan("mod:2", 4, 4, "random", trials=200, seed=3)
        assert report.violations == []

    def test_integers_random_clean(self):
        report = run_scan("int", 3, 4, "random", trials=100, seed=5)
        assert report.violations == []
        assert not report.exploratory

    def test_unipotent_seeds_produce_candidates(self):
        report = run_scan("int", 4, 2, "random", trials=40, seed=0)
        # every 4th trial is unipotent triangular, hence a candidate
        assert report.candidates >= 10

    def test_determinism(self):
        a = run_scan("mod:4", 3, 3, "random", trials=150, seed=42)
        b = run_scan("mod:4", 3, 3, "random", trials=150, seed=42)
        assert a.to_json() == b.to_json()
        assert a.to_text() == b.to_text()

    def test_exhaustive_integer_ring_rejected(self):
        with pytest.raises(ValueError):
            run_scan("int", 3, 3, "exhaustive")


class TestFootnoteScan:
    def test_builtin_family_violates_at_power_two(self):
        report = run_scan("footnote:2", 4, 2)
        assert report.scanned == 1
        assert report.candidates == 1
        hits = {(v.power, v.subset) for v in report.violations}
        assert (2, (2, 3)) in hits
        values = {v.value for v in report.violations}
        assert values == {"1 + x^3"}

    def test_violations_reverify(self):
        report = run_scan("footnote:2", 4, 2)
        assert report.violations
        for violation in report.violations:
            assert reverify_violation("footnote:2", violation)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            run_scan("footnote:2", 3, 2)


def test_mod_violation_reverifies():
    # a hand-made violation record must round-trip through the generic kernel
    violation = Violation(matrix=((1, 1), (0, 1)), power=2, subset=(1,), value=1)
    assert reverify_violation("mod:4", violation)
    bogus = Violation(matrix=((1, 1), (0, 1)), power=2, subset=(1,), value=3)
    assert not reverify_violation("mod:4", bogus)


def test_report_json_shape():
    report = run_scan("mod:2", 2, 2, "exhaustive")
    import json

    payload = json.loads(report.to_json())
    assert payload["ring"] == "Z/2"
    assert payload["mode"] == "exhaustive"
    assert payload["candidates"] <= payload["scanned"]
    assert "elapsed" not in payload  # kept out of the report for determinism


@pytest.mark.parametrize(
    "args,digest",
    [
        (("mod:2", 3, 4, "exhaustive"),
         "1915c86eb552ff5b8e9310affec1d23e1ff1713effa08d5825c7cdd0052eca97"),
        (("footnote:2", 4, 2),
         "c4676d761b4fb0d581c599f4175e0a1f6bf2db76de0b48f89a428543ea550893"),
    ],
)
def test_report_digest_is_pinned(args, digest):
    # byte-for-byte the reports of the integer-kernel scan this replaced
    report = run_scan(*args)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
