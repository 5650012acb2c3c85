import hashlib
import random
import time
from itertools import product

import pytest

from conftest import det_leibniz, schoolbook
from minorcalc.demos import footnote_matrix
from minorcalc.matrix import Matrix, all_subsets
from minorcalc.matrixio import ring_from_spec
from minorcalc.scan import (
    DEFAULT_ENTRY_BOUND,
    ScanReport,
    Violation,
    _pair_pruned_matrices,
    reverify_violation,
    run_scan,
)


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
        # not, with Leibniz determinants and schoolbook powers in ring ops
        ring = ring_from_spec(spec)
        subsets = all_subsets(n)[1:]
        expected, violations = 0, []
        for flat in product(range(ring.modulus), repeat=n * n):
            A = Matrix(ring, [flat[r * n : (r + 1) * n] for r in range(n)])
            if any(det_leibniz(A.submatrix(s, s)) != 1 for s in subsets):
                continue
            expected += 1
            B = A
            for m in (2, 3):
                B = Matrix(ring, schoolbook(B, A))
                for s in subsets:
                    value = det_leibniz(B.submatrix(s, s))
                    if value != 1:
                        violations.append(Violation(A.rows, m, s.members(), value))
        report = run_scan(spec, n, 3, "exhaustive")
        assert report.scanned == ring.modulus ** (n * n)
        assert report.candidates == expected
        assert report.violations == sorted(violations, key=Violation.sort_key)

    @pytest.mark.parametrize("spec,n", [("mod:2", 1), ("mod:5", 1), ("mod:6", 2), ("mod:2", 3),
                                        ("mod:4", 3), ("mod:3", 3)])
    def test_pair_pruned_matrices_match_a_filter_of_the_space(self, spec, n):
        # every matrix of the space with 1s on the diagonal and
        # a_ij * a_ji = 0 for i < j, each once, as row tuples
        ring = ring_from_spec(spec)
        k = ring.modulus
        expected = []
        for flat in product(range(k), repeat=n * n):
            rows = tuple(flat[r * n : (r + 1) * n] for r in range(n))
            if all(rows[i][i] == 1 for i in range(n)) and all(
                rows[i][j] * rows[j][i] % k == 0 for i in range(n) for j in range(i + 1, n)
            ):
                expected.append(rows)
        got = list(_pair_pruned_matrices(ring, n))
        assert all(type(rows) is tuple and all(type(r) is tuple for r in rows) for rows in got)
        assert len(got) == len(set(got))
        assert sorted(got) == expected

    @pytest.mark.parametrize("spec,n,candidates", [("mod:16777216", 1, 1), ("mod:64", 2, 256)])
    def test_large_modulus_under_the_limit_is_quick(self, spec, n, candidates):
        # the zero-product pairs of Z/k are listed only when n >= 2, where
        # the limit keeps k <= 64
        t0 = time.monotonic()
        report = run_scan(spec, n, 2, "exhaustive")
        assert time.monotonic() - t0 < 1.0
        assert report.candidates == candidates

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


def _random_scan_oracle(spec, n, m_max, trials, seed):
    """(scanned, candidates, violations) of a random scan over the
    documented per-trial stream, drawing all n^2 entries of every trial:
    trial k draws from Random(f"{seed}:{k}"), row-major, and every fourth
    trial is unipotent upper triangular.  Leibniz determinants and
    schoolbook powers in ring operations."""
    ring = ring_from_spec(spec)
    if spec == "int":
        entry = lambda rng: rng.randint(-DEFAULT_ENTRY_BOUND, DEFAULT_ENTRY_BOUND)
    else:
        entry = lambda rng: rng.randrange(ring.modulus)
    subsets = all_subsets(n)[1:]
    candidates, violations = 0, []
    for k in range(trials):
        rng = random.Random(f"{seed}:{k}")
        if k % 4 == 3:
            a = [[int(i == j) for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = entry(rng)
        else:
            a = [[entry(rng) for _ in range(n)] for _ in range(n)]
        A = Matrix(ring, a)
        if any(det_leibniz(A.submatrix(s, s)) != 1 for s in subsets):
            continue
        candidates += 1
        B = A
        for m in range(2, m_max + 1):
            B = Matrix(ring, schoolbook(B, A))
            for s in subsets:
                value = det_leibniz(B.submatrix(s, s))
                if value != 1:
                    violations.append(Violation(A.rows, m, s.members(), value))
    return trials, candidates, sorted(violations, key=Violation.sort_key)


@pytest.mark.parametrize("spec", ["int", "mod:2", "mod:4", "mod:6"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_scan_matches_full_draw_oracle(spec, n):
    # trials whose diagonal is not all 1 stop drawing early in the scan;
    # the oracle draws every entry, so the two agree only if the streams do
    for seed in (7, 2024):
        report = run_scan(spec, n, 3, "random", trials=48, seed=seed)
        expected = _random_scan_oracle(spec, n, 3, 48, seed)
        assert (report.scanned, report.candidates, report.violations) == expected


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

    @pytest.mark.parametrize("spec", ["footnote:2", "footnote:3"])
    def test_violations_match_leibniz_oracle(self, spec):
        # independent oracle for the scan over a ring without int kernels:
        # Leibniz determinants and schoolbook powers in the algebra's ring
        # operations, over every nonempty subset
        ring = ring_from_spec(spec)
        A = footnote_matrix(ring)
        subsets = all_subsets(4)[1:]
        assert all(ring.eq(det_leibniz(A.submatrix(s, s)), ring.one()) for s in subsets)
        expected, B = [], A
        for m in (2, 3):
            B = Matrix(ring, schoolbook(B, A))
            for s in subsets:
                value = det_leibniz(B.submatrix(s, s))
                if not ring.eq(value, ring.one()):
                    expected.append(Violation(A.rows, m, s.members(), ring.render(value)))
        report = run_scan(spec, 4, 3)
        assert report.candidates == 1
        assert report.violations == sorted(expected, key=Violation.sort_key)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            run_scan("footnote:2", 3, 2)


def test_mod_violation_reverifies():
    # a hand-made violation record must round-trip through its JSON form and
    # the matrix kernel; the kernel's own oracles are in test_matrix.py
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
        (("mod:3", 3, 4, "exhaustive"),
         "ee9e0cc7abbfa152abc065f6f0c25a2f408ac0dea6279632500b6134129d8b25"),
        (("mod:4", 3, 4, "exhaustive"),
         "06b3f24b5430869d9a49a9fb6f4f191902ee05904a6e757c6f4083e829060972"),
        (("int", 4, 4, "random", 400, 11),
         "ac2318264ea6a4de3b7b30a20b57c888ef2f07344130670b1b0bb0b7051a5c1b"),
        (("mod:4", 5, 4, "random", 400, 3),
         "5f766a3c104f2501aafec827362f86d41e7264c3554b1d0872c5da7fa41c6543"),
        (("footnote:3", 4, 6),
         "c6d63305a16c41e4584bc528e32ca809c31bdf6e717470654be8029a686aae02"),
        (("mod:6", 5, 6, "random", 1000, 21),
         "c3e6ff47a12449b92975bef048208b2087fdeaad38941bdd739f2ce46eb08fb2"),
        (("int", 6, 4, "random", 1000, 23),
         "84ca4570c0b98cd6ec94891b8a805e6d20e8c49aa5aa6c390afb85206d97b259"),
        (("mod:6", 2, 6, "exhaustive"),
         "1e715082f0bc2f012b8c49583c740895874cb0d17d0604bf77fa8c1bfa14ca14"),
    ],
)
def test_report_digest_is_pinned(args, digest):
    # byte-for-byte the reports of earlier kernels: the Z/2 and footnote
    # digests come from scan's former integer-only kernel, the Z/3 and Z/4
    # ones from the ring-op Matrix kernel before its native int path and
    # the pair-pruned enumeration, and the two random ones from the scan
    # that still built a Matrix and a MinorTable for every matrix; the
    # footnote:3, Z/6 and n = 6 ones from the scan that wrapped each
    # candidate in a Matrix for its powers (footnote:3 violates at four
    # masks of A^2, A^4 and A^5)
    report = run_scan(*args)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
