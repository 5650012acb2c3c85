import hashlib
import json
import random
from collections import Counter
from contextlib import contextmanager
from functools import lru_cache, reduce
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IntOps, diag_oracle, minor_assignment, offdiag_oracle
from minorcalc.matrix import Matrix, Subset, all_subsets, diag_reindex, quasiprincipal_minor
from minorcalc.poly import POLY_RING, Polynomial, pvar, qvar, var_key
from minorcalc.rings import FootnoteAlgebra, IntegerRing, ModularRing, PrimeField, RationalField, int_modulus
from minorcalc import suites, universal
from minorcalc.series import TruncatedSeries
from minorcalc.universal import (
    OffDiagCertificate,
    eval_certificate,
    eval_universal,
    generic_matrix,
    offdiag_series_coeffs,
    synth_diag,
    synth_offdiag,
    verify_symbolic,
)

Z = IntegerRing()


def P(name):
    return Polynomial.variable(name)


def coeff_texts(cert) -> list:
    """The printed coefficient of each term of a certificate, in order."""
    return [t["coeff"] for t in json.loads(cert.to_json())["terms"]]


def coeffs(cert) -> list:
    """The coefficient of each term of a certificate, expanded from the
    types of its order and signed."""
    groups = universal._units_by_size(cert.n, bool)
    return [sign * universal._expand(cert.types[r], groups, cert.n) for sign, r, _ in cert.terms]


class TestGenericMatrix:
    def test_size_zero(self):
        A = generic_matrix(0)
        assert (A.nrows, A.ncols) == (0, 0)

    def test_entries_are_distinct_variables(self):
        A = generic_matrix(2)
        assert [[str(v) for v in row] for row in A.rows] == [
            ["x{1,1}", "x{1,2}"],
            ["x{2,1}", "x{2,2}"],
        ]

    def test_full_minor_is_determinant_polynomial(self):
        table = generic_matrix(2).principal_minors()
        assert str(table[Subset.full(2)]) == "x{1,1}*x{2,2} - x{1,2}*x{2,1}"


class TestSynthDiag:
    def test_power_zero_is_one(self):
        for n in (1, 3, 5):
            for i in range(1, n + 1):
                assert synth_diag(n, i, 0).body == 1
                assert synth_diag(n, i, 0).serialize() == f"P[n={n},i={i},m=0]\n1\n"

    def test_power_one_is_diagonal_symbol(self):
        for n in (1, 2, 4):
            for i in range(1, n + 1):
                assert synth_diag(n, i, 1).body == P(pvar([i]))

    def test_square_closed_form_n2(self):
        assert str(synth_diag(2, 1, 2).body) == "p{1}^2 + p{1}*p{2} - p{1,2}"

    def test_cube_closed_form_n2(self):
        # (p1+p2)^2 p1 - p12 (2 p1 + p2), expanded to canonical form
        expected = (P("p{1}") + P("p{2}")) ** 2 * P("p{1}") - P("p{1,2}") * (
            2 * P("p{1}") + P("p{2}")
        )
        assert synth_diag(2, 1, 3).body == expected

    def test_header_and_serialization(self):
        u = synth_diag(2, 1, 2)
        assert u.serialize() == "P[n=2,i=1,m=2]\np{1}^2 + p{1}*p{2} - p{1,2}\n"

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            synth_diag(0, 1, 2)
        with pytest.raises(ValueError):
            synth_diag(3, 4, 2)
        with pytest.raises(ValueError):
            synth_diag(3, 1, -1)


class TestVerifySymbolic:
    def test_single_variable(self):
        assert verify_symbolic(1, 1, 5)

    def test_paper_square_case(self):
        assert verify_symbolic(2, 1, 2)

    def test_three_by_three_cube(self):
        assert verify_symbolic(3, 2, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_small_grid(self, n, m):
        assert all(verify_symbolic(n, i, m) for i in range(1, n + 1))


class TestEvalUniversal:
    def test_concrete_square(self):
        A = Matrix.from_ints(Z, [[1, 2], [3, 4]])
        # oracle: (A^2)_{1,1} by direct multiplication
        assert A.pow(2).entry(1, 1) == 7
        value = eval_universal(synth_diag(2, 1, 2), A.principal_minors(), Z)
        assert value == 7

    def test_all_ones_table_gives_one(self):
        ones = {pvar(s.members()): 1 for s in all_subsets(3) if len(s) > 0}
        for m in range(6):
            for i in range(1, 4):
                assert synth_diag(3, i, m).body.eval(ones, Z) == 1

    def test_power_one_reads_table(self):
        rng = random.Random(4)
        A = Matrix.from_ints(Z, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        table = A.principal_minors()
        for i in range(1, 4):
            assert eval_universal(synth_diag(3, i, 1), table, Z) == A.entry(i, i)

    def test_size_mismatch(self):
        A = Matrix.from_ints(Z, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            eval_universal(synth_diag(3, 1, 2), A.principal_minors(), Z)

    def test_ring_mismatch(self):
        # unchecked, a Z/4 table read over Z gives a wrong value and a
        # quotient-algebra table fails with a TypeError inside the arithmetic
        mod4 = Matrix.from_ints(ModularRing(4), [[1, 2], [3, 0]]).principal_minors()
        footnote = suites.random_matrix(FootnoteAlgebra(), 2, random.Random(2)).principal_minors()
        for table in (mod4, footnote):
            with pytest.raises(ValueError, match="minor table over"):
                eval_universal(synth_diag(2, 1, 2), table, Z)
        with pytest.raises(ValueError, match="minor table over"):
            eval_universal(synth_diag(2, 1, 2), mod4, PrimeField(2))
        assert eval_universal(synth_diag(2, 1, 2), mod4, ModularRing(4)) == 3

    def test_defining_identity_random_rings(self):
        rings = [
            Z,
            PrimeField(2),
            ModularRing(4),
            PrimeField(101),
            FootnoteAlgebra(),
            FootnoteAlgebra(PrimeField(3)),
            FootnoteAlgebra(RationalField()),
        ]
        from minorcalc.suites import random_matrix

        for ring in rings:
            rng = random.Random(11)
            for _ in range(15):
                n = rng.randint(1, 4)
                m = rng.randint(0, 5)
                A = random_matrix(ring, n, rng)
                table = A.principal_minors()
                power = A.pow(m)
                for i in range(1, n + 1):
                    got = eval_universal(synth_diag(n, i, m), table, ring)
                    assert ring.eq(got, power.entry(i, i))

    def test_minor_assignment_names_every_nonempty_subset(self):
        rng = random.Random(14)
        A = Matrix.from_ints(Z, [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        table = A.principal_minors()
        want = {pvar(s.members()): table[s] for s in all_subsets(4) if len(s) > 0}
        got = minor_assignment(A)
        assert list(got.items()) == list(want.items())

    def test_reduction_commutes_with_evaluation(self):
        # evaluating over Z then reducing mod 4 equals evaluating the
        # reduced matrix over Z/4
        mod4 = ModularRing(4)
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = rng.randint(0, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            A = Matrix.from_ints(Z, rows)
            B = Matrix.from_ints(mod4, rows)
            for i in range(1, n + 1):
                over_z = eval_universal(synth_diag(n, i, m), A.principal_minors(), Z)
                over_mod = eval_universal(synth_diag(n, i, m), B.principal_minors(), mod4)
                assert over_z % 4 == over_mod


class TestSynthOffdiag:
    def test_power_one_is_entry(self):
        cert = synth_offdiag(2, 1, 2, 1)
        assert len(cert.terms) == 1
        sign, r, (I, J) = cert.terms[0]
        assert (sign, r) == (1, 0) and coeffs(cert) == [1]
        assert coeff_texts(cert) == ["1"] == [str(c) for c, _ in offdiag_oracle(2, 1, 2, 1)]
        assert (I.members(), J.members()) == ((1,), (2,))

    def test_power_two_n2(self):
        cert = synth_offdiag(2, 1, 2, 2)
        assert len(cert.terms) == 1
        sign, r, (I, J) = cert.terms[0]
        assert (sign, r) == (1, 1) and coeffs(cert) == [P("p{1}") + P("p{2}")]
        assert coeff_texts(cert) == ["p{1} + p{2}"] == [str(c) for c, _ in offdiag_oracle(2, 1, 2, 2)]
        assert (I.members(), J.members()) == ((1,), (2,))

    def test_power_zero_empty(self):
        cert = synth_offdiag(3, 2, 3, 0)
        assert cert.terms == ()
        A = generic_matrix(3)
        assert eval_certificate(cert, A) == POLY_RING.zero()

    def test_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            synth_offdiag(3, 2, 2, 1)

    def test_symbols_are_valid_quasiprincipal_pairs(self):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for m in range(1, 4):
                        cert = synth_offdiag(n, i, j, m)
                        for *_, (I, J) in cert.terms:
                            assert i in I and j in J
                            assert len(I) == len(J)
                            assert J.mask == I.without(i).adding(j).mask

    def test_json_roundtrip(self):
        cert = synth_offdiag(3, 1, 3, 3)
        again = OffDiagCertificate.from_json(cert.to_json())
        assert again == cert


class TestEvalCertificate:
    def test_concrete_square(self):
        A = Matrix.from_ints(Z, [[1, 2], [3, 4]])
        # (A^2)_{1,2} = (1+4)*2 = 10
        assert A.pow(2).entry(1, 2) == 10
        assert eval_certificate(synth_offdiag(2, 1, 2, 2), A) == 10

    def test_diagonal_matrix_gives_zero(self):
        D = Matrix.from_ints(Z, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        for m in range(1, 4):
            for i in range(1, 4):
                for j in range(1, 4):
                    if i != j:
                        cert = synth_offdiag(3, i, j, m)
                        assert eval_certificate(cert, D) == 0
                        assert D.pow(m).entry(i, j) == 0

    def test_random_matrices_match_power_oracle(self):
        from minorcalc.suites import random_matrix

        for ring in (Z, ModularRing(4)):
            rng = random.Random(13)
            for _ in range(10):
                n = rng.randint(2, 4)
                m = rng.randint(1, 4)
                A = random_matrix(ring, n, rng)
                power = A.pow(m)
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        if i != j:
                            got = eval_certificate(synth_offdiag(n, i, j, m), A)
                            assert ring.eq(got, power.entry(i, j))

    def test_size_mismatch(self):
        cert = synth_offdiag(3, 1, 2, 2)
        with pytest.raises(ValueError):
            eval_certificate(cert, Matrix.from_ints(Z, [[1, 2], [3, 4]]))


def test_offdiag_sign_validation():
    from minorcalc.suites import offdiag_sign_check

    assert offdiag_sign_check(4) == []


def test_all_ones_collapse_small():
    from minorcalc.suites import suite_all_ones

    assert suite_all_ones(n_max=3, m_max=5) == []


def test_symbolic_suite_reports_what_verify_symbolic_finds(monkeypatch):
    # the suite shares its generic table across each run of equal n and
    # each power across i; its failures must still be those of one
    # verify_symbolic call per (n, i, m), in grid order, repeated where
    # `extra` overlaps the grid (here it also returns to n = 3 after n = 4)
    from minorcalc import suites

    bad = {(2, 1, 3), (3, 2, 0), (3, 3, 2), (4, 4, 1)}
    wrong = lambda n, i, m: synth_diag(n, i, m + 1 if (n, i, m) in bad else m)
    monkeypatch.setattr(suites, "synth_diag", wrong)
    monkeypatch.setattr(universal, "synth_diag", wrong)
    grid = [(n, m) for n in (1, 2, 3) for m in range(4)]
    grid += [(4, m) for m in range(2)] + [(3, m) for m in range(3)]
    want = [
        f"symbolic identity fails at n={n}, i={i}, m={m}"
        for n, m in grid
        for i in range(1, n + 1)
        if not verify_symbolic(n, i, m)
    ]
    assert want.count("symbolic identity fails at n=3, i=3, m=2") == 2
    assert suites.suite_symbolic(3, 3, extra=((4, 1), (3, 2))) == want


def _minor_series(subsets, order):
    """sum of (-1)^|S| p{S} t^|S| over the subsets, truncated at t^order."""
    coeffs = [POLY_RING.zero()] * (order + 1)
    for S in subsets:
        if len(S) <= order:
            symbol = P(pvar(S.members())) if len(S) else POLY_RING.one()
            coeffs[len(S)] = coeffs[len(S)] + (-1) ** len(S) * symbol
    return TruncatedSeries(POLY_RING, order, coeffs)


def _diag_series(n, i, order):
    """a(t) * d(t)^-1 through the series inverse, truncated at t^order."""
    d_inv = _minor_series(all_subsets(n), order).inverse()
    return d_inv * _minor_series([diag_reindex(S, i) for S in all_subsets(n - 1)], order)


class TestSeriesInverseOracle:
    """Synthesis against the slower construction through the inverse of
    the determinant series and a full series product."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diag(self, n):
        for m in range(7):
            for i in range(1, n + 1):
                assert synth_diag(n, i, m).body == _diag_series(n, i, m).coefficient(m)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_offdiag(self, n):
        for m in range(5):
            d_inv = _minor_series(all_subsets(n), m).inverse()
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    a_off = TruncatedSeries(POLY_RING, m, offdiag_series_coeffs(n, i, j, m))
                    cert = synth_offdiag(n, i, j, m)
                    names = [qvar(I.members(), J.members()) for *_, (I, J) in cert.terms]
                    assert names == sorted(names, key=var_key)
                    total = sum(
                        (coeff * P(q) for coeff, q in zip(coeffs(cert), names)),
                        Polynomial({}),
                    )
                    assert total == (d_inv * a_off).coefficient(m)


class TestReuseOracle:
    """Results of every call order, cached or not, against one ascending
    sweep and the series inverse."""

    M_MAX = 7

    def _keys(self, n):
        return [(i, m) for i in range(1, n + 1) for m in range(self.M_MAX + 1)]

    def _ascending(self, n):
        synth_diag.cache_clear()
        return {key: synth_diag(n, *key).body for key in self._keys(n)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_order_matches_ascending_and_series_inverse(self, n):
        want = self._ascending(n)
        for i in range(1, n + 1):
            series = _diag_series(n, i, self.M_MAX)
            assert all(want[i, m] == series.coefficient(m) for m in range(self.M_MAX + 1))
        shuffled = self._keys(n)
        random.Random(80 + n).shuffle(shuffled)
        for order in (sorted(self._keys(n), reverse=True), shuffled):
            synth_diag.cache_clear()
            assert {key: synth_diag(n, *key).body for key in order} == want
        synth_diag.cache_clear()
        assert {key: synth_diag.__wrapped__(n, *key).body for key in self._keys(n)} == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partial_windows(self, n):
        want = self._ascending(n)
        # the verify workload's powers, skipping the odd ones
        synth_diag.cache_clear()
        for m in (2, 4, 6):
            for i in range(1, n + 1):
                assert synth_diag(n, i, m).body == want[i, m]
        # a result kept by the caller after the cache is cleared
        synth_diag.cache_clear()
        kept = synth_diag(n, 1, 3)
        synth_diag.cache_clear()
        assert synth_diag(n, 1, self.M_MAX).body == want[1, self.M_MAX]
        assert kept.body == want[1, 3]


_diag_args = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n), st.integers(0, 8))
)
_offdiag_args = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n), st.permutations(range(1, n + 1)).map(lambda p: p[:2]), st.integers(0, 8)
    )
)


@settings(deadline=None, max_examples=30)
@given(_diag_args)
def test_synth_diag_matches_the_expanded_recurrence(args):
    assert synth_diag.__wrapped__(*args).body == diag_oracle(*args)


@settings(deadline=None, max_examples=30)
@given(_offdiag_args)
def test_synth_offdiag_matches_the_expanded_recurrence(args):
    n, (i, j), m = args
    cert, want = synth_offdiag.__wrapped__(n, i, j, m), offdiag_oracle(n, i, j, m)
    assert [pair for *_, pair in cert.terms] == [pair for _, pair in want]
    assert coeffs(cert) == [coeff for coeff, _ in want]
    assert coeff_texts(cert) == [str(coeff) for coeff, _ in want]


class TestTermBound:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_count_is_the_number_of_terms(self, n):
        for i in range(1, n + 1):
            for m in range(8):
                count = universal._term_count(*universal._diag_types(n, i, m))
                assert count == len(synth_diag(n, i, m).body.terms)

    def test_certificate_count_is_the_number_of_terms(self):
        groups = universal._units_by_size(4, bool)
        for r in range(7):
            types = universal._compressed(4, r, False, (r,))[r]
            assert universal._term_count(types, groups) == len(universal._expand(types, groups, 4).terms)

    def test_largest_accepted_and_smallest_refused(self):
        # P[8,i,8] stays under the bound; its count is taken without expanding
        assert universal._term_count(*universal._diag_types(8, 1, 8)) == 715152
        assert 715152 <= universal.MAX_TERMS
        for args, count in (((8, 1, 9), 3106828), ((7, 1, 10), 3340076), ((5, 1, 20), 154394626)):
            assert universal._term_count(*universal._diag_types(*args)) == count
            with pytest.raises(ValueError, match=f"{count} terms"):
                synth_diag.__wrapped__(*args)

    def test_certificate_bound(self):
        with pytest.raises(ValueError, match="certificate"):
            synth_offdiag.__wrapped__(8, 1, 2, 9)


def test_synthesis_digest_is_pinned():
    # byte-for-byte the output of the tuple-keyed monomials this replaced:
    # every P[n,i,m] for n <= 5, m <= 6 and every certificate for n <= 4, m <= 5
    h = hashlib.sha256()
    for n in range(1, 6):
        for i in range(1, n + 1):
            for m in range(7):
                h.update(synth_diag(n, i, m).serialize().encode())
    for n in range(2, 5):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    for m in range(6):
                        h.update(synth_offdiag(n, i, j, m).to_json().encode())
    assert h.hexdigest() == "7ef260f69b31f070a00b8fd2b817c7dfa851fc4c444ad6efddd19e6b0f1b1c71"


def test_n7_digest_is_pinned():
    # recorded from the expanded recurrence that the type expansion replaced
    h = hashlib.sha256()
    for i in (1, 4, 7):
        h.update(synth_diag.__wrapped__(7, i, 7).serialize().encode())
    assert h.hexdigest() == "7cdafe3bdc948e21236cf7ef8e9184a2b0e154bccaac78f214d48dc0c4eecaae"


@settings(deadline=None, max_examples=30)
@given(_diag_args)
def test_serialize_prints_the_expanded_recurrence(args):
    U = synth_diag.__wrapped__(*args)
    assert U.serialize() == f"{U.header()}\n{diag_oracle(*args)}\n"


class TestDirectPrint:
    def test_serialize_leaves_the_body_unexpanded(self, monkeypatch):
        U = synth_diag.__wrapped__(4, 2, 5)
        calls = []
        expand = universal._expand
        monkeypatch.setattr(universal, "_expand", lambda *a: calls.append(a) or expand(*a))
        text = U.serialize()
        assert calls == [] and "body" not in vars(U)
        assert U.body == diag_oracle(4, 2, 5) and len(calls) == 1
        assert U.body is U.body and len(calls) == 1
        assert U.serialize() == text == f"{U.header()}\n{U.body}\n"

    def test_equality_follows_n_i_m(self):
        assert synth_diag.__wrapped__(3, 2, 4) == synth_diag.__wrapped__(3, 2, 4)
        assert synth_diag.__wrapped__(3, 2, 4) != synth_diag.__wrapped__(3, 1, 4)
        assert hash(synth_diag.__wrapped__(3, 2, 4)) == hash(synth_diag(3, 2, 4))


def _entries(ring):
    """Matrix entries over ring: ints up to 2^70 over Z, residues over Z/k
    and F_p, coordinate 6-tuples over the quotient algebra."""
    if isinstance(ring, FootnoteAlgebra):
        return st.tuples(*[_entries(ring.base)] * 6)
    k = int_modulus(ring)
    return st.integers(-(2**70), 2**70) if k == 0 else st.integers(0, k - 1)


def _matrices(ring, n):
    """n x n row lists of _entries(ring)."""
    return st.lists(st.lists(_entries(ring), min_size=n, max_size=n), min_size=n, max_size=n)


# the quotient algebra on F_2, F_3, the composite Z/4, and Z, where the
# coordinates reach 2^70 and are never reduced
_EVAL_RINGS = (
    Z,
    ModularRing(4),
    PrimeField(101),
    FootnoteAlgebra(),
    FootnoteAlgebra(PrimeField(3)),
    FootnoteAlgebra(ModularRing(4)),
    FootnoteAlgebra(Z),
)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_EVAL_RINGS), st.integers(1, 5), st.integers(0, 6), st.data())
def test_eval_by_type_matches_the_body(ring, n, m, data):
    A = Matrix(ring, data.draw(_matrices(ring, n)))
    table, assignment = A.principal_minors(), minor_assignment(A)
    for i in range(1, n + 1):
        U = synth_diag(n, i, m)
        assert ring.eq(eval_universal(U, table, ring), U.body.eval(assignment, ring))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eval_by_type_matches_the_body_on_the_generic_matrix(n):
    A = generic_matrix(n)
    table, assignment = A.principal_minors(), minor_assignment(A)
    for m in range(7):
        for i in range(1, n + 1):
            U = synth_diag(n, i, m)
            assert eval_universal(U, table, POLY_RING) == U.body.eval(assignment, POLY_RING)


_NATIVE_RINGS = (Z, ModularRing(2), ModularRing(4), ModularRing(6), PrimeField(101))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_NATIVE_RINGS), st.integers(1, 5), st.integers(0, 6), st.data())
def test_native_eval_matches_the_ring_ops_and_the_body(ring, n, m, data):
    # three ways: native ints, the ring-op loop over the same residues, and
    # Polynomial.eval of the expanded body; m = 0 is the constant type
    k = int_modulus(ring)
    entry = st.integers(-(2**70), 2**70) if k == 0 else st.integers(0, k - 1)
    rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    A, ops = Matrix(ring, rows), IntOps(k)
    table, ops_table, assignment = A.principal_minors(), Matrix(ops, rows).principal_minors(), minor_assignment(A)
    for i in range(1, n + 1):
        U = synth_diag(n, i, m)
        native = eval_universal(U, table, ring)
        assert type(native) is int
        assert native == eval_universal(U, ops_table, ops) == U.body.eval(assignment, ring)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((0, 2, 3, 4, 6)), st.integers(1, 5), st.integers(0, 6), st.data())
def test_algebra_eval_matches_the_ring_ops_and_the_body(k, n, m, data):
    # over the algebra on Z/k (Z if k is 0) three ways: the coordinate
    # branch, the ring-op branch over a base that int_modulus does not
    # recognise, and Polynomial.eval of the expanded body; m = 0 is the
    # constant type, whose slot tuple is empty
    ring, ops = FootnoteAlgebra(ModularRing(k) if k else Z), FootnoteAlgebra(IntOps(k))
    rows = data.draw(_matrices(ring, n))
    A = Matrix(ring, rows)
    table, ops_table, assignment = A.principal_minors(), Matrix(ops, rows).principal_minors(), minor_assignment(A)
    for i in range(1, n + 1):
        U = synth_diag(n, i, m)
        got = eval_universal(U, table, ring)
        assert type(got) is tuple and len(got) == 6
        assert all(type(c) is int and (k == 0 or 0 <= c < k) for c in got)
        assert got == eval_universal(U, ops_table, ops) == U.body.eval(assignment, ring)


# Z with entries up to 2^70, Z/k, F_101, and the quotient algebra on Z/k and on Z
_KERNEL_RINGS = (
    Z,
    *(ModularRing(k) for k in (2, 3, 4, 6)),
    PrimeField(101),
    *(FootnoteAlgebra(ModularRing(k)) for k in (2, 3, 4, 6)),
    FootnoteAlgebra(Z),
)


@contextmanager
def _kernels_at(count):
    """Shape entries and a kernel cache of the block's own, compiling a
    shape's kernel at its count-th evaluation; yields the number of
    kernels compiled so far."""
    kernel = lru_cache(maxsize=None)(universal._kernel.__wrapped__)
    shapes = lru_cache(maxsize=None)(universal._shape_kernel.__wrapped__)
    with patch.multiple(universal, COMPILE_AFTER=count, _kernel=kernel, _shape_kernel=shapes):
        yield lambda: kernel.cache_info().misses


def _check_value(ring, got):
    # an int over the int rings; a canonical 6-tuple over the algebra
    if isinstance(ring, FootnoteAlgebra):
        k = int_modulus(ring.base)
        assert type(got) is tuple and len(got) == 6
        assert all(type(c) is int and (k == 0 or 0 <= c < k) for c in got)
    else:
        assert type(got) is int


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(_KERNEL_RINGS), st.integers(1, 5), st.integers(0, 6), st.data())
def test_cold_loops_warm_kernel_and_body_agree(ring, n, m, data):
    # each polynomial fresh, evaluated twice: by its plan's loops, then by
    # its shape's compiled kernel; m = 0 is the constant type, whose slot
    # tuple is empty, and most plans hold negative G values
    algebra = isinstance(ring, FootnoteAlgebra)
    A = Matrix(ring, data.draw(_matrices(ring, n)))
    table, assignment = A.principal_minors(), minor_assignment(A)
    for i in range(1, n + 1):
        U = synth_diag.__wrapped__(n, i, m)
        with _kernels_at(2):
            cold = eval_universal(U, table, ring)
            assert U.kernels[algebra].kernel is None
            warm = eval_universal(U, table, ring)
            assert U.kernels[algebra].kernel is not None
        _check_value(ring, cold)
        assert cold == warm and ring.eq(warm, U.body.eval(assignment, ring))


class _CountingAlgebra(FootnoteAlgebra):
    """The quotient algebra, counting calls of its operations by name."""

    def __init__(self, base):
        super().__init__(base)
        object.__setattr__(self, "calls", Counter())

    def add(self, a, b):
        self.calls["add"] += 1
        return super().add(a, b)

    def mul(self, a, b):
        self.calls["mul"] += 1
        return super().mul(a, b)

    def neg(self, a):
        self.calls["neg"] += 1
        return super().neg(a)

    def from_int(self, k):
        self.calls["from_int"] += 1
        return super().from_int(k)


class TestPlan:
    def test_synthesis_and_printing_build_no_plan(self, monkeypatch):
        monkeypatch.setattr(universal, "_plan", lambda *a: pytest.fail("plan built"))
        U = synth_diag.__wrapped__(4, 2, 5)
        U.serialize()
        assert "plan" not in vars(U)
        cert = synth_offdiag.__wrapped__(4, 1, 3, 4)
        cert.to_json()
        assert "plans" not in vars(cert)

    def test_plan_is_built_once_at_the_first_evaluation(self, monkeypatch):
        built = []
        plan = universal._plan
        monkeypatch.setattr(universal, "_plan", lambda *a: built.append(a) or plan(*a))
        A = Matrix.from_ints(Z, [[2, -1, 0, 3], [1, 1, 4, -2], [0, 5, -3, 1], [7, 0, 2, 2]])
        U, table = synth_diag.__wrapped__(4, 2, 5), A.principal_minors()
        for _ in range(3):
            assert eval_universal(U, table, Z) == A.pow(5).entry(2, 2)
        assert len(built) == 1 and "plan" in vars(U)
        cert = synth_offdiag.__wrapped__(4, 1, 3, 4)
        for _ in range(3):
            assert eval_certificate(cert, A) == A.pow(4).entry(1, 3)
        assert len(built) == 1 + len(cert.types) and set(cert.plans) == set(cert.types)

    def test_plan_takes_no_part_in_equality_hash_or_repr(self):
        # nor do the compiled kernels
        A = Matrix.from_ints(Z, [[1, 2, 0], [3, 4, 1], [0, 1, 5]])
        fresh, evaluated = synth_diag.__wrapped__(3, 2, 4), synth_diag.__wrapped__(3, 2, 4)
        with _kernels_at(1):
            eval_universal(evaluated, A.principal_minors(), Z)
        assert "plan" in vars(evaluated) and "plan" not in vars(fresh)
        assert evaluated.kernels[False].kernel is not None and "kernels" not in vars(fresh)
        assert evaluated == fresh and hash(evaluated) == hash(fresh)
        assert repr(evaluated) == repr(fresh) == "UniversalPolynomial(n=3, i=2, m=4)"
        fresh, evaluated = synth_offdiag.__wrapped__(3, 1, 2, 3), synth_offdiag.__wrapped__(3, 1, 2, 3)
        with _kernels_at(1):
            eval_certificate(evaluated, A)
        assert "plans" in vars(evaluated) and "plans" not in vars(fresh)
        assert all(kernels[False].kernel is not None for kernels in evaluated.kernels.values())
        assert "kernels" not in vars(fresh)
        assert evaluated == fresh and hash(evaluated) == hash(fresh) and repr(evaluated) == repr(fresh)

    def test_slots_index_the_powers_of_the_groups_in_use(self):
        # each type's slots name, in group order, s^count of each group it
        # puts a nonzero count on
        for n, i, m in ((1, 1, 0), (3, 2, 4), (5, 1, 6)):
            U = synth_diag(n, i, m)
            used, gs, slots = U.plan
            groups = universal._diag_groups(n, i)
            names = [(tuple(masks), c) for masks, top in used for c in range(1, top + 1)]
            in_use = [g for g in range(len(groups)) if any(counts[g] for counts in U.types)]
            assert used == tuple((tuple(groups[g]), max(counts[g] for counts in U.types)) for g in in_use)
            assert gs == tuple(U.types.values())
            for counts, slot in zip(U.types, slots):
                want = [(tuple(groups[g]), c) for g, c in enumerate(counts) if c]
                assert [names[x] for x in slot] == want
        assert synth_diag(2, 1, 0).plan == ((), (1,), ((),))

    @pytest.mark.parametrize("base", [PrimeField(2), ModularRing(4)])
    def test_algebra_eval_calls_mul_only_for_powers_and_type_products(self, base):
        # the same calls from the loops and from the compiled kernel
        ring, rng = _CountingAlgebra(base), random.Random(23)
        for n in range(1, 6):
            A = suites.random_matrix(ring, n, rng)
            table, power = A.principal_minors(), A.pow(6)
            for m in range(7):
                for i in range(1, n + 1):
                    U = synth_diag.__wrapped__(n, i, m)
                    with _kernels_at(2):
                        for warm in (False, True):
                            ring.calls.clear()
                            got = eval_universal(U, table, ring)
                            assert (U.kernels[True].kernel is not None) == warm
                            used, _, slots = U.plan
                            muls = sum(top - 1 for _, top in used) + sum(max(len(slot) - 1, 0) for slot in slots)
                            assert ring.calls == Counter(mul=muls)
                            if m == 6:
                                assert got == power.entry(i, i)


class TestKernels:
    def test_nothing_compiles_before_a_shapes_threshold_evaluation(self):
        # synthesis, printing and loading compile nothing; the evaluations of
        # every i of P[4,.,5] count toward their one shape
        A = Matrix.from_ints(Z, [[2, -1, 0, 3], [1, 1, 4, -2], [0, 5, -3, 1], [7, 0, 2, 2]])
        table, power = A.principal_minors(), A.pow(5)
        with _kernels_at(universal.COMPILE_AFTER) as compiled:
            synth_diag.__wrapped__(4, 2, 5).serialize()
            cert = synth_offdiag.__wrapped__(4, 1, 3, 4)
            assert OffDiagCertificate.from_json(cert.to_json()) == cert
            assert eval_certificate(cert, A) == A.pow(4).entry(1, 3)
            assert compiled() == 0
            polys = [synth_diag.__wrapped__(4, i, 5) for i in range(1, 5)]
            for e in range(1, universal.COMPILE_AFTER + 1):
                U = polys[e % 4]
                assert eval_universal(U, table, Z) == power.entry(U.i, U.i)
                assert compiled() == (e == universal.COMPILE_AFTER)
            assert len({id(U.kernels[False]) for U in polys}) == 1 and U.kernels[False].kernel is not None

    def test_every_i_shares_one_kernel_per_kind_of_ring(self):
        A = Matrix.from_ints(Z, [[2, -1, 0, 3], [1, 1, 4, -2], [0, 5, -3, 1], [7, 0, 2, 2]])
        B = Matrix(FootnoteAlgebra(), [[(1, 0, 1, 0, 0, 1), (0, 1, 0, 0, 1, 0)], [(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 1)]])
        with _kernels_at(1) as compiled:
            polys = [synth_diag.__wrapped__(4, i, 5) for i in range(1, 5)]
            for _ in range(3):
                for i, U in enumerate(polys, 1):
                    assert eval_universal(U, A.principal_minors(), Z) == A.pow(5).entry(i, i)
            assert compiled() == 1
            assert len({id(U.kernels[False].kernel) for U in polys}) == 1
            used, gs, slots = polys[0].plan  # its shape: the plan without the masks
            assert polys[0].kernels[False].kernel is universal._kernel((tuple(top for _, top in used), gs, slots), False)
            polys = [synth_diag.__wrapped__(2, i, 5) for i in (1, 2)]
            for _ in range(2):
                for i, U in enumerate(polys, 1):
                    assert eval_universal(U, B.principal_minors(), B.ring) == B.pow(5).entry(i, i)
            assert compiled() == 2 and polys[0].kernels[True].kernel is polys[1].kernels[True].kernel

    def test_certificate_orders_of_one_n_share_kernels(self):
        A = Matrix.from_ints(Z, [[2, -1, 0, 3], [1, 1, 4, -2], [0, 5, -3, 1], [7, 0, 2, 2]])
        certs = [synth_offdiag.__wrapped__(4, i, j, m) for i, j, m in ((1, 3, 4), (2, 1, 5), (4, 2, 6))]
        with _kernels_at(1) as compiled:
            for _ in range(2):
                for cert in certs:
                    assert eval_certificate(cert, A) == A.pow(cert.m).entry(cert.i, cert.j)
            orders = {r for cert in certs for r in cert.types}
            assert compiled() == len(orders)
            for r in orders:
                kernels = {id(cert.kernels[r][False].kernel) for cert in certs if r in cert.types}
                assert len(kernels) == 1 and id(None) not in kernels

    def test_a_plan_above_the_cap_keeps_its_loops(self):
        U = synth_diag.__wrapped__(5, 1, 10)
        assert len(U.types) == 346 > universal.MAX_KERNEL_TYPES
        rng = random.Random(10)
        with _kernels_at(1) as compiled:
            for ring in (Z, ModularRing(6), FootnoteAlgebra(ModularRing(4))):
                A = suites.random_matrix(ring, 5, rng)
                want = A.pow(10).entry(1, 1)
                for _ in range(3):
                    assert ring.eq(eval_universal(U, A.principal_minors(), ring), want)
            assert compiled() == 0 and U.kernels == {}

    def test_a_plan_at_the_cap_compiles_and_matches_its_loops(self):
        # four one-mask groups with counts up to 4, in all combinations in
        # order up to the cap: the constant type (an empty slot tuple)
        # first, signs alternating, up to 9 factors a type
        counts = list(product(range(5), repeat=4))[: universal.MAX_KERNEL_TYPES]
        types = {c: (-1) ** t * (t + 1) for t, c in enumerate(counts)}
        plan = universal._plan(types, [[1], [2], [4], [8]])
        assert len(plan[1]) == universal.MAX_KERNEL_TYPES and plan[2][0] == ()
        for ring, values in (
            (Z, {1: 3, 2: -2**40, 4: 7, 8: 5}),
            (ModularRing(6), {1: 5, 2: 4, 4: 1, 8: 3}),
            (FootnoteAlgebra(Z), {1: (1, 2, 0, 1, 0, -3), 2: (0, 1, 1, 0, 2, 0), 4: (2, 0, 0, 1, 1, 1), 8: (1, 1, 1, 1, 1, 1)}),
        ):
            kernels: dict = {}
            want = reduce(ring.add, [
                reduce(ring.mul, [values[1 << x] for x, e in enumerate(c) for _ in range(e)], ring.from_int(g))
                for c, g in types.items()
            ])
            with _kernels_at(2) as compiled:
                got = [universal._eval_plan(plan, values, ring, kernels) for _ in range(2)]
                assert got == [want, want] and compiled() == 1
        # one type more keeps its loops
        types[(0, 0, 0, 5)] = 7
        kernels = {}
        with _kernels_at(1) as compiled:
            universal._eval_plan(universal._plan(types, [[1], [2], [4], [8]]), values, ring, kernels)
            assert compiled() == 0 and kernels == {}


class TestEvalByType:
    def test_eval_leaves_the_body_unexpanded(self):
        U = synth_diag.__wrapped__(4, 2, 5)
        A = Matrix.from_ints(Z, [[2, -1, 0, 3], [1, 1, 4, -2], [0, 5, -3, 1], [7, 0, 2, 2]])
        assert eval_universal(U, A.principal_minors(), Z) == A.pow(5).entry(2, 2)
        assert "body" not in vars(U)

    def test_suite_random_leaves_the_bodies_unexpanded(self, monkeypatch):
        made = {}  # the polynomials suite_random evaluates, none from the shared cache

        def fresh(*args):
            if args not in made:
                made[args] = synth_diag.__wrapped__(*args)
            return made[args]

        monkeypatch.setattr(suites, "synth_diag", fresh)
        assert suites.suite_random("mod4", trials=40) == []
        assert made and all("body" not in vars(U) for U in made.values())

    def test_only_the_groups_in_use_are_summed(self):
        # P[8,i,1] = p{i} reads one of the 255 nonempty subsets
        rng = random.Random(8)
        A = Matrix.from_ints(Z, [[rng.randint(-9, 9) for _ in range(8)] for _ in range(8)])
        ring = IntOps()
        ops_table = Matrix(ring, A.rows).principal_minors()
        for i in range(1, 9):
            ring.adds = 0
            assert eval_universal(synth_diag(8, i, 1), ops_table, ring) == A.entry(i, i)
            assert ring.adds < 16


def test_n8_digest_is_pinned():
    # recorded from the expanded body printed by Polynomial.__str__
    text = synth_diag.__wrapped__(8, 5, 8).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7e269929c5794b58c8df902b42f354a08b7f24e070924324d6e148d166b85059"
    )


# recorded from the certificates whose coefficients were expanded and
# printed by Polynomial.__str__
_CERT_DIGESTS = {
    (7, 1, 4, 7): "43fb04fa43cd3e46e50debc1b9799846489b515116d376459619597fe2c777db",
    (7, 3, 2, 6): "f008933114dd9d97b8784babb140d00f4788dfff122aed8733923ddbe5ca6ae2",
    (8, 1, 2, 8): "d007f148be5b3193cd260501e603e4894aa62057103523953b58cd430e7ae064",
}


@pytest.mark.parametrize("args", list(_CERT_DIGESTS))
def test_n7_n8_certificate_digests_are_pinned(args):
    text = synth_offdiag.__wrapped__(*args).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == _CERT_DIGESTS[args]


class TestCertificateText:
    def test_json_roundtrip_n6(self):
        cert = synth_offdiag.__wrapped__(6, 2, 5, 6)
        back = OffDiagCertificate.from_json(cert.to_json())
        assert back == cert and back.to_json() == cert.to_json()

    def test_each_coefficient_is_printed_once(self, monkeypatch):
        cert = synth_offdiag.__wrapped__(5, 1, 3, 5)
        want = [str(coeff) for coeff, _ in offdiag_oracle(5, 1, 3, 5)]
        signed = {(r, sign) for sign, r, _ in cert.terms}
        assert len(signed) == len(set(want)) < len(cert.terms)
        printed = []
        print_types = universal._print_types
        monkeypatch.setattr(universal, "_print_types", lambda *a: printed.append(a) or print_types(*a))
        monkeypatch.setattr(Polynomial, "__str__", lambda f: pytest.fail("printed by Polynomial.__str__"))
        assert coeff_texts(cert) == want
        assert len(printed) == len(signed)


def test_body_parse_roundtrip():
    body = synth_diag(6, 1, 6).body
    assert Polynomial.parse(str(body)) == body


def _negated(text):
    return str(-Polynomial.parse(text))


def _swapped(term):
    term["I"], term["J"] = term["J"], term["I"]


_TAMPERINGS = {
    "changed coefficient": lambda d: d["terms"][1].update(coeff=d["terms"][1]["coeff"].replace("p{1}", "p{4}", 1)),
    "flipped sign": lambda d: d["terms"][2].update(coeff=_negated(d["terms"][2]["coeff"])),
    "swapped I/J": lambda d: _swapped(d["terms"][0]),
    "missing terms": lambda d: d.pop("terms"),
}


@pytest.mark.parametrize("tamper", list(_TAMPERINGS))
def test_from_json_refuses_tampered_text(tamper):
    cert = synth_offdiag(4, 1, 3, 4)
    data = json.loads(cert.to_json())
    assert OffDiagCertificate.from_json(json.dumps(data)) == cert
    _TAMPERINGS[tamper](data)
    assert data != json.loads(cert.to_json())
    with pytest.raises(ValueError):
        OffDiagCertificate.from_json(json.dumps(data))


def test_from_json_refuses_what_is_not_a_certificate():
    for text in ("[]", '{"n": 3, "i": 1, "j": 2}', '{"n": "3", "i": 1, "j": 2, "m": 2}', "{"):
        with pytest.raises(ValueError):
            OffDiagCertificate.from_json(text)


_offdiag_oracle = lru_cache(maxsize=None)(offdiag_oracle)


_CERT_RINGS = _EVAL_RINGS


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_CERT_RINGS), st.integers(2, 5), st.integers(0, 6), st.data())
def test_eval_certificate_matches_the_power_and_the_expanded_oracle(ring, n, m, data):
    # every (i, j): the entry of A^m, and Polynomial.eval of the oracle's
    # expanded coefficients times the quasiprincipal minors
    A = Matrix(ring, data.draw(_matrices(ring, n)))
    power, assignment = A.pow(m), minor_assignment(A)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            want = ring.zero()
            for coeff, (I, J) in _offdiag_oracle(n, i, j, m):
                q = quasiprincipal_minor(A, I, J, i, j)
                want = ring.add(want, ring.mul(coeff.eval(assignment, ring), q))
            got = eval_certificate(synth_offdiag(n, i, j, m), A)
            assert ring.eq(got, power.entry(i, j)) and ring.eq(got, want)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_KERNEL_RINGS), st.integers(2, 5), st.integers(0, 6), st.data())
def test_eval_certificate_cold_and_warm_match_the_power(ring, n, m, data):
    # each certificate fresh, evaluated by its plans' loops and then by
    # the compiled kernels of their shapes
    algebra = isinstance(ring, FootnoteAlgebra)
    A = Matrix(ring, data.draw(_matrices(ring, n)))
    power = A.pow(m)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            cert = synth_offdiag.__wrapped__(n, i, j, m)
            with _kernels_at(2):
                cold = eval_certificate(cert, A)
                assert all(kernels[algebra].kernel is None for kernels in cert.kernels.values())
                warm = eval_certificate(cert, A)
                assert all(kernels[algebra].kernel is not None for kernels in cert.kernels.values())
            _check_value(ring, cold)
            assert cold == warm and ring.eq(warm, power.entry(i, j))
