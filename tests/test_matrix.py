import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IntOps, OracleAlgebra, det_leibniz, schoolbook
from minorcalc import matrix
from minorcalc.laplace import _minor_kernel, _product_kernel
from minorcalc.matrix import (
    MAX_SIZE,
    Matrix,
    Subset,
    _laplace_program,
    _principal_pairs,
    all_subsets,
    diag_reindex,
    minor_function,
    product_function,
    quasiprincipal_minor,
    require_size,
)
from minorcalc.poly import POLY_RING, Polynomial
from minorcalc.rings import FootnoteAlgebra, IntegerRing, ModularRing, PrimeField, RationalField, int_modulus
from minorcalc.suites import random_matrix
from minorcalc.universal import generic_matrix

Z = IntegerRing()


class TestSubset:
    def test_members_ascending(self):
        s = Subset.of(5, [4, 1, 3])
        assert s.members() == (1, 3, 4)
        assert list(s) == [1, 3, 4]
        assert len(s) == 3
        assert 3 in s and 2 not in s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Subset.of(3, [4])

    def test_rank(self):
        s = Subset.of(6, [2, 4, 5])
        assert [s.rank(i) for i in (2, 4, 5)] == [1, 2, 3]

    def test_canonical_order(self):
        labels = [s.label() for s in all_subsets(3)]
        assert labels == ["{}", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "{1,2,3}"]

    def test_size_bounds(self):
        require_size("n", MAX_SIZE, 1)
        for n in (0, MAX_SIZE + 1):
            with pytest.raises(ValueError, match=f"between 1 and {MAX_SIZE}"):
                require_size("n", n, 1)


class TestArithmetic:
    def test_identity_is_neutral(self):
        rng = random.Random(3)
        A = Matrix.from_ints(Z, [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)])
        assert Matrix.identity(Z, 3).mul(A) == A
        assert A.mul(Matrix.identity(Z, 3)) == A

    def test_nilpotent_square(self):
        N = Matrix.from_ints(Z, [[0, 1], [0, 0]])
        assert N.mul(N) == Matrix.zeros(Z, 2, 2)

    def test_generic_square_entry(self):
        A = generic_matrix(2)
        x = {name: Polynomial.variable(name) for name in ("x{1,1}", "x{1,2}", "x{2,1}", "x{2,2}")}
        sq = A.mul(A)
        assert sq.entry(1, 1) == x["x{1,1}"] ** 2 + x["x{1,2}"] * x["x{2,1}"]

    def test_dimension_mismatch(self):
        A = Matrix.zeros(Z, 2, 3)
        with pytest.raises(ValueError):
            A.mul(A)

    def test_pow(self):
        A = Matrix.from_ints(Z, [[1, 2], [3, 4]])
        assert A.pow(0) == Matrix.identity(Z, 2)
        assert A.pow(1) == A
        # oracle: direct repeated multiplication
        expected = A
        for m in range(2, 6):
            expected = expected.mul(A)
            assert A.pow(m) == expected
        assert A.pow(2) == Matrix.from_ints(Z, [[7, 10], [15, 22]])

    def test_pow_requires_square(self):
        with pytest.raises(ValueError):
            Matrix.zeros(Z, 2, 3).pow(2)


class TestSubmatrix:
    def test_full_subsets_identity(self):
        A = generic_matrix(3)
        assert A.submatrix(Subset.full(3), Subset.full(3)) == A

    def test_selection(self):
        A = generic_matrix(3)
        sub = A.submatrix(Subset.of(3, [1, 3]), Subset.of(3, [2, 3]))
        assert [[str(v) for v in row] for row in sub.rows] == [
            ["x{1,2}", "x{1,3}"],
            ["x{3,2}", "x{3,3}"],
        ]

    def test_delete_row_column(self):
        A = generic_matrix(4)
        B = A.delete(2, 2)
        keep = (1, 3, 4)
        for bi, i in enumerate(keep, start=1):
            for bj, j in enumerate(keep, start=1):
                assert B.entry(bi, bj) == A.entry(i, j)

    def test_empty_subset_gives_empty_matrix(self):
        A = generic_matrix(2)
        sub = A.submatrix(Subset.empty(2), Subset.empty(2))
        assert (sub.nrows, sub.ncols) == (0, 0)

    def test_out_of_range(self):
        A = generic_matrix(2)
        with pytest.raises(ValueError):
            A.submatrix(Subset.of(3, [3]), Subset.of(3, [1]))


class TestDeterminant:
    def test_empty_matrix(self):
        assert Matrix(Z, []).det() == 1

    def test_two_by_two(self):
        assert Matrix.from_ints(Z, [[1, 2], [3, 4]]).det() == -2

    def test_generic_two_by_two(self):
        assert str(generic_matrix(2).det()) == "x{1,1}*x{2,2} - x{1,2}*x{2,1}"

    def test_against_leibniz_all_3x3_mod2(self):
        ring = ModularRing(2)
        for bits in range(512):
            a = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
            M = Matrix(ring, a)
            assert M.det() == det_leibniz(M)

    def test_against_leibniz_random_4x4(self):
        rng = random.Random(17)
        for _ in range(25):
            M = Matrix.from_ints(
                Z, [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            )
            assert M.det() == det_leibniz(M)

    def test_requires_square(self):
        with pytest.raises(ValueError):
            Matrix.zeros(Z, 2, 3).det()

    def test_pickles_after_use(self):
        # the Laplace programs are shared per size, not part of a matrix's state
        A = Matrix.from_ints(ModularRing(4), [[1, 2], [3, 1]])
        table = A.principal_minors()
        B = pickle.loads(pickle.dumps(A))
        assert B == A
        assert B.principal_minors() == table


class TestAdjugate:
    def test_identity(self):
        for n in range(4):
            I = Matrix.identity(Z, n)
            assert I.adjugate() == I

    def test_two_by_two_formula(self):
        a, b, c, d = (Polynomial.variable(v) for v in "abcd")
        M = Matrix(POLY_RING, [[a, b], [c, d]])
        assert M.adjugate() == Matrix(POLY_RING, [[d, -b], [-c, a]])

    @pytest.mark.parametrize(
        "ring", [Z, ModularRing(4), FootnoteAlgebra()], ids=lambda r: r.describe()
    )
    def test_main_identity_random(self, ring):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(1, 3)
            B = random_matrix(ring, n, rng)
            adj = B.adjugate()
            expected = Matrix.identity(ring, n).scale(B.det())
            assert B.mul(adj) == expected
            assert adj.mul(B) == expected


class TestPrincipalMinors:
    def test_unitriangular_all_ones(self):
        A = Matrix.from_ints(Z, [[1, 5, -2], [0, 1, 7], [0, 0, 1]])
        assert A.principal_minors().all_equal(1)

    def test_table_consistency(self):
        rng = random.Random(31)
        A = Matrix.from_ints(Z, [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
        table = A.principal_minors()
        assert table[Subset.empty(4)] == 1
        for i in range(1, 5):
            assert table[[i]] == A.entry(i, i)
        assert table[Subset.full(4)] == A.det()

    def test_minors_match_submatrix_dets(self):
        A = generic_matrix(3)
        table = A.principal_minors()
        for P in all_subsets(3):
            assert table[P] == A.submatrix(P, P).det()


class TestDiagReindex:
    def test_empty(self):
        assert diag_reindex(Subset.empty(3), 2) == Subset.empty(4)

    def test_example(self):
        assert diag_reindex(Subset.of(3, [1, 3]), 2) == Subset.of(4, [1, 4])

    def test_i_equals_n_keeps_subset(self):
        P = Subset.of(4, [1, 3])
        assert diag_reindex(P, 5).members() == (1, 3)

    def test_submatrix_equality_oracle(self):
        # defining property, checked on the generic matrix for n <= 5
        for n in range(1, 6):
            A = generic_matrix(n)
            for i in range(1, n + 1):
                deleted = A.delete(i, i)
                for P in all_subsets(n - 1):
                    Pp = diag_reindex(P, i)
                    assert i not in Pp
                    assert len(Pp) == len(P)
                    assert deleted.submatrix(P, P) == A.submatrix(Pp, Pp)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            diag_reindex(Subset.empty(3), 5)


class TestQuasiprincipalMinor:
    def test_paper_shape_accepted(self):
        A = generic_matrix(7)
        I = Subset.of(7, [1, 2, 7])
        J = Subset.of(7, [2, 5, 7])
        value = quasiprincipal_minor(A, I, J, 1, 5)
        assert value == A.submatrix(I, J).det()

    def test_single_entry(self):
        A = generic_matrix(2)
        value = quasiprincipal_minor(A, Subset.of(2, [1]), Subset.of(2, [2]), 1, 2)
        assert value == A.entry(1, 2)

    def test_rejects_wrong_replacement(self):
        A = generic_matrix(2)
        with pytest.raises(ValueError, match="violated clause"):
            quasiprincipal_minor(A, Subset.of(2, [1, 2]), Subset.of(2, [1, 2]), 1, 2)

    def test_rejects_missing_indices(self):
        A = generic_matrix(3)
        with pytest.raises(ValueError, match="i=1 not in I"):
            quasiprincipal_minor(A, Subset.of(3, [2]), Subset.of(3, [3]), 1, 3)


def test_charpoly_expansion_symbolic():
    # det(B + z I) expands into principal minors of B, as polynomials
    z = Polynomial.variable("z")
    for m in range(5):
        B = generic_matrix(m)
        lhs = B.add(Matrix.identity(POLY_RING, m).scale(z)).det()
        table = B.principal_minors()
        rhs = POLY_RING.zero()
        for P in all_subsets(m):
            rhs = rhs + table[P] * z ** (m - len(P))
        assert lhs == rhs


def test_diagonal_sum_expansion_symbolic():
    from minorcalc.suites import suite_diagonal_sum

    assert suite_diagonal_sum(3) == []


def _is_canonical(ring, value):
    if type(value) is not int:
        return False
    return 0 <= value < ring.modulus if isinstance(ring, ModularRing) else True


_INT_RINGS = [Z, ModularRing(4), ModularRing(6), PrimeField(101)]


def _table_and_product(A, B):
    """The principal-minor table of A and the product AB, each through the
    function ``matrix`` resolves for the ring and sizes; both are tuples,
    on the generated-kernel path and on the ring-op path alike."""
    ring, n = A.ring, A.nrows
    table = minor_function(ring, n, _principal_pairs(n))(A.rows)
    product = product_function(ring, A.nrows, A.ncols, B.ncols)(A.rows, B.rows)
    assert type(table) is tuple and len(table) == 2**n
    assert type(product) is tuple and all(type(row) is tuple for row in product)
    return table, product


def _int_entries(ring):
    """Canonical elements of an int ring; over Z some exceed 2^64."""
    if isinstance(ring, ModularRing):
        return st.integers(0, ring.modulus - 1)
    return st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


def _int_rows(ring, nrows, ncols):
    entry = _int_entries(ring)
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def _int_ring_pairs(draw):
    """Two n x n matrices (n <= 6) over Z, Z/4, Z/6 or F_101."""
    ring = draw(st.sampled_from(_INT_RINGS))
    n = draw(st.integers(0, 6))
    rows = _int_rows(ring, n, n)
    return Matrix(ring, draw(rows)), Matrix(ring, draw(rows))


@settings(max_examples=60, deadline=None)
@given(_int_ring_pairs())
def test_int_path_matches_ring_op_oracles(pair):
    A, B = pair
    ring, n = A.ring, A.nrows
    table = A.principal_minors()
    values, rows = _table_and_product(A, B)
    results = []
    for s, value in zip(all_subsets(n), values):
        expected = det_leibniz(A.submatrix(s, s))
        assert A.principal_minor(s) == table[s] == value == expected
        results.append(table[s])
    assert A.det() == det_leibniz(A)
    full = Subset.full(n)
    adj = A.adjugate()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            minor = det_leibniz(A.submatrix(full.without(j), full.without(i)))
            assert adj.entry(i, j) == (minor if (i + j) % 2 == 0 else ring.neg(minor))
    product = A.mul(B)
    assert [list(row) for row in product.rows] == schoolbook(A, B)
    assert product.rows == rows
    results += [A.det()] + [v for M in (adj, product) for row in M.rows for v in row]
    expected = Matrix.identity(ring, n)
    for m in range(4):
        power = A.pow(m)
        assert power == expected
        results += [v for row in power.rows for v in row]
        expected = Matrix(ring, schoolbook(expected, A))
    assert all(_is_canonical(ring, v) for v in results)


@st.composite
def _int_products(draw):
    """A p x q and a q x s matrix over an int ring, p, q, s <= MAX_SIZE.
    A matrix without rows has no columns, so q = 0 when p = 0 and s = 0
    when q = 0."""
    ring = draw(st.sampled_from(_INT_RINGS))
    p, q, s = (draw(st.integers(0, MAX_SIZE)) for _ in range(3))
    A = Matrix(ring, draw(_int_rows(ring, p, q)))
    return A, Matrix(ring, draw(_int_rows(ring, A.ncols, s)))


@settings(max_examples=150, deadline=None)
@given(_int_products())
def test_product_kernel_matches_schoolbook(pair):
    A, B = pair
    product = A.mul(B)
    expected = schoolbook(A, B)
    rows = product_function(A.ring, A.nrows, A.ncols, B.ncols)(A.rows, B.rows)
    assert (product.nrows, product.ncols) == (A.nrows, B.ncols if A.nrows else 0)
    assert product == Matrix(A.ring, expected)
    assert [list(row) for row in rows] == expected
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert product.rows == rows
    assert all(_is_canonical(A.ring, v) for row in product.rows for v in row)


def test_int_kernels_reduce_noncanonical_entries():
    # entries outside 0..k-1 give the same canonical results as their residues
    rng = random.Random(61)
    ring = ModularRing(6)
    for n in range(1, 5):
        raw = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
        A, R = Matrix(ring, raw), Matrix.from_ints(ring, raw)
        assert A.principal_minors().values == R.principal_minors().values
        assert A.det() == R.det()
        assert A.adjugate().rows == R.adjugate().rows
        assert A.mul(A).rows == R.mul(R).rows


def _rational_matrix(rng, n):
    # plain int entries too: results over Q must still be Fractions
    def entry():
        num, den = rng.randint(-9, 9), rng.randint(1, 3)
        return num if den == 1 else Fraction(num, den)

    return Matrix(RationalField(), [[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize(
    "make,kind",
    [
        (_rational_matrix, Fraction),
        (lambda rng, n: random_matrix(FootnoteAlgebra(), n, rng), tuple),
        (lambda rng, n: generic_matrix(n), Polynomial),
    ],
    ids=["Q", "footnote", "poly"],
)
def test_other_rings_keep_type_and_value(make, kind):
    # Q and polynomials take their own ring operations; the algebra over
    # F_2 takes the coordinate loops, which keep its elements 6-tuples
    rng = random.Random(41)
    for n in range(1, 4):
        A = make(rng, n)
        ring = A.ring
        table = A.principal_minors()
        for s in all_subsets(n):
            assert ring.eq(table[s], det_leibniz(A.submatrix(s, s)))
        square = A.mul(A)
        assert [list(row) for row in square.rows] == schoolbook(A, A)
        assert A.pow(3) == Matrix(ring, schoolbook(square, A))
        results = [A.det(), *table.values.values()]
        results += [v for M in (A.adjugate(), square, A.pow(3)) for row in M.rows for v in row]
        assert all(isinstance(v, kind) for v in results)


_X, _Y = Polynomial.variable("x"), Polynomial.variable("y")

# each ring with a strategy for its elements; over Z some exceed 2^64
_ORACLE_RINGS = [
    (Z, st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))),
    (ModularRing(4), st.integers(0, 3)),
    (ModularRing(6), st.integers(0, 5)),
    (PrimeField(101), st.integers(0, 100)),
    (RationalField(), st.fractions(-3, 3, max_denominator=4)),
    (FootnoteAlgebra(), st.tuples(*[st.integers(0, 1)] * 6)),
    (POLY_RING, st.sampled_from([Polynomial.constant(2), -_X, _Y, _X * _Y - 3])),
]


@st.composite
def _zero_heavy_matrices(draw):
    """An n x n matrix (n <= 5) whose entries are zero about half the
    time, dense or of the two shapes scans produce: unitriangular, and
    unit diagonal with a_ij or a_ji zero for every pair i < j."""
    ring, element = draw(st.sampled_from(_ORACLE_RINGS))
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(ring.zero()), element)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["dense", "unitriangular", "pair-pruned"]))
    if shape != "dense":
        for i in range(n):
            a[i][i] = ring.one()
            for j in range(i):
                if shape == "unitriangular" or draw(st.booleans()):
                    a[i][j] = ring.zero()
                else:
                    a[j][i] = ring.zero()
    return Matrix(ring, a)


@settings(max_examples=100, deadline=None)
@given(_zero_heavy_matrices())
def test_laplace_program_matches_leibniz(A):
    ring, n = A.ring, A.nrows
    table = A.principal_minors()
    values, product = _table_and_product(A, A)
    assert [list(row) for row in product] == schoolbook(A, A)
    for s, value in zip(all_subsets(n), values):
        expected = det_leibniz(A.submatrix(s, s))
        assert ring.eq(table[s], expected)
        assert ring.eq(value, expected)
        assert ring.eq(A.principal_minor(s), expected)
    assert ring.eq(A.det(), det_leibniz(A))
    full = Subset.full(n)
    adj = A.adjugate()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            minor = det_leibniz(A.submatrix(full.without(j), full.without(i)))
            assert ring.eq(adj.entry(i, j), minor if (i + j) % 2 == 0 else ring.neg(minor))


def test_laplace_program_sizes():
    sizes = []
    for n in range(1, MAX_SIZE + 1):
        entries, where = _laplace_program(n, tuple((s.mask, s.mask) for s in all_subsets(n)))
        assert len(where) == 2**n
        sizes.append(len(entries))
    assert sizes == [1, 4, 12, 33, 88, 232, 609, 1596]
    assert sum(map(len, entries)) == 5911


def test_det_above_max_size_is_not_cached():
    rng = random.Random(53)
    n = 10
    assert n > MAX_SIZE
    upper = [[rng.randint(-9, 9) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    A = Matrix(Z, upper)
    caches = (_laplace_program, _minor_kernel, _product_kernel)
    before = [cache.cache_info().currsize for cache in caches]
    assert A.det() == 1
    assert A.pow(2).det() == 1
    assert A.mul(A.adjugate()) == Matrix.identity(Z, n)
    assert [cache.cache_info().currsize for cache in caches] == before


def test_product_above_max_size_matches_schoolbook():
    # int rings above MAX_SIZE take the ring-op path of both functions:
    # tuples again, and no program or kernel is cached
    rng = random.Random(59)
    n = MAX_SIZE + 1
    caches = (_laplace_program, _minor_kernel, _product_kernel)
    pairs = tuple((m, m) for m in range(1 << n) if m.bit_count() <= 2)
    for ring in _INT_RINGS:
        low, high = (0, ring.modulus - 1) if isinstance(ring, ModularRing) else (-(2**70), 2**70)
        A, B = (
            Matrix(ring, [[rng.randint(low, high) for _ in range(n)] for _ in range(n)])
            for _ in range(2)
        )
        before = [cache.cache_info().currsize for cache in caches]
        product = A.mul(B)
        rows = product_function(ring, n, n, n)(A.rows, B.rows)
        values = minor_function(ring, n, pairs)(A.rows)
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert [list(row) for row in rows] == schoolbook(A, B)
        assert product.rows == rows
        assert type(values) is tuple
        assert values == tuple(det_leibniz(A.submatrix(Subset(n, m), Subset(n, m))) for m, _ in pairs)
        assert all(_is_canonical(ring, v) for v in values + sum(rows, ()))
        assert [cache.cache_info().currsize for cache in caches] == before


@st.composite
def _square_matrices(draw):
    """An n x n matrix (1 <= n <= 5) over a ring of _ORACLE_RINGS."""
    ring, element = draw(st.sampled_from(_ORACLE_RINGS))
    n = draw(st.integers(1, 5))
    return Matrix(ring, [[draw(element) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(_square_matrices())
def test_pow_matches_repeated_schoolbook_products(A):
    ring, n = A.ring, A.nrows
    assert A.pow(0) == Matrix.identity(ring, n)
    assert A.pow(1) == A
    expected = Matrix.identity(ring, n)
    for m in range(10):
        assert A.pow(m) == expected
        expected = Matrix(ring, schoolbook(expected, A))


def test_pow_takes_no_identity_product(monkeypatch):
    # A^m for m >= 1 takes bit_length(m) - 1 squarings and popcount(m) - 1
    # further products: 1 at m = 2, 2 at m = 4, 3 at m = 6
    shapes = []
    make = matrix.product_function

    def counting(ring, p, q, s):
        product = make(ring, p, q, s)
        return lambda a, b: shapes.append((p, q, s)) or product(a, b)

    monkeypatch.setattr(matrix, "product_function", counting)
    for ring in (Z, FootnoteAlgebra()):
        A = Matrix(ring, [[ring.one(), ring.zero()], [ring.one(), ring.one()]])
        for m in range(70):
            shapes.clear()
            A.pow(m)
            assert len(shapes) == (m.bit_count() + m.bit_length() - 2 if m else 0)
            assert set(shapes) <= {(2, 2, 2)}


# The quotient algebra over every kind of int base.  The coordinate loops
# that ``matrix`` runs over it are checked against det_leibniz and
# schoolbook, which go through FootnoteAlgebra.mul, and above MAX_SIZE
# against the ring-op loops over the same ints through IntOps.  Both that
# mul and those loops are generated from rings.FOOTNOTE_PRODUCT, so each
# test also compares with the ring-op loops of OracleAlgebra over IntOps,
# whose mul reads no structure constant of ``rings``.
_ALGEBRA_BASES = [PrimeField(2), PrimeField(3), ModularRing(4), ModularRing(6), Z]


def _is_canonical_element(ring, value):
    """A 6-tuple of ints, each in 0..k-1 over Z/k."""
    return type(value) is tuple and len(value) == 6 and all(_is_canonical(ring.base, c) for c in value)


@st.composite
def _algebra_rows(draw, ring, nrows, ncols, canonical):
    """Row lists whose entries and coordinates are 0 about half the time;
    over Z/k the coordinates are residues if ``canonical``, else any ints
    up to 2^70 in size, as they always are over Z."""
    base = ring.base
    if canonical and isinstance(base, ModularRing):
        coordinate = st.integers(0, base.modulus - 1)
    else:
        coordinate = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
    sparse = st.one_of(st.just(0), coordinate)
    entry = st.one_of(st.just(ring.zero()), st.tuples(*[sparse] * 6))
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def _algebra_squares(draw):
    """An n x n matrix (n <= 6) over the algebra on an int base, dense or
    unitriangular as scans produce them."""
    ring = FootnoteAlgebra(draw(st.sampled_from(_ALGEBRA_BASES)))
    n = draw(st.integers(0, 6))
    rows = draw(_algebra_rows(ring, n, n, draw(st.booleans())))
    if draw(st.booleans()):
        rows = [[ring.one() if i == j else ring.zero() if j < i else e for j, e in enumerate(row)]
                for i, row in enumerate(rows)]
    return Matrix(ring, rows)


@settings(max_examples=80, deadline=None)
@given(_algebra_squares())
def test_algebra_coordinate_loops_match_ring_op_oracles(A):
    ring, n = A.ring, A.nrows
    table = A.principal_minors()
    for s in all_subsets(n):
        assert table[s] == det_leibniz(A.submatrix(s, s))
    det, adj = A.det(), A.adjugate()
    assert det == det_leibniz(A)
    full = Subset.full(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            minor = det_leibniz(A.submatrix(full.without(j), full.without(i)))
            assert adj.entry(i, j) == (minor if (i + j) % 2 == 0 else ring.neg(minor))
    results = [det, *table.values.values(), *sum(adj.rows, ())]
    # A^1 is A itself, entries as given; every other power is computed
    assert A.pow(1) == A
    expected = Matrix(ring, schoolbook(A, A))
    for m in range(2, 7):
        power = A.pow(m)
        assert power == expected
        results += sum(power.rows, ())
        expected = Matrix(ring, schoolbook(expected, A))
    assert all(_is_canonical_element(ring, v) for v in results)
    O = _oracle_matrix(A)
    assert table.values == O.principal_minors().values
    assert det == O.det() and adj.rows == O.adjugate().rows
    assert A.pow(4).rows == O.pow(4).rows


def _oracle_matrix(A):
    """A over OracleAlgebra(IntOps(k)), k the modulus of A's base (0 over Z)."""
    return Matrix(OracleAlgebra(IntOps(int_modulus(A.ring.base))), A.rows)


@st.composite
def _algebra_products(draw):
    """A p x q and a q x s matrix over the algebra on an int base, p, q,
    s <= MAX_SIZE (q = 0 when p = 0 and s = 0 when q = 0)."""
    ring = FootnoteAlgebra(draw(st.sampled_from(_ALGEBRA_BASES)))
    canonical = draw(st.booleans())
    p, q, s = (draw(st.integers(0, MAX_SIZE)) for _ in range(3))
    A = Matrix(ring, draw(_algebra_rows(ring, p, q, canonical)))
    return A, Matrix(ring, draw(_algebra_rows(ring, A.ncols, s, canonical)))


@settings(max_examples=80, deadline=None)
@given(_algebra_products())
def test_algebra_products_match_schoolbook(pair):
    A, B = pair
    rows = A.mul(B).rows
    assert [list(row) for row in rows] == schoolbook(A, B)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(_is_canonical_element(A.ring, v) for row in rows for v in row)
    assert [list(row) for row in rows] == schoolbook(_oracle_matrix(A), _oracle_matrix(B))


def test_algebra_above_max_size_matches_the_ring_op_loops():
    # the coordinate loops run at every size: the full table, det, adjugate
    # and products of a 9 x 9 matrix equal those of the ring-op loops over
    # IntOps, and its small minors those of det_leibniz
    rng = random.Random(67)
    n = MAX_SIZE + 1
    caches = (_laplace_program, _minor_kernel, _product_kernel)
    for k, base in ((4, ModularRing(4)), (0, Z)):
        ring, ops = FootnoteAlgebra(base), FootnoteAlgebra(IntOps(k))
        rows = [[tuple(rng.choice((0, rng.randint(-(2**70), 2**70))) for _ in range(6))
                 if rng.randrange(3) else ring.zero() for _ in range(n)] for _ in range(n)]
        A, O = Matrix(ring, rows), Matrix(ops, rows)
        before = [cache.cache_info().currsize for cache in caches]
        table = A.principal_minors()
        assert table.values == O.principal_minors().values
        for s in all_subsets(n):
            if len(s) <= 3:
                assert table[s] == det_leibniz(A.submatrix(s, s))
        assert A.adjugate().rows == O.adjugate().rows
        square = A.mul(A)
        assert square.rows == O.mul(O).rows
        assert A.pow(3).rows == O.pow(3).rows
        assert [list(row) for row in square.rows] == schoolbook(A, A)
        results = [*table.values.values(), *sum(square.rows, ())]
        assert all(_is_canonical_element(ring, v) for v in results)
        assert [cache.cache_info().currsize for cache in caches] == before
        oracle = _oracle_matrix(A)
        assert table.values == oracle.principal_minors().values
        assert A.adjugate().rows == oracle.adjugate().rows
        assert square.rows == oracle.mul(oracle).rows
        assert A.pow(3).rows == oracle.pow(3).rows


def test_algebra_tables_and_products_make_no_ring_op_mul(monkeypatch):
    # over an int base neither loop calls FootnoteAlgebra.mul; over Q both
    # still do, and keep the coordinates Fractions
    calls = []
    mul = FootnoteAlgebra.mul
    monkeypatch.setattr(FootnoteAlgebra, "mul", lambda self, a, b: calls.append(self) or mul(self, a, b))
    rng = random.Random(71)
    for base in (PrimeField(2), ModularRing(4)):
        ring = FootnoteAlgebra(base)
        for n in range(1, 6):
            A = random_matrix(ring, n, rng)
            A.principal_minors(), A.mul(A), A.pow(5)
    assert calls == []
    ring = FootnoteAlgebra(RationalField())
    for n in range(1, 4):
        A = Matrix(ring, [[tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6))
                           for _ in range(n)] for _ in range(n)])
        table, square, power = A.principal_minors(), A.mul(A), A.pow(3)
        results = [*table.values.values(), *sum(square.rows + power.rows, ())]
        assert all(type(v) is tuple and all(type(c) is Fraction for c in v) for v in results)
    assert calls and set(calls) == {ring}
