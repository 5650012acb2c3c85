"""Dense matrices over a generic commutative ring: products, powers,
submatrices, division-free determinants, adjugates and principal minors.

All public indexing is 1-based.  ``minor_function`` and
``product_function`` hold the one dispatch rule: for a ring and sizes
they return ``rows -> tuple of minors`` and ``(a, b) -> row tuples`` on
bare row tuples, so a scan resolves them once and builds no ``Matrix``.
Minors run one Laplace expansion along the lowest remaining row,
unrolled once per size and set of minors into a program (see
``laplace``), which needs no division and therefore works over every
ring instance (Z/4, the counterexample algebra, ...).

Over Z and Z/k, whose elements are plain ints, minors and products of
sizes up to MAX_SIZE come from straight-line int kernels generated once
per size, reduced mod k once per minor or product entry (not at all over
Z); Z -> Z/k is a ring homomorphism, so the residues are exact.  Over
the counterexample algebra on such a base, the program and the
schoolbook product run at every size as loops on the six int
coordinates, generated from ``rings.FOOTNOTE_PRODUCT``, with the same
reduction.  Other rings (the algebra over Q, polynomials, ...), and
int rings above MAX_SIZE, where nothing is cached or compiled, run the
program as one loop through their own ring operations, skipping the
matrix's zero entries, and products as schoolbook sums.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations
from typing import Iterable, Iterator

from .laplace import _algebra_kernels, _laplace_program, _minor_kernel, _product_kernel
from .records import Record
from .rings import FOOTNOTE_PRODUCT_EXPRS, Ring, algebra_int_modulus, int_modulus

# The largest n accepted by the commands and suites that enumerate all
# 2^n principal minors or subsets of [n].
MAX_SIZE = 8


def require_size(name: str, n: int, least: int) -> None:
    """Reject a size outside [least, MAX_SIZE] before any 2^n work starts."""
    if not least <= n <= MAX_SIZE:
        raise ValueError(f"{name} must be between {least} and {MAX_SIZE}, got {n}")


class Subset(Record):
    """A subset of [n] = {1, ..., n}, stored as a bitmask."""

    _fields = ("n", "mask")

    def __init__(self, n: int, mask: int):
        if n < 0:
            raise ValueError("ambient size must be nonnegative")
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} not within [{n}]")
        self._init(n, mask)

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "Subset":
        mask = 0
        for i in members:
            if not 1 <= i <= n:
                raise ValueError(f"element {i} outside [{n}]")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls(n, (1 << n) - 1)

    def members(self) -> tuple:
        return tuple(i for i in range(1, self.n + 1) if self.mask >> (i - 1) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool(self.mask >> (i - 1) & 1)

    def without(self, i: int) -> "Subset":
        return Subset(self.n, self.mask & ~(1 << (i - 1)))

    def adding(self, i: int) -> "Subset":
        if not 1 <= i <= self.n:
            raise ValueError(f"element {i} outside [{self.n}]")
        return Subset(self.n, self.mask | (1 << (i - 1)))

    def rank(self, i: int) -> int:
        """1-based position of i among the members (i must be a member)."""
        if i not in self:
            raise ValueError(f"{i} is not a member of {self}")
        return (self.mask & ((1 << i) - 1)).bit_count()

    def label(self) -> str:
        return "{" + ",".join(map(str, self.members())) + "}"

    def __str__(self):
        return self.label()


@lru_cache
def all_subsets(n: int) -> tuple[Subset, ...]:
    """All 2^n subsets in canonical order: by size, then lexicographically
    on the sorted member tuples."""
    return tuple(
        Subset.of(n, combo)
        for k in range(n + 1)
        for combo in combinations(range(1, n + 1), k)
    )


class Matrix:
    """Immutable dense matrix over a commutative ring."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring: Ring, rows: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def _of(cls, ring: Ring, rows: tuple, ncols: int) -> "Matrix":
        """A matrix on ``rows``, row tuples of length ``ncols``, unchecked."""
        self = object.__new__(cls)
        self.ring, self.nrows, self.ncols, self.rows = ring, len(rows), ncols, rows
        return self

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Matrix":
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring: Ring, nrows: int, ncols: int) -> "Matrix":
        zero = ring.zero()
        return cls(ring, [[zero] * ncols for _ in range(nrows)])

    @classmethod
    def from_ints(cls, ring: Ring, rows: Iterable[Iterable[int]]) -> "Matrix":
        return cls(ring, [[ring.from_int(v) for v in row] for row in rows])

    def entry(self, i: int, j: int):
        """1-based entry access."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexError(f"entry ({i},{j}) outside {self.nrows}x{self.ncols}")
        return self.rows[i - 1][j - 1]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def _require_square(self, what: str):
        if not self.is_square:
            raise ValueError(f"{what} requires a square matrix, got {self.nrows}x{self.ncols}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        # Ring.eq is == for every ring, so equal rows are equal matrices
        return (self.ring, self.ncols, self.rows) == (other.ring, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __repr__(self):
        body = "; ".join(
            ", ".join(self.ring.render(v) for v in row) for row in self.rows
        )
        return f"Matrix[{body}]"

    # -- arithmetic ---------------------------------------------------

    def add(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")
        r = self.ring
        return Matrix(
            r,
            [
                [r.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def scale(self, c) -> "Matrix":
        r = self.ring
        return Matrix(r, [[r.mul(c, v) for v in row] for row in self.rows])

    def neg(self) -> "Matrix":
        r = self.ring
        return Matrix(r, [[r.neg(v) for v in row] for row in self.rows])

    def mul(self, other: "Matrix") -> "Matrix":
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"inner dimensions differ: {self.nrows}x{self.ncols} vs "
                f"{other.nrows}x{other.ncols}"
            )
        product = product_function(self.ring, self.nrows, self.ncols, other.ncols)
        return Matrix._of(self.ring, product(self.rows, other.rows), other.ncols)

    def __matmul__(self, other):
        return self.mul(other)

    def pow(self, m: int) -> "Matrix":
        """A^m by repeated squaring; A^0 is the identity and A^1 is A.

        The result starts at the power of A for the lowest set bit of m,
        not at the identity, so for m >= 1 it takes bit_length(m) - 1
        squarings and popcount(m) - 1 further products."""
        self._require_square("matrix power")
        if m < 0:
            raise ValueError("negative matrix power")
        if m == 0:
            return Matrix.identity(self.ring, self.nrows)
        base = self
        while not m & 1:
            base = base.mul(base)
            m >>= 1
        result = base
        while m > 1:
            m >>= 1
            base = base.mul(base)
            if m & 1:
                result = result.mul(base)
        return result

    def _check_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise ValueError("matrices over different rings")

    # -- submatrices --------------------------------------------------

    def submatrix(self, rows: Subset, cols: Subset) -> "Matrix":
        """sub_I^J: rows and columns selected in increasing order."""
        if rows.n != self.nrows:
            raise ValueError(f"row subset over [{rows.n}], matrix has {self.nrows} rows")
        if cols.n != self.ncols:
            raise ValueError(f"column subset over [{cols.n}], matrix has {self.ncols} columns")
        cs = cols.members()
        return Matrix(
            self.ring, [[self.rows[i - 1][j - 1] for j in cs] for i in rows.members()]
        )

    def delete(self, i: int, j: int) -> "Matrix":
        """B_{~i,~j}: remove the i-th row and the j-th column."""
        rows = Subset.full(self.nrows).without(i)
        cols = Subset.full(self.ncols).without(j)
        return self.submatrix(rows, cols)

    # -- determinants -------------------------------------------------

    def det(self):
        """Division-free determinant (Laplace expansion).

        The empty 0x0 matrix has determinant 1.
        """
        self._require_square("determinant")
        full = (1 << self.nrows) - 1
        return minors(self.ring, self.rows, ((full, full),))[0]

    def principal_minor(self, subset: Subset):
        """det(sub_P^P) for one subset P of [n]."""
        self._require_square("principal minor")
        if subset.n != self.nrows:
            raise ValueError("subset ambient size differs from matrix size")
        return self.submatrix(subset, subset).det()

    def principal_minors(self) -> "MinorTable":
        """All 2^n principal minors, from one Laplace program."""
        self._require_square("principal minors")
        n = self.nrows
        values = minors(self.ring, self.rows, _principal_pairs(n))
        return MinorTable(n, self.ring, dict(zip(_principal_masks(n), values)))

    def adjugate(self) -> "Matrix":
        """adj B with (adj B)_{i,j} = (-1)^(i+j) det(B_{~j,~i})."""
        self._require_square("adjugate")
        n, r = self.nrows, self.ring
        full = (1 << n) - 1
        pairs = tuple((full ^ 1 << j, full ^ 1 << i) for i in range(n) for j in range(n))
        cofactors = minors(r, self.rows, pairs)
        out = []
        for i in range(n):
            row = cofactors[i * n : i * n + n]
            out.append([r.neg(v) if (i + j) & 1 else v for j, v in enumerate(row)])
        return Matrix(r, out)


def minor_function(ring: Ring, n: int, targets: tuple):
    """``table(rows)``: the tuple of minors on ``targets``, (row mask,
    column mask) pairs of equal popcount, of the n x n matrix with row
    tuples ``rows`` over ``ring``.  Over int rings up to MAX_SIZE it is
    the generated kernel, over the algebra on an int base the coordinate
    loop; otherwise it runs the Laplace program as one loop over the
    ring's operations that skips the zero entries."""
    k = int_modulus(ring)
    if n <= MAX_SIZE:
        if k is not None:
            return _minor_kernel(n, targets, k != 0)(k)
        entries, where = _laplace_program(n, targets)
    else:
        entries, where = _laplace_program.__wrapped__(n, targets)
    coord_k = algebra_int_modulus(ring)
    if coord_k is not None:
        return _algebra_kernels(FOOTNOTE_PRODUCT_EXPRS)[0](entries, where, coord_k)
    zero, one, add, sub, mul = ring.zero(), ring.one(), ring.add, ring.sub, ring.mul

    def table(rows):
        # vals[-1] is the empty minor, which every 1x1 entry multiplies by
        vals = [None] * len(entries) + [one]
        nonzero = [[not ring.is_zero(e) for e in row] for row in rows]
        for at, terms in enumerate(entries):
            acc = zero
            for i, j, negative, s in terms:
                if nonzero[i][j]:
                    term = mul(rows[i][j], vals[s])
                    acc = sub(acc, term) if negative else add(acc, term)
            vals[at] = acc
        return tuple(vals[t] for t in where)

    return table


def product_function(ring: Ring, p: int, q: int, s: int):
    """``product(a, b)``: the product of the p x q and q x s matrices
    with row tuples ``a`` and ``b`` over ``ring``, as row tuples: the
    generated kernel over int rings up to MAX_SIZE, the coordinate loop
    over the algebra on an int base, else the schoolbook sum through the
    ring's operations."""
    k = int_modulus(ring)
    if k is not None and max(p, q, s) <= MAX_SIZE:
        return _product_kernel(p, q, s, k != 0)(k)
    coord_k = algebra_int_modulus(ring)
    if coord_k is not None:
        return _algebra_kernels(FOOTNOTE_PRODUCT_EXPRS)[1](coord_k)
    zero, add, mul = ring.zero(), ring.add, ring.mul

    def product(a, b):
        cols = tuple(zip(*b))
        return tuple(tuple(reduce(add, map(mul, row, col), zero) for col in cols) for row in a)

    return product


def minors(ring: Ring, rows: tuple, targets: tuple) -> tuple:
    """The minors on ``targets`` of the square matrix ``rows`` (see ``minor_function``)."""
    return minor_function(ring, len(rows), targets)(rows)


@lru_cache
def _principal_masks(n: int) -> tuple:
    """The mask of every subset of [n], in canonical order."""
    return tuple(s.mask for s in all_subsets(n))


@lru_cache
def _principal_pairs(n: int) -> tuple:
    """The (mask, mask) targets of every principal minor, in canonical order."""
    return tuple((m, m) for m in _principal_masks(n))


class MinorTable(Record):
    """All 2^n principal minors of an n x n matrix, keyed by subset."""

    _fields = ("n", "ring", "values")

    def __init__(self, n: int, ring: Ring, values: dict):
        self._init(n, ring, values)  # values: mask -> ring element
        # universal's lifts of the minors by digit width, each with its height,
        # over the quotient algebra on an int base; not part of ==, hash or repr
        object.__setattr__(self, "lifts", {})

    def __getitem__(self, subset):
        if isinstance(subset, Subset):
            if subset.n != self.n:
                raise KeyError(f"subset ambient size {subset.n} != {self.n}")
            mask = subset.mask
        else:
            mask = Subset.of(self.n, subset).mask
        return self.values[mask]

    def items(self):
        """(Subset, value) pairs in canonical subset order."""
        return [(s, self.values[s.mask]) for s in all_subsets(self.n)]

    def all_equal(self, element) -> bool:
        return all(self.ring.eq(v, element) for v in self.values.values())


def diag_reindex(P: Subset, i: int) -> Subset:
    """Map a subset P of [n-1] to the subset P' of [n] with
    sub_P^P(A_{~i,~i}) = sub_P'^P' A: members < i stay, members >= i
    shift up by one (so i is never in P')."""
    n = P.n + 1
    if not 1 <= i <= n:
        raise ValueError(f"index {i} outside [{n}]")
    return Subset.of(n, (q if q < i else q + 1 for q in P))


def quasiprincipal_minor(A: Matrix, I: Subset, J: Subset, i: int, j: int):
    """det(sub_I^J A) where (I, J) is a valid (i,j)-quasiprincipal pair:
    i in I, j in J, |I| = |J| and J = (I \\ {i}) | {j}."""
    A._require_square("quasiprincipal minor")
    n = A.nrows
    if I.n != n or J.n != n:
        raise ValueError("subset ambient sizes differ from matrix size")
    if i == j:
        raise ValueError("i and j must be distinct")
    if i not in I:
        raise ValueError(f"violated clause: i={i} not in I={I}")
    if j not in J:
        raise ValueError(f"violated clause: j={j} not in J={J}")
    if len(I) != len(J):
        raise ValueError(f"violated clause: |I|={len(I)} != |J|={len(J)}")
    if J.mask != (I.without(i).adding(j)).mask:
        raise ValueError(f"violated clause: J={J} != (I\\{{{i}}}) u {{{j}}} for I={I}")
    return A.submatrix(I, J).det()
