"""Dense matrices over a generic commutative ring: products, powers,
submatrices, division-free determinants, adjugates and principal minors.

All public indexing is 1-based.  Every determinant, principal minor and
adjugate entry comes from one memoized Laplace recursion keyed by a
(row mask, column mask) pair of integers: it expands along the lowest
remaining row over that row's nonzero entries, which each matrix lists
once per row.  It needs no division and therefore works over every ring
instance (Z/4, the counterexample algebra, ...).  Over Z and Z/k, whose
elements are plain ints, the recursion and the matrix product use
native int arithmetic and reduce mod k once per memo entry or product
entry; Z -> Z/k is a ring homomorphism, so the residues are exact.
Other rings go through their own ring operations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from typing import Iterable, Iterator

from .rings import Ring, int_modulus

# The largest n accepted by the commands and suites that enumerate all
# 2^n principal minors or subsets of [n].
MAX_SIZE = 8


def require_size(name: str, n: int, least: int) -> None:
    """Reject a size outside [least, MAX_SIZE] before any 2^n work starts."""
    if not least <= n <= MAX_SIZE:
        raise ValueError(f"{name} must be between {least} and {MAX_SIZE}, got {n}")


@dataclass(frozen=True)
class Subset:
    """A subset of [n] = {1, ..., n}, stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient size must be nonnegative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} not within [{self.n}]")

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

    def complement(self) -> "Subset":
        return Subset(self.n, ((1 << self.n) - 1) ^ self.mask)

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


@lru_cache
def _column_bits(n: int) -> tuple[int, ...]:
    return tuple(1 << j for j in range(n))


class Matrix:
    """Immutable dense matrix over a commutative ring."""

    __slots__ = ("ring", "nrows", "ncols", "rows", "_minor")

    def __init__(self, ring: Ring, rows: Iterable[Iterable]):
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows
        self._minor = None

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
        if self.ring != other.ring or self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            self.ring.eq(a, b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __reduce__(self):
        # pickle the entries only; the cached Laplace recursion is rebuilt
        return Matrix, (self.ring, self.rows)

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
        r = self.ring
        cols = tuple(zip(*other.rows))
        k = int_modulus(r)
        if k is None:
            zero, add, mul = r.zero(), r.add, r.mul
            out = []
            for row in self.rows:
                out_row = []
                for col in cols:
                    acc = zero
                    for a, b in zip(row, col):
                        acc = add(acc, mul(a, b))
                    out_row.append(acc)
                out.append(out_row)
        elif k:
            out = [[sum(map(operator.mul, row, col)) % k for col in cols] for row in self.rows]
        else:
            out = [[sum(map(operator.mul, row, col)) for col in cols] for row in self.rows]
        return Matrix(r, out)

    def __matmul__(self, other):
        return self.mul(other)

    def pow(self, m: int) -> "Matrix":
        """A^m by repeated squaring; A^0 is the identity."""
        self._require_square("matrix power")
        if m < 0:
            raise ValueError("negative matrix power")
        result = Matrix.identity(self.ring, self.nrows)
        base = self
        while m:
            if m & 1:
                result = result.mul(base)
            base = base.mul(base) if m > 1 else base
            m >>= 1
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

    def det(self, _memo: dict | None = None):
        """Division-free determinant (memoized Laplace expansion).

        The empty 0x0 matrix has determinant 1.
        """
        self._require_square("determinant")
        memo = {} if _memo is None else _memo
        full = (1 << self.nrows) - 1
        return self._minor_kernel()(full, full, memo)

    def _minor_kernel(self):
        """The Laplace recursion over this matrix, built on first use:
        ``minor(rows, cols, memo)`` is the determinant of the submatrix on
        the row and column bitmasks (equal popcounts), memoized in
        ``memo`` under one int that packs both masks."""
        if self._minor is not None:
            return self._minor
        r, shift, dense = self.ring, self.ncols, self.rows
        k = int_modulus(r)
        if k is None:
            zero, one = r.zero(), r.one()
            add, sub, mul = r.add, r.sub, r.mul
        else:
            zero, one = 0, 1
            add, sub, mul = operator.add, operator.sub, operator.mul
        bits = _column_bits(shift)
        # per row, the (column bit, entry) pairs of its nonzero entries,
        # listed when the recursion first expands along that row
        entries = [None] * self.nrows

        def nonzero(i: int) -> tuple:
            row = dense[i]
            # a nonzero int that is a multiple of k is kept: its term
            # vanishes in the reduction mod k
            keep = row if k is not None else [not r.is_zero(e) for e in row]
            entries[i] = found = tuple(compress(zip(bits, row), keep))
            return found

        def minor(rows: int, cols: int, memo: dict):
            if not rows:
                return one
            key = rows << shift | cols
            hit = memo.get(key)
            if hit is not None:
                return hit
            low = rows & -rows
            rest = rows ^ low
            i = low.bit_length() - 1
            if not rest:
                # one row and one column left
                acc = mul(dense[i][cols.bit_length() - 1], one)
            else:
                acc = zero
                row = entries[i]
                if row is None:
                    row = nonzero(i)
                for bit, e in row:
                    if cols & bit:
                        # look the smaller minor up here, saving a call per hit
                        left = cols ^ bit
                        term = memo.get(rest << shift | left)
                        if term is None:
                            term = minor(rest, left, memo)
                        term = mul(e, term)
                        # the sign is the column's position among those left
                        if (cols & (bit - 1)).bit_count() & 1:
                            acc = sub(acc, term)
                        else:
                            acc = add(acc, term)
            if k:
                acc %= k
            memo[key] = acc
            return acc

        self._minor = minor
        return minor

    def principal_minor(self, subset: Subset, _memo: dict | None = None):
        """det(sub_P^P) for one subset P of [n]."""
        self._require_square("principal minor")
        if subset.n != self.nrows:
            raise ValueError("subset ambient size differs from matrix size")
        memo = {} if _memo is None else _memo
        return self._minor_kernel()(subset.mask, subset.mask, memo)

    def principal_minors(self) -> "MinorTable":
        """All 2^n principal minors, sharing one Laplace memo cache."""
        self._require_square("principal minors")
        minor = self._minor_kernel()
        memo: dict = {}
        values = {s.mask: minor(s.mask, s.mask, memo) for s in all_subsets(self.nrows)}
        return MinorTable(self.nrows, self.ring, values)

    def adjugate(self) -> "Matrix":
        """adj B with (adj B)_{i,j} = (-1)^(i+j) det(B_{~j,~i})."""
        self._require_square("adjugate")
        n = self.nrows
        r = self.ring
        full = (1 << n) - 1
        minor = self._minor_kernel()
        memo: dict = {}
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                value = minor(full ^ (1 << j), full ^ (1 << i), memo)
                row.append(r.neg(value) if (i + j) & 1 else value)
            out.append(row)
        return Matrix(r, out)


@dataclass(frozen=True)
class MinorTable:
    """All 2^n principal minors of an n x n matrix, keyed by subset."""

    n: int
    ring: Ring
    values: dict  # mask -> ring element

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

    def __eq__(self, other):
        if not isinstance(other, MinorTable):
            return NotImplemented
        if self.n != other.n or self.ring != other.ring:
            return False
        return all(
            self.ring.eq(self.values[m], other.values[m]) for m in self.values
        )


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
