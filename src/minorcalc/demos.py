"""Built-in demonstration matrices: the pair C, D with equal principal
minors but different squares, and the 4 x 4 matrix over the counterexample
algebra whose powers break the all-minors-one property."""

from __future__ import annotations

from .matrix import Matrix, Subset
from .poly import POLY_RING, Polynomial
from .records import Record
from .rings import FootnoteAlgebra, IntegerRing, Ring

CD_VARS = ("a", "b", "c", "d", "p", "q", "r", "s")


def cd_matrices(ring: Ring, values: dict | None = None) -> tuple[Matrix, Matrix]:
    """The matrices C and D over ``ring``.

    With ``values`` absent, builds them symbolically over Z[a..s]
    (``ring`` must then be the polynomial ring); otherwise ``values``
    maps each of a, b, c, d, p, q, r, s to a ring element.
    """
    if values is None:
        if ring != POLY_RING:
            raise ValueError("symbolic mode requires the polynomial ring")
        values = {name: Polynomial.variable(name) for name in CD_VARS}
    missing = [name for name in CD_VARS if name not in values]
    if missing:
        raise ValueError(f"missing values for {missing}")
    a, b, c, d, p, q, r, s = (values[name] for name in CD_VARS)
    one = ring.one()
    C = Matrix(ring, [[a, b, one, one], [c, d, one, one], [one, one, p, q], [one, one, r, s]])
    D = Matrix(ring, [[a, b, one, one], [c, d, one, one], [one, one, p, r], [one, one, q, s]])
    return C, D


class CDResult(Record):
    _fields = ("minors_equal", "sq_minor_c", "sq_minor_d")

    def __init__(self, minors_equal: bool, sq_minor_c: object, sq_minor_d: object):
        self._init(minors_equal, sq_minor_c, sq_minor_d)

    @property
    def squares_differ(self) -> bool:
        return self.sq_minor_c != self.sq_minor_d


def cd_compare(ring: Ring, values: dict | None = None) -> CDResult:
    """Compare the 16-entry minor tables of C and D and the {2,3}
    principal minors of their squares."""
    C, D = cd_matrices(ring, values)
    equal = C.principal_minors() == D.principal_minors()
    sub = Subset.of(4, [2, 3])
    mc = C.pow(2).principal_minor(sub)
    md = D.pow(2).principal_minor(sub)
    return CDResult(equal, mc, md)


def cd_compare_ints(values: tuple[int, ...]) -> CDResult:
    ring = IntegerRing()
    return cd_compare(ring, dict(zip(CD_VARS, values)))


def footnote_matrix(ring: FootnoteAlgebra) -> Matrix:
    """The 4 x 4 matrix over the counterexample algebra all of whose 16
    principal minors are 1 while its square has a non-unit {2,3} minor."""
    one, zero = ring.one(), ring.zero()
    x = ring.basis_element("x")
    y = ring.basis_element("y")
    return Matrix(
        ring,
        [
            [one, one, zero, zero],
            [zero, one, y, x],
            [x, zero, one, y],
            [y, zero, x, one],
        ],
    )


class CounterexampleResult(Record):
    _fields = ("base_minors_all_one", "square_minor", "square_minor_is_one")

    def __init__(self, base_minors_all_one: bool, square_minor: object, square_minor_is_one: bool):
        self._init(base_minors_all_one, square_minor, square_minor_is_one)

    @property
    def reproduces(self) -> bool:
        return self.base_minors_all_one and not self.square_minor_is_one


def counterexample_check(ring: FootnoteAlgebra | None = None) -> CounterexampleResult:
    ring = ring or FootnoteAlgebra()
    A = footnote_matrix(ring)
    table = A.principal_minors()
    minor = A.pow(2).principal_minor(Subset.of(4, [2, 3]))
    return CounterexampleResult(
        table.all_equal(ring.one()), minor, ring.eq(minor, ring.one())
    )
