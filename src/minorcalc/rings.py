"""Commutative rings that the rest of the package computes over.

A ring is an object that knows how to combine its elements; elements
themselves are plain Python values (ints, Fractions, tuples, ...).
Everything is exact: no floating point anywhere.

Over Z, Z/k and F_p the elements are plain ints, and ``int_modulus``
says so: k for Z/k and F_k, 0 for Z, None otherwise.  The matrix kernel
and the quotient algebra both use it to pick native int arithmetic,
reduced mod k once per result, over the ring's own operations.
``algebra_int_modulus`` names the same rule for the quotient algebra: over
an int base, ``matrix`` computes minor tables and products, and
``universal`` evaluates P[n,i,m], on the six int coordinates.
``PrimeField`` checks its modulus with deterministic Miller-Rabin, which
is exact below ``MR_EXACT_BOUND`` and refuses larger moduli.
"""

from __future__ import annotations

from .records import Record


class Ring:
    """A commutative ring given by its operations on a carrier set.

    Subclasses supply ``zero``, ``one``, ``add``, ``mul`` and ``neg``.
    Equality defaults to Python ``==``, which is adequate for all the
    concrete carriers used here (ints, Fractions, tuples, polynomials).
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero())

    def is_one(self, a) -> bool:
        return self.eq(a, self.one())

    def from_int(self, k: int):
        """Image of k under the unique map Z -> R (double-and-add on 1)."""
        if k < 0:
            return self.neg(self.from_int(-k))
        acc = self.zero()
        base = self.one()
        while k:
            if k & 1:
                acc = self.add(acc, base)
            base = self.add(base, base)
            k >>= 1
        return acc

    def inv_unit(self, a):
        """Inverse of an element known to be a unit.

        The generic fallback only handles +-1; rings with more units
        override this.
        """
        if self.eq(a, self.one()):
            return a
        if self.eq(a, self.neg(self.one())):
            return a
        raise ArithmeticError(f"cannot invert {a!r} in {self.describe()}")

    def render(self, a) -> str:
        return str(a)

    def describe(self) -> str:
        return type(self).__name__


class IntegerRing(Ring, Record):
    """Z with arbitrary-precision integers."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k: int):
        return k

    def describe(self) -> str:
        return "Z"


class RationalField(Ring, Record):
    """Q with exact fractions."""

    def __init__(self):
        # imported here, so that no other ring pays for fractions
        from fractions import Fraction

        object.__setattr__(self, "_fraction", Fraction)

    def zero(self):
        return self._fraction(0)

    def one(self):
        return self._fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k: int):
        return self._fraction(k)

    def inv_unit(self, a):
        if a == 0:
            raise ArithmeticError("0 is not a unit in Q")
        return 1 / self._fraction(a)

    def describe(self) -> str:
        return "Q"


class ModularRing(Ring, Record):
    """Z/n with canonical residues 0..n-1."""

    _fields = ("modulus",)

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self._init(modulus)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def from_int(self, k: int):
        return k % self.modulus

    def inv_unit(self, a):
        try:
            return pow(a, -1, self.modulus)
        except ValueError:
            raise ArithmeticError(
                f"{a} is not a unit in {self.describe()}"
            ) from None

    def describe(self) -> str:
        return f"Z/{self.modulus}"


class PrimeField(ModularRing):
    """Z/p for prime p; every nonzero element is invertible."""

    def __init__(self, modulus: int):
        super().__init__(modulus)
        if not _is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")

    def inv_unit(self, a):
        if a % self.modulus == 0:
            raise ArithmeticError(f"0 is not a unit in {self.describe()}")
        return pow(a, -1, self.modulus)

    def describe(self) -> str:
        return f"F_{self.modulus}"


# The first 13 primes.  Miller-Rabin with these bases is exact for every
# n below MR_EXACT_BOUND (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", 2017).  The first 12 alone are not: the composite
# 318665857834031151167461 is a strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < MR_EXACT_BOUND;
    larger n raise ``ValueError`` rather than get a guess."""
    if n >= MR_EXACT_BOUND:
        raise ValueError(
            f"cannot decide whether {n} is prime: the test is exact only below {MR_EXACT_BOUND}"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_modulus(ring: Ring):
    """k over Z/k and F_k and 0 over Z, whose elements are plain ints;
    None over every other ring.  Z -> Z/k is a ring homomorphism, so
    native int arithmetic reduced mod k (or not at all over Z) gives the
    ring's own results."""
    if isinstance(ring, ModularRing):
        return ring.modulus
    return 0 if isinstance(ring, IntegerRing) else None


def algebra_int_modulus(ring: Ring):
    """int_modulus of the base when ``ring`` is the quotient algebra over
    Z, Z/k or F_p, whose coordinates are then plain ints; None otherwise
    (another ring, or the algebra over Q or any other base)."""
    return ring._k if isinstance(ring, FootnoteAlgebra) else None


# Basis of the counterexample algebra, in fixed coordinate order.
FOOTNOTE_BASIS = ("1", "x", "y", "x^2", "y^2", "x^3")


class FootnoteAlgebra(Ring, Record):
    """The 6-dimensional quotient of k[x,y] by (x^3+y^3, xy, x^4, x^3 y,
    x^2 y^2, x y^3, y^4).

    Elements are coordinate 6-tuples over the base field with respect to
    the basis (1, x, y, x^2, y^2, x^3).  The base field defaults to Z/2.
    In that basis x*y = 0, x^4 = y^4 = 0 and y^3 = -x^3, so the product
    c = a*b has the structure constants

        c0 = a0b0                 c3 = a0b3 + a3b0 + a1b1
        c1 = a0b1 + a1b0          c4 = a0b4 + a4b0 + a2b2
        c2 = a0b2 + a2b0          c5 = a0b5 + a5b0 + a1b3 + a3b1 - a2b4 - a4b2

    Over a base whose elements are plain ints (Z, Z/k, F_p) every
    operation uses int operators and reduces each coordinate mod k once;
    other bases (Q, ...) compute the same formulas with their own ring
    operations.  Over an int base, ``matrix`` computes minor tables and
    products with these formulas written out on the coordinates, one
    reduction per minor or product entry, without calling ``mul``;
    ``universal`` sums minors and G times a product on the coordinates
    and calls ``mul`` only for powers and type products.
    """

    _fields = ("base",)

    def __init__(self, base: Ring | None = None):
        self._init(PrimeField(2) if base is None else base)
        # int_modulus(base), chosen once per instance; not part of ==,
        # hash or repr
        object.__setattr__(self, "_k", int_modulus(self.base))

    def zero(self):
        z = self.base.zero()
        return (z,) * 6

    def one(self):
        z = self.base.zero()
        return (self.base.one(), z, z, z, z, z)

    def add(self, a, b):
        k = self._k
        if k is None:
            add = self.base.add
            return tuple(add(x, y) for x, y in zip(a, b))
        a0, a1, a2, a3, a4, a5 = a
        b0, b1, b2, b3, b4, b5 = b
        if k:
            return ((a0 + b0) % k, (a1 + b1) % k, (a2 + b2) % k,
                    (a3 + b3) % k, (a4 + b4) % k, (a5 + b5) % k)
        return (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5)

    def sub(self, a, b):
        k = self._k
        if k is None:
            sub = self.base.sub
            return tuple(sub(x, y) for x, y in zip(a, b))
        a0, a1, a2, a3, a4, a5 = a
        b0, b1, b2, b3, b4, b5 = b
        if k:
            return ((a0 - b0) % k, (a1 - b1) % k, (a2 - b2) % k,
                    (a3 - b3) % k, (a4 - b4) % k, (a5 - b5) % k)
        return (a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4, a5 - b5)

    def neg(self, a):
        k = self._k
        if k is None:
            return tuple(map(self.base.neg, a))
        if k:
            return tuple([-x % k for x in a])
        return tuple([-x for x in a])

    def mul(self, a, b):
        k = self._k
        a0, a1, a2, a3, a4, a5 = a
        b0, b1, b2, b3, b4, b5 = b
        if k is None:
            add, sub, mul = self.base.add, self.base.sub, self.base.mul
            return (
                mul(a0, b0),
                add(mul(a0, b1), mul(a1, b0)),
                add(mul(a0, b2), mul(a2, b0)),
                add(add(mul(a0, b3), mul(a3, b0)), mul(a1, b1)),
                add(add(mul(a0, b4), mul(a4, b0)), mul(a2, b2)),
                sub(
                    add(add(mul(a0, b5), mul(a5, b0)), add(mul(a1, b3), mul(a3, b1))),
                    add(mul(a2, b4), mul(a4, b2)),
                ),
            )
        c0 = a0 * b0
        c1 = a0 * b1 + a1 * b0
        c2 = a0 * b2 + a2 * b0
        c3 = a0 * b3 + a3 * b0 + a1 * b1
        c4 = a0 * b4 + a4 * b0 + a2 * b2
        c5 = a0 * b5 + a5 * b0 + a1 * b3 + a3 * b1 - a2 * b4 - a4 * b2
        if k:
            return (c0 % k, c1 % k, c2 % k, c3 % k, c4 % k, c5 % k)
        return (c0, c1, c2, c3, c4, c5)

    def from_int(self, k: int):
        z = self.base.zero()
        return (self.base.from_int(k), z, z, z, z, z)

    def basis_element(self, name: str):
        """Element for one of the basis symbols '1', 'x', ..., 'x^3'."""
        try:
            idx = FOOTNOTE_BASIS.index(name)
        except ValueError:
            raise ValueError(f"unknown basis symbol {name!r}") from None
        coords = list(self.zero())
        coords[idx] = self.base.one()
        return tuple(coords)

    def render(self, a) -> str:
        parts = []
        for coeff, name in zip(a, FOOTNOTE_BASIS):
            if self.base.is_zero(coeff):
                continue
            if name == "1":
                parts.append(self.base.render(coeff))
            elif self.base.is_one(coeff):
                parts.append(name)
            else:
                parts.append(f"{self.base.render(coeff)}*{name}")
        return " + ".join(parts) if parts else "0"

    def describe(self) -> str:
        return f"k[x,y]/(x^3+y^3, xy, x^4, ...) over {self.base.describe()}"
