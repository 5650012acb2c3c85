import pickle
import random
from itertools import takewhile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import axiom_failures, footnote_mul_oracle
from minorcalc.rings import (
    FOOTNOTE_BASIS,
    MR_EXACT_BOUND,
    FootnoteAlgebra,
    IntegerRing,
    ModularRing,
    PrimeField,
    RationalField,
    Ring,
    _is_prime,
)

ALL_RINGS = [
    IntegerRing(),
    RationalField(),
    ModularRing(4),
    PrimeField(2),
    PrimeField(101),
    FootnoteAlgebra(),
    FootnoteAlgebra(PrimeField(3)),
]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.describe())
def test_ring_axioms(ring):
    assert axiom_failures(ring, seed=1, trials=200) == []


def test_modular_matches_integer_arithmetic():
    ring = ModularRing(6)
    rng = random.Random(2)
    for _ in range(500):
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert ring.add(ring.from_int(a), ring.from_int(b)) == (a + b) % 6
        assert ring.mul(ring.from_int(a), ring.from_int(b)) == (a * b) % 6
        assert ring.neg(ring.from_int(a)) == (-a) % 6


def test_prime_field_inverses():
    field = PrimeField(101)
    for a in range(1, 101):
        assert field.mul(a, field.inv_unit(a)) == 1
    with pytest.raises(ArithmeticError):
        field.inv_unit(0)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)


def test_modular_unit_inverse():
    ring = ModularRing(4)
    assert ring.mul(3, ring.inv_unit(3)) == 1
    with pytest.raises(ArithmeticError):
        ring.inv_unit(2)


class _Mod7(Ring):
    """Z/7 with only the five required operations, so from_int is the
    generic double-and-add of the base class; counts its additions."""

    def __init__(self):
        self.adds = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        self.adds += 1
        return (a + b) % 7

    def mul(self, a, b):
        return a * b % 7

    def neg(self, a):
        return -a % 7


def test_from_int_generic_doubling():
    ring = _Mod7()
    assert "from_int" not in vars(_Mod7)
    for k in range(-60, 61):
        assert ring.from_int(k) == k % 7
    big = 2**70 + 12345
    ring.adds = 0
    assert ring.from_int(big) == big % 7
    # double-and-add: at most two additions per bit, not big of them
    assert ring.adds <= 2 * big.bit_length()
    assert ring.from_int(0) == ring.zero()


class TestFootnoteAlgebra:
    def setup_method(self):
        self.ring = FootnoteAlgebra(PrimeField(3))
        self.x = self.ring.basis_element("x")
        self.y = self.ring.basis_element("y")
        self.x2 = self.ring.basis_element("x^2")
        self.y2 = self.ring.basis_element("y^2")
        self.x3 = self.ring.basis_element("x^3")

    def test_defining_relations_vanish(self):
        r = self.ring
        x, y = self.x, self.y
        # generators of the ideal: x^3 + y^3, xy, x^4, x^3 y, x^2 y^2, x y^3, y^4
        y3 = r.mul(self.y2, y)
        assert r.is_zero(r.add(self.x3, y3))
        assert r.is_zero(r.mul(x, y))
        assert r.is_zero(r.mul(self.x3, x))
        assert r.is_zero(r.mul(self.x3, y))
        assert r.is_zero(r.mul(self.x2, self.y2))
        assert r.is_zero(r.mul(x, y3))
        assert r.is_zero(r.mul(self.y2, self.y2))

    def test_key_products(self):
        r = self.ring
        assert r.mul(self.x, self.y) == r.zero()
        assert r.mul(self.y, self.y2) == r.neg(self.x3)
        assert r.mul(self.x2, self.x2) == r.zero()
        assert r.mul(self.x, self.x) == self.x2
        assert r.mul(self.x, self.x2) == self.x3

    def test_x_cubed_is_nonzero(self):
        assert not self.ring.is_zero(self.x3)

    def test_render(self):
        r = self.ring
        assert r.render(r.one()) == "1"
        assert r.render(r.add(r.one(), self.x3)) == "1 + x^3"
        assert r.render(r.neg(self.x3)) == "2*x^3"
        assert r.render(r.zero()) == "0"

    def test_basis_symbols_roundtrip(self):
        for name in FOOTNOTE_BASIS:
            elem = self.ring.basis_element(name)
            assert sum(1 for c in elem if c != 0) == 1

    def test_unknown_basis_symbol(self):
        with pytest.raises(ValueError):
            self.ring.basis_element("x^5")


# -- quotient-algebra arithmetic against the table-driven oracle ------

_BASES = [
    PrimeField(2),
    PrimeField(3),
    PrimeField(101),
    ModularRing(4),
    IntegerRing(),
    RationalField(),
]


def _coords(base):
    if isinstance(base, ModularRing):
        return st.integers(0, base.modulus - 1)
    if isinstance(base, IntegerRing):
        return st.integers(-(2**70), 2**70)
    return st.fractions(min_value=-100, max_value=100, max_denominator=50)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_footnote_ops_match_table_oracle(data):
    base = data.draw(st.sampled_from(_BASES), label="base")
    ring = FootnoteAlgebra(base)
    element = st.tuples(*[_coords(base)] * 6)
    a, b = data.draw(element, label="a"), data.draw(element, label="b")
    k = data.draw(st.integers(-(2**70), 2**70), label="k")
    assert ring.add(a, b) == tuple(base.add(x, y) for x, y in zip(a, b))
    assert ring.sub(a, b) == tuple(base.add(x, base.neg(y)) for x, y in zip(a, b))
    assert ring.neg(a) == tuple(base.neg(x) for x in a)
    assert ring.mul(a, b) == footnote_mul_oracle(base, a, b)
    assert ring.from_int(k) == (base.from_int(k),) + (base.zero(),) * 5


def test_footnote_algebra_value_semantics():
    # the per-instance int selector is not part of equality, hash or repr
    a, b = FootnoteAlgebra(PrimeField(3)), FootnoteAlgebra(PrimeField(3))
    assert a == b and hash(a) == hash(b)
    assert a != FootnoteAlgebra() and FootnoteAlgebra() == FootnoteAlgebra(PrimeField(2))
    assert repr(a) == "FootnoteAlgebra(base=PrimeField(modulus=3))"
    assert a.describe() == "k[x,y]/(x^3+y^3, xy, x^4, ...) over F_3"
    c = pickle.loads(pickle.dumps(a))
    assert c == a and c.mul(a.basis_element("y"), a.basis_element("y^2")) == (0, 0, 0, 0, 0, 2)


# -- primality --------------------------------------------------------


def _trial_division_primes(limit):
    """The oracle: primes below limit, each tested by dividing by every
    smaller prime up to its square root."""
    primes = []
    for n in range(2, limit):
        if all(n % p for p in takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
    return primes


def test_is_prime_matches_trial_division():
    limit = 2 * 10**5
    assert [n for n in range(-3, limit) if _is_prime(n)] == _trial_division_primes(limit)


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the prime bases 2..23 and 2..37 respectively
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(1000000000000000003)
    assert _is_prime(2**61 - 1)
    assert not _is_prime(MR_EXACT_BOUND - 1)
    assert PrimeField(1000000000000000003).modulus == 1000000000000000003


def test_is_prime_refuses_beyond_its_exact_range():
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(MR_EXACT_BOUND)
    with pytest.raises(ValueError):
        PrimeField(2**89 - 1)
