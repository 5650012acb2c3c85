import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import str_oracle
from minorcalc import poly
from minorcalc.poly import POLY_RING, Polynomial, pvar, qvar, var_key, xvar
from minorcalc.rings import FootnoteAlgebra, IntegerRing, ModularRing
from minorcalc.universal import synth_diag

Z = IntegerRing()


def P(name):
    return Polynomial.variable(name)


def test_variable_names():
    assert xvar(2, 3) == "x{2,3}"
    assert pvar([3, 1]) == "p{1,3}"
    assert qvar([2, 1, 7], [7, 5, 2]) == "q{1,2,7|2,5,7}"
    with pytest.raises(ValueError):
        pvar([])


def test_variable_order():
    # p-family first (by size, then members), then x (by position), then q
    assert var_key("p{1}") < var_key("p{2}") < var_key("p{1,2}")
    assert var_key("p{1,3}") < var_key("p{2,3}")
    assert var_key("p{1,2,3}") < var_key("x{1,1}") < var_key("x{1,2}") < var_key("x{2,1}")
    assert var_key("x{3,3}") < var_key("q{1|2}") < var_key("a")


def test_add_inverse_is_zero():
    f = P("p{1}")
    assert (f + (-f)).is_zero()


def test_add_matches_power_two_display():
    # p{1}^2 + p{1}*p{2}, then adding -p{1,2}, gives the three-term
    # polynomial for the (1,1) entry of the square of a 2x2 matrix
    f = P("p{1}") ** 2 + P("p{1}") * P("p{2}")
    g = f + (-P("p{1,2}"))
    assert str(g) == "p{1}^2 + p{1}*p{2} - p{1,2}"


def test_add_cancellation():
    f = P("x{1,1}") + P("x{2,2}")
    g = P("x{1,1}") - P("x{2,2}")
    assert f + g == 2 * P("x{1,1}")


def test_mul_identity():
    f = P("x{1,1}") * P("x{2,2}") - P("x{1,2}") * P("x{2,1}")
    assert Polynomial.constant(1) * f == f
    assert f * 1 == f


def test_mul_binomial():
    s = P("p{1}") + P("p{2}")
    assert s * s == P("p{1}") ** 2 + 2 * P("p{1}") * P("p{2}") + P("p{2}") ** 2


def test_eval_two_by_two_determinant():
    f = P("x{1,1}") * P("x{2,2}") - P("x{1,2}") * P("x{2,1}")
    assignment = {"x{1,1}": 1, "x{1,2}": 2, "x{2,1}": 3, "x{2,2}": 4}
    assert f.eval(assignment, Z) == -2


def test_eval_matches_matrix_square_oracle():
    # oracle: direct multiplication of A = [[1,2],[3,4]] gives (A^2)_11 = 7
    a = [[1, 2], [3, 4]]
    oracle = sum(a[0][k] * a[k][0] for k in range(2))
    f = P("p{1}") ** 2 + P("p{1}") * P("p{2}") - P("p{1,2}")
    assert f.eval({"p{1}": 1, "p{2}": 4, "p{1,2}": -2}, Z) == oracle == 7


def test_eval_all_zero_gives_constant_term():
    f = 3 * P("a") ** 2 - P("b") + Polynomial.constant(11)
    assert f.eval({"a": 0, "b": 0}, Z) == 11


def test_eval_unassigned_variable():
    f = P("a") + P("b")
    with pytest.raises(ValueError, match="unassigned variable"):
        f.eval({"a": 1}, Z)


def test_eval_is_homomorphism():
    rng = random.Random(5)
    rings = [Z, ModularRing(4)]
    names = ["a", "b", "p{1}", "x{1,2}"]
    for _ in range(100):
        f = _random_poly(rng, names)
        g = _random_poly(rng, names)
        for ring in rings:
            vals = {n: ring.from_int(rng.randint(-9, 9)) for n in names}
            assert ring.eq(
                (f + g).eval(vals, ring), ring.add(f.eval(vals, ring), g.eval(vals, ring))
            )
            assert ring.eq(
                (f * g).eval(vals, ring), ring.mul(f.eval(vals, ring), g.eval(vals, ring))
            )


def _random_poly(rng, names, nterms=4):
    out = Polynomial.constant(rng.randint(-5, 5))
    for _ in range(rng.randint(0, nterms)):
        term = Polynomial.constant(rng.randint(-9, 9))
        for _ in range(rng.randint(0, 3)):
            term = term * P(rng.choice(names))
        out = out + term
    return out


def test_canonical_string_examples():
    assert str(Polynomial({})) == "0"
    assert str(Polynomial.constant(-7)) == "-7"
    assert str(-P("p{1}") + 1) == "-p{1} + 1"
    f = P("p{1}") * P("p{1,2}") * 5 - P("q{1|2}") ** 3
    assert str(f) == "-q{1|2}^3 + 5*p{1}*p{1,2}"


def test_parse_examples():
    f = Polynomial.parse("p{1}^2 + p{1}*p{2} - p{1,2}")
    assert f == P("p{1}") ** 2 + P("p{1}") * P("p{2}") - P("p{1,2}")
    assert Polynomial.parse("0") == Polynomial({})
    assert Polynomial.parse("-3*a*b^2 + 1") == -3 * P("a") * P("b") ** 2 + 1


def test_parse_sums_and_cancels_repeated_terms():
    a, b = P("a"), P("b")
    assert Polynomial.parse("a + a") == 2 * a
    assert Polynomial.parse("p{1} - p{1}") == Polynomial({})
    assert Polynomial.parse("a*b - b*a + a^0") == 1
    assert Polynomial.parse("a*a - a^2 + 2*b*a - a*b + 0*b") == a * b
    with pytest.raises(OverflowError):
        Polynomial.parse("a^4294967296")
    with pytest.raises(OverflowError):
        Polynomial.parse("a^2147483648*b^2147483648")


def test_parse_rejects_garbage():
    for bad in ["", "+", "p{1} +", "p{1} * * p{2}", "p{1}^x"]:
        with pytest.raises(ValueError):
            Polynomial.parse(bad)


_NAMES = ["p{1}", "p{2}", "p{1,2}", "x{1,1}", "x{2,1}", "q{1|2}", "a", "s"]
_var_names = st.sampled_from(_NAMES)
_monomials = st.lists(st.tuples(_var_names, st.integers(1, 4)), max_size=3)
_term_lists = st.lists(st.tuples(_monomials, st.integers(-99, 99)), max_size=6)


def _monomial_poly(mono):
    out = Polynomial.constant(1)
    for name, exp in mono:
        out = out * Polynomial.variable(name) ** exp
    return out


def _poly_from_terms(terms):
    return sum((coeff * _monomial_poly(mono) for mono, coeff in terms), Polynomial({}))


_polys = _term_lists.map(_poly_from_terms)


def _term_text(mono, coeff):
    factors = [str(abs(coeff))] + [f"{name}^{exp}" for name, exp in mono]
    return ("- " if coeff < 0 else "+ ") + "*".join(factors)


@given(_term_lists.filter(bool))
def test_parse_of_an_unreduced_sum(terms):
    text = " ".join(_term_text(mono, coeff) for mono, coeff in terms)
    assert Polynomial.parse(text) == _poly_from_terms(terms)


@given(_polys)
def test_print_parse_roundtrip(f):
    assert Polynomial.parse(str(f)) == f


@given(_polys)
def test_string_form_is_canonical(f):
    # serialize -> parse -> serialize is the identity on strings
    assert str(Polynomial.parse(str(f))) == str(f)


def _plain_eval(terms, point):
    # the oracle: a raw term list evaluated with Python ints only
    total = 0
    for mono, coeff in terms:
        value = coeff
        for name, exp in mono:
            value *= point[name] ** exp
        total += value
    return total


_points = st.fixed_dictionaries({name: st.integers(-7, 7) for name in _NAMES})


@given(_term_lists, _term_lists, st.integers(0, 4), _points)
def test_arithmetic_matches_plain_int_evaluation(f_terms, g_terms, k, point):
    f, g = _poly_from_terms(f_terms), _poly_from_terms(g_terms)
    fv, gv = _plain_eval(f_terms, point), _plain_eval(g_terms, point)
    assert f.eval(point, Z) == fv
    assert (f + g).eval(point, Z) == fv + gv
    assert (f - g).eval(point, Z) == fv - gv
    assert (f * g).eval(point, Z) == fv * gv
    assert (f ** k).eval(point, Z) == fv**k


def _ring_op_eval(terms, point, ring):
    # the oracle: a raw term list evaluated by repeated ring.mul, with no
    # packed monomial in sight
    total = ring.zero()
    for mono, coeff in terms:
        value = ring.from_int(coeff)
        for name, exp in mono:
            for _ in range(exp):
                value = ring.mul(value, point[name])
        total = ring.add(total, value)
    return total


_FOOTNOTE = FootnoteAlgebra()
_bits = st.integers(0, 1)
_footnote_points = st.fixed_dictionaries(
    {name: st.tuples(*[_bits] * 6) for name in _NAMES}
)
_small_linear = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda c: c[0] + c[1] * P("u") + c[2] * P("v")
)
_poly_points = st.fixed_dictionaries({name: _small_linear for name in _NAMES})


@given(_term_lists, _footnote_points)
def test_eval_over_the_quotient_algebra_matches_ring_op_oracle(terms, point):
    f = _poly_from_terms(terms)
    assert f.eval(point, _FOOTNOTE) == _ring_op_eval(terms, point, _FOOTNOTE)


@settings(deadline=None)
@given(_term_lists, _poly_points)
def test_eval_over_polynomials_matches_ring_op_oracle(terms, point):
    f = _poly_from_terms(terms)
    assert f.eval(point, POLY_RING) == _ring_op_eval(terms, point, POLY_RING)


def test_printing_ignores_interning_order():
    # each pair is interned against var_key order: zz9 before zz1, and
    # p{1,2} before p{9}, which no synthesis up to MAX_SIZE creates
    zz9, zz1 = P("zz9"), P("zz1")
    p12, p9 = P("p{1,2}"), P("p{9}")
    assert poly._index["zz9"] < poly._index["zz1"]
    assert poly._index["p{1,2}"] < poly._index["p{9}"]
    f = zz9**2 + zz1 * zz9 + zz1**2 + 3 * p12 * zz9 - p9 * zz1 - 2 * p9 * p12 + p12
    assert str(f) == (
        "-2*p{9}*p{1,2} - p{9}*zz1 + 3*p{1,2}*zz9 + zz1^2 + zz1*zz9 + zz9^2 + p{1,2}"
    )
    assert Polynomial.parse(str(f)) == f


# Names no other test uses, interned here in descending var_key order, so
# interning order is the reverse of print order (zz9 before zz1, p{9,10}
# before p{11}); mixed with names interned elsewhere.
_FRESH = ["zz9", "zz1", "q{8,9|9,10}", "q{9|8}", "x{9,9}", "x{9,1}", "p{9,10}", "p{11}"]
for _name in sorted(_FRESH, key=var_key, reverse=True):
    P(_name)
_print_names = st.sampled_from(_FRESH + ["p{1}", "p{1,2}", "x{1,1}", "q{1|2}", "a"])
# exponents at the edges of a print key's field width: 2^W - 1 and 2^W
_edge_exponents = st.sampled_from(
    [1, 2, 3, 4, 7, 8, 15, 16, 255, 256, 65535, 65536, 70000]
)
_print_terms = st.lists(
    st.tuples(
        st.lists(st.tuples(_print_names, _edge_exponents), max_size=4),
        st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30)),
    ),
    max_size=8,
)


@settings(deadline=None)
@given(_print_terms)
def test_printing_matches_the_decode_and_sort_oracle(terms):
    f = _poly_from_terms(terms)
    assert str(f) == str_oracle(f)


def test_printing_at_the_degree_bound():
    a, b = P("a"), P("b")
    for f in (a ** (2**32 - 1) + b, a ** (2**32 - 2) * b, 3 * b * a ** (2**32 - 2) - b):
        assert str(f) == str_oracle(f)
    assert str(a ** (2**32 - 1) - b) == "a^4294967295 - b"
    assert str(b * a ** (2**32 - 2) - 1) == "a^4294967294*b - 1"
    with pytest.raises(OverflowError):
        a ** (2**32 - 1) * b


def test_power_reaches_the_degree_bound_and_no_further():
    a = P("a")
    assert str(a ** (2**32 - 1)) == "a^4294967295"
    with pytest.raises(OverflowError):
        a ** 2**32
    with pytest.raises(OverflowError):
        a ** (2**31) * P("b") ** (2**31)


def test_large_exponent_of_a_synthesized_polynomial():
    assert str(synth_diag(1, 1, 70000).body) == "p{1}^70000"
    assert synth_diag(1, 1, 70000).serialize() == "P[n=1,i=1,m=70000]\np{1}^70000\n"


def test_substitute_keeps_unassigned():
    f = P("a") * P("b") + P("a")
    g = f.substitute({"b": P("c") + 1})
    assert g == P("a") * P("c") + 2 * P("a")


def test_poly_ring_contract():
    assert POLY_RING.from_int(-2) == Polynomial.constant(-2)
    assert POLY_RING.inv_unit(Polynomial.constant(1)) == 1
    with pytest.raises(ArithmeticError):
        POLY_RING.inv_unit(P("a"))
