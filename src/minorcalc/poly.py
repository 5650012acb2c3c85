"""Sparse multivariate polynomials with exact integer coefficients.

Variables are identified by name.  Three structured families are
reserved:

* ``x{i,j}``   -- entries of the generic matrix,
* ``p{1,3}``   -- principal-minor symbol for a nonempty subset,
* ``q{1,2|2,5}`` -- quasiprincipal-minor symbol for a pair of subsets.

Any other identifier (``a``, ``b``, ...) is an ordinary free variable.
Each name is interned to an index at first use.  A monomial is one
packed integer (Monagan & Pearce's packed exponent vectors): the lowest
32-bit field holds its total degree and field k+1 the exponent of
variable k, so multiplying two monomials is adding two integers.  The
total degree of every monomial is therefore at most 2^32 - 1.
Printing sorts one integer print key per term, which orders terms graded
lexicographically under ``var_key``, never by interning order, so equal
polynomials have identical string forms (golden-test friendly).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Mapping

from .rings import IntegerRing, Ring

_STRUCTURED = re.compile(r"^([pxq])\{([0-9,|]*)\}$")
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")

_FIELD = 32
_DEGREE = (1 << _FIELD) - 1  # mask of the total-degree field, and the largest degree

# Interned variables: index -> name and name -> index, in first-use order.
_names: list = []
_index: dict = {}


def xvar(i: int, j: int) -> str:
    return f"x{{{i},{j}}}"


def pvar(subset: Iterable[int]) -> str:
    elems = sorted(subset)
    if not elems:
        raise ValueError("the empty-subset minor is the constant 1, not a variable")
    return "p{" + ",".join(map(str, elems)) + "}"


def qvar(left: Iterable[int], right: Iterable[int]) -> str:
    li = ",".join(map(str, sorted(left)))
    ri = ",".join(map(str, sorted(right)))
    return "q{" + li + "|" + ri + "}"


@lru_cache(maxsize=None)
def var_key(name: str):
    """Total order on variable names: p-family, then x, then q, then plain
    identifiers; within each family the order follows the subset/index
    structure."""
    m = _STRUCTURED.match(name)
    if m is None:
        if not _IDENT.match(name):
            raise ValueError(f"malformed variable name {name!r}")
        return (3, name)
    fam, body = m.groups()
    if fam == "p":
        elems = tuple(int(s) for s in body.split(","))
        return (0, len(elems), elems)
    if fam == "x":
        i, j = (int(s) for s in body.split(","))
        return (1, i, j)
    left, right = body.split("|")
    li = tuple(int(s) for s in left.split(",")) if left else ()
    ri = tuple(int(s) for s in right.split(",")) if right else ()
    return (2, len(li), li, ri)


def _intern(name: str) -> int:
    k = _index.get(name)
    if k is None:
        var_key(name)  # validate
        k = _index[name] = len(_names)
        _names.append(name)
    return k


def _fields(mono: int):
    """Yield (variable index, exponent) for each nonzero exponent field of
    a packed monomial, highest index first."""
    rest = mono >> _FIELD
    while rest:
        shift = (rest.bit_length() - 1) // _FIELD * _FIELD
        e = rest >> shift
        yield shift // _FIELD, e
        rest ^= e << shift


class Polynomial:
    """Immutable sparse polynomial over Z.

    ``terms`` maps a monomial -- one packed integer, the total degree in
    its lowest 32-bit field and the exponent of interned variable k in
    field k+1; the constant monomial is 0 -- to a nonzero integer
    coefficient.  Products whose total degree would exceed 2^32 - 1
    raise ``OverflowError``.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[int, int]):
        self.terms = dict(terms)
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({0: c}) if c else cls({})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({1 << (_FIELD * (_intern(name) + 1)) | 1: 1})

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        # a field of the OR of all monomials is nonzero iff some term has it
        support = 0
        for mono in self.terms:
            support |= mono
        return {_names[k] for k, _ in _fields(support)}

    def degree(self) -> int:
        return max((mono & _DEGREE for mono in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return Polynomial.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # every exponent is at most its monomial's total degree, so when
        # the degrees fit in one field no field carries into the next
        if self.degree() + other.degree() > _DEGREE:
            raise OverflowError(f"polynomial product has degree above {_DEGREE}")
        out: dict = {}
        right = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                s = out.get(mono, 0) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- comparisons --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == Polynomial.constant(other).terms
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- evaluation ---------------------------------------------------

    def eval(self, assignment: Mapping[str, object], ring: Ring):
        """Image under the Z-algebra homomorphism sending each variable to
        its assigned ring element.

        Every variable occurring in the polynomial must be assigned.  Each
        packed monomial is decoded inline, highest variable first, and a
        term costs one ``ring.from_int``, one ``ring.mul`` per variable in
        it and one ``ring.add``.  The powers of each variable are built
        once per call, by repeated ``ring.mul``, in a table keyed by the
        variable's field shift.
        """
        powers: dict = {}  # field shift -> [1, b, b^2, ...]
        mul, add, from_int = ring.mul, ring.add, ring.from_int
        total = ring.zero()
        for mono, coeff in self.terms.items():
            val = from_int(coeff)
            rest = mono >> _FIELD
            while rest:
                shift = (rest.bit_length() - 1) // _FIELD * _FIELD
                e = rest >> shift
                rest ^= e << shift
                table = powers.get(shift)
                if table is None:
                    name = _names[shift // _FIELD]
                    try:
                        base = assignment[name]
                    except KeyError:
                        raise ValueError(f"unassigned variable {name!r}") from None
                    table = powers[shift] = [ring.one(), base]
                while len(table) <= e:
                    table.append(mul(table[-1], table[1]))
                val = mul(val, table[e])
            total = add(total, val)
        return total

    def substitute(self, assignment: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for some variables; unassigned variables
        are kept as themselves."""
        full = {v: assignment.get(v, Polynomial.variable(v)) for v in self.variables()}
        return self.eval(full, POLY_RING)

    # -- text form ----------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Graded lex, descending, under var_key, by one int print key per
        # term: the total degree above one `width`-bit field per present
        # variable, the smallest under var_key most significant.  `width`
        # is the bit length of the largest total degree, which bounds every
        # exponent, so int order on the keys is the print order, and a key
        # read from its top field down yields its factors in var_key order.
        support = 0
        for mono in self.terms:
            support |= mono
        width = (support & _DEGREE).bit_length()
        # key field f holds names[f], so the smallest name comes last
        names = sorted((_names[k] for k, _ in _fields(support)), key=var_key, reverse=True)
        place = {_index[v] * _FIELD: f * width for f, v in enumerate(names)}
        top = len(names) * width
        keys = {}
        for mono, coeff in self.terms.items():
            key = (mono & _DEGREE) << top
            rest = mono >> _FIELD
            while rest:
                shift = (rest.bit_length() - 1) // _FIELD * _FIELD
                e = rest >> shift
                rest ^= e << shift
                key |= e << place[shift]
            keys[key] = coeff
        low = (1 << top) - 1
        text: dict = {}  # one key field, in place -> "v" or "v^e"
        parts = []
        for key in sorted(keys, reverse=True):
            coeff, rest = keys[key], key & low
            factors = [] if coeff in (1, -1) else [str(abs(coeff))]
            while rest:
                shift = (rest.bit_length() - 1) // width * width
                e = rest >> shift
                field = e << shift
                rest ^= field
                s = text.get(field)
                if s is None:
                    v = names[shift // width]
                    s = text[field] = v if e == 1 else f"{v}^{e}"
                factors.append(s)
            parts.append((" - " if coeff < 0 else " + ") + ("*".join(factors) or "1"))
        head = parts[0]  # the leading sign is bare: "-x", not " - x"
        parts[0] = head[3:] if head[1] == "+" else "-" + head[3:]
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        return _parse(text)


# -- parser -----------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<var>[pxq]\{[0-9,|]+\}|[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[\^*+-]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("var"):
            tokens.append(("var", m.group("var")))
        elif m.group("int"):
            tokens.append(("int", int(m.group("int"))))
        else:
            tokens.append(("op", m.group("op")))
    return tokens


def _parse(text: str) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    acc: dict = {}  # the sum so far; repeated terms add up and may cancel
    get = acc.get
    i = 0
    sign = 1
    if tokens[0] == ("op", "-"):
        sign = -1
        i = 1
    elif tokens[0] == ("op", "+"):
        i = 1
    if i >= len(tokens):
        raise ValueError("dangling sign at end of polynomial")
    while i < len(tokens):
        mono, coeff, i = _parse_term(tokens, i)
        acc[mono] = get(mono, 0) + sign * coeff
        if i < len(tokens):
            kind, val = tokens[i]
            if kind != "op" or val not in "+-":
                raise ValueError(f"expected + or - at token {tokens[i]!r}")
            sign = 1 if val == "+" else -1
            i += 1
            if i >= len(tokens):
                raise ValueError("dangling sign at end of polynomial")
    return Polynomial({mono: c for mono, c in acc.items() if c})


def _parse_term(tokens, i):
    """(packed monomial, coefficient, next token index) of the term at i."""
    factors = []
    coeff = None
    expect_factor = True
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "int" and expect_factor:
            if coeff is not None or factors:
                raise ValueError("integer coefficient must lead its term")
            coeff = val
            i += 1
        elif kind == "var" and expect_factor:
            name, exp = val, 1
            i += 1
            if i + 1 < len(tokens) and tokens[i] == ("op", "^"):
                ek, ev = tokens[i + 1]
                if ek != "int":
                    raise ValueError("exponent must be an integer")
                exp = ev
                i += 2
            factors.append((name, exp))
        elif kind == "op" and val == "*" and not expect_factor:
            i += 1
            expect_factor = True
            continue
        else:
            break
        expect_factor = False
    if coeff is None and not factors:
        raise ValueError("empty term in polynomial text")
    if expect_factor:
        raise ValueError("dangling '*' in polynomial text")
    mono = degree = 0
    for name, exp in factors:
        mono += exp << _FIELD * (_intern(name) + 1)
        degree += exp
    if degree > _DEGREE:
        raise OverflowError(f"polynomial product has degree above {_DEGREE}")
    return mono + degree, 1 if coeff is None else coeff, i


# -- the polynomial ring as a Ring instance ---------------------------


class PolynomialRing(Ring):
    """Z[...named variables...] as a commutative ring of Polynomial values."""

    def zero(self):
        return Polynomial({})

    def one(self):
        return Polynomial.constant(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def from_int(self, k: int):
        return Polynomial.constant(k)

    def inv_unit(self, a):
        if a == 1:
            return a
        if a == -1:
            return a
        raise ArithmeticError(f"{a!r} is not a unit in Z[...]")

    def __eq__(self, other):
        return isinstance(other, PolynomialRing)

    def __hash__(self):
        return hash(PolynomialRing)

    def describe(self) -> str:
        return "Z[...]"


POLY_RING = PolynomialRing()
INT_RING = IntegerRing()
