"""Constructive synthesis of the universal polynomials expressing the
diagonal entries of A^m in the principal minors of A, and of the
off-diagonal certificates in terms of quasiprincipal minors.

The construction works with power series in t over Z[p{S}]:

* d(t)  = sum over P of (-1)^|P| p{P} t^|P|        (det of I - tA),
* a(t)  = the same sum over subsets of [n-1], reindexed around i
          (the (i,i) entry of adj(I - tA)),

and the t^m coefficient f_m of f(t) = a(t) / d(t) is the wanted
polynomial, because the t^m coefficient of ((I - tA)^-1)_{i,i} is
(A^m)_{i,i}.  Both series see the p{P} only through their sums by size:
d_j = (-1)^j E_j with E_j the sum of p{P} over |P| = j, and
a_k = (-1)^k F_k with F_k the same sum over the P that miss i.  So
f_m is first computed as a polynomial in E_1..E_n, F_1..F_{n-1}, by the
order-n recurrence f_k = a_k - sum_{j=1..n} d_j f_{k-j} (d_0 = 1).

It is then expanded by type.  With U_k the sum over |P| = k with i in P,
E_k = U_k + F_k, and a monomial in the p{P} has the type (u, v): u_k is
its exponent mass on the units of U_k, v_k that on the units of F_k.
Every compressed term c * prod E_k^a_k F_k^b_k with v_k = a_k - u_k + b_k
adds c * prod_k C(a_k, u_k) to the coefficient G(u, v) of that type, and
the type expands to G times one multiset of u_k units of U_k and one of
v_k units of F_k for every k, with the product of their multinomial
coefficients.  A monomial determines its type and its multisets, so
every term is written once, and the number of terms is known before any
is built: synth_diag and synth_offdiag refuse more than MAX_TERMS.  The
certificates need the coefficients of 1/d(t), polynomials in the E_k
alone, expanded the same way with all size-k subsets as the units of E_k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

from .matrix import (
    Matrix,
    Subset,
    all_subsets,
    quasiprincipal_minor,
    require_size,
)
from .poly import POLY_RING, Polynomial, pvar, qvar, xvar
from .rings import Ring

# the most terms a P[n,i,m] body or a certificate may have
MAX_TERMS = 1 << 20


@dataclass(frozen=True)
class UniversalPolynomial:
    """Integer polynomial in the minor symbols p{S} whose evaluation at
    the principal minors of any n x n matrix A yields (A^m)_{i,i}."""

    n: int
    i: int
    m: int
    body: Polynomial

    def header(self) -> str:
        return f"P[n={self.n},i={self.i},m={self.m}]"

    def serialize(self) -> str:
        return f"{self.header()}\n{self.body}\n"


@dataclass(frozen=True)
class OffDiagCertificate:
    """Finite sum of (coefficient in p{S}) * (quasiprincipal symbol)
    pairs witnessing that (A^m)_{i,j} lies in the module generated by
    products of principal minors and (i,j)-quasiprincipal minors."""

    n: int
    i: int
    j: int
    m: int
    terms: tuple  # of (Polynomial, (Subset I, Subset J))

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "i": self.i,
            "j": self.j,
            "m": self.m,
            "terms": [
                {"coeff": str(coeff), "I": list(I.members()), "J": list(J.members())}
                for coeff, (I, J) in self.terms
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "OffDiagCertificate":
        data = json.loads(text)
        n = data["n"]
        terms = tuple(
            (
                Polynomial.parse(t["coeff"]),
                (Subset.of(n, t["I"]), Subset.of(n, t["J"])),
            )
            for t in data["terms"]
        )
        return cls(n, data["i"], data["j"], data["m"], terms)


def generic_matrix(n: int) -> Matrix:
    """The general n x n matrix with independent entries x{i,j}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Matrix(
        POLY_RING,
        [
            [Polynomial.variable(xvar(i, j)) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ],
    )


@lru_cache
def _p_names(n: int) -> dict[Subset, str]:
    """Nonempty subset S of [n] -> its minor symbol "p{S}", in canonical
    subset order; built once per n, like all_subsets."""
    return {s: pvar(s.members()) for s in all_subsets(n) if len(s) > 0}


@lru_cache
def _p_units(n: int) -> dict[int, int]:
    """Nonempty subset mask of [n] -> the packed monomial of p{S}."""
    return {s.mask: next(iter(Polynomial.variable(name).terms)) for s, name in _p_names(n).items()}


def _units_by_size(n: int, keep) -> list[list[int]]:
    """For k = 1..n, the packed monomials p{S} of the size-k subsets S of
    [n] whose mask `keep` accepts."""
    units = _p_units(n)
    return [[u for mask, u in units.items() if mask.bit_count() == k and keep(mask)] for k in range(1, n + 1)]


def _compressed(n: int, m: int, with_f: bool, orders) -> dict[int, dict]:
    """[t^k] a(t) / d(t) for each k in orders (all at most m), with
    a(t) = 1 unless with_f, as {exponent vector: coefficient} over
    E_1..E_n and then, if with_f, F_1..F_{n-1}.  The recurrence runs on
    packed vectors: field j - 1 holds the exponent of E_j and field
    n + k - 1 that of F_k, each m.bit_length() bits wide, which holds every
    exponent of a term of weight at most m."""
    w = m.bit_length() or 1
    f: list = []
    for k in range(m + 1):
        if k == 0:
            acc = {0: 1}
        elif with_f and k < n:
            acc = {1 << w * (n + k - 1): -1 if k & 1 else 1}
        else:
            acc = {}
        get = acc.get
        for j in range(1, min(k, n) + 1):
            unit, sign = 1 << w * (j - 1), -1 if j & 1 else 1
            for mono, c in f[k - j].items():
                mono += unit
                acc[mono] = get(mono, 0) - sign * c
        f.append({mono: c for mono, c in acc.items() if c})
    low, fields = (1 << w) - 1, range(2 * n - 1 if with_f else n)
    return {
        k: {tuple(mono >> w * x & low for x in fields): c for mono, c in f[k].items()}
        for k in orders
    }


def _diag_types(n: int, i: int, m: int) -> tuple[dict, list]:
    """(types, groups) of P[n,i,m].

    groups lists the packed p{S} units of U_1..U_n and then of F_1..F_{n-1}:
    U_k holds the size-k subsets that contain i, F_k those that do not,
    so E_k = U_k + F_k (F_n is empty).  types maps the exponent mass
    (u_1..u_n, v_1..v_{n-1}) put on each group to its coefficient
    G = sum of c * prod_k C(a_k, u_k) over the compressed terms
    c * prod E_k^a_k F_k^b_k with v_k = a_k - u_k + b_k; zero G dropped."""
    bit = 1 << (i - 1)
    groups = _units_by_size(n, bit.__and__) + _units_by_size(n, lambda mask: not mask & bit)[:-1]
    types: dict = {}
    for e, c in _compressed(n, m, True, (m,))[m].items():
        a, b = e[: n - 1], e[n:]
        # E_n = U_n, so all of a_n goes to U_n
        for u in product(*(range(x + 1) for x in a)):
            g = c
            for x, y in zip(a, u):
                g *= comb(x, y)
            key = (*u, e[n - 1], *(x - y + z for x, y, z in zip(a, u, b)))
            types[key] = types.get(key, 0) + g
    return {key: g for key, g in types.items() if g}, groups


def _term_count(types: dict, groups: list) -> int:
    """Exact number of terms _expand gives: per type, the product over
    groups of the number of multisets of its count."""
    total = 0
    for counts in types:
        size = 1
        for units, c in zip(groups, counts):
            size *= comb(len(units) + c - 1, c)
        total += size
    return total


def _require_terms(count: int, what: str) -> None:
    if count > MAX_TERMS:
        raise ValueError(f"{what} has {count} terms, above the bound of {MAX_TERMS}")


def _multisets(units: list, top: int) -> list[list]:
    """Entry c: (packed monomial, multinomial coefficient) for every
    multiset of c units, for c = 0..top."""
    first, *rest = units
    layers = [[(c * first, 1)] for c in range(top + 1)]
    for x in rest:
        layers = [
            [(mono + e * x, coef * comb(c, e)) for e in range(c + 1) for mono, coef in layers[c - e]]
            for c in range(top + 1)
        ]
    return layers


def _expand(types: dict, groups: list) -> Polynomial:
    """The p-polynomial sum over types of G * prod over groups of (sum of
    the group's units)^count, expanded.  A monomial determines its type
    and its multiset in each group, so every term is written once."""
    tables = [_multisets(units, max((t[g] for t in types), default=0)) for g, units in enumerate(groups)]
    terms: dict = {}
    for counts, g in types.items():
        factors = sorted((tables[k][c] for k, c in enumerate(counts) if c), key=len)
        partial = [(0, g)]
        for factor in factors[:-1]:
            partial = [(m1 + m2, c1 * c2) for m1, c1 in partial for m2, c2 in factor]
        last = factors[-1] if factors else [(0, 1)]
        for m1, c1 in partial:
            for m2, c2 in last:
                terms[m1 + m2] = c1 * c2
    return Polynomial(terms)


@lru_cache(maxsize=None)
def synth_diag(n: int, i: int, m: int) -> UniversalPolynomial:
    """The canonical universal polynomial for (A^m)_{i,i}: the types of
    f_m, counted against MAX_TERMS, then expanded."""
    require_size("n", n, 1)
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} outside [n]={list(range(1, n + 1))}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    types, groups = _diag_types(n, i, m)
    _require_terms(_term_count(types, groups), f"P[n={n},i={i},m={m}]")
    return UniversalPolynomial(n, i, m, _expand(types, groups))


def eval_universal(U: UniversalPolynomial, table, ring: Ring):
    """Substitute a matrix's principal minors for the p{S} symbols."""
    if table.n != U.n:
        raise ValueError(f"minor table for n={table.n}, polynomial for n={U.n}")
    values = table.values
    assignment = {name: values[s.mask] for s, name in _p_names(U.n).items()}
    return U.body.eval(assignment, ring)


def minor_assignment(A: Matrix) -> dict:
    """p{S} -> principal minor of A, for evaluating p-polynomials."""
    values = A.principal_minors().values
    return {name: values[s.mask] for s, name in _p_names(A.nrows).items()}


def verify_symbolic(n: int, i: int, m: int) -> bool:
    """Exact polynomial identity check: substituting the symbolic minors
    of the generic matrix into the synthesized polynomial reproduces the
    (i,i) entry of the m-th power of the generic matrix."""
    A = generic_matrix(n)
    lhs = eval_universal(synth_diag(n, i, m), A.principal_minors(), POLY_RING)
    rhs = A.pow(m).entry(i, i)
    return lhs == rhs


def _quasi_terms(n: int, i: int, j: int):
    """(k, sign, I, J) for every subset P of [n] that contains i and j, in
    canonical order, with I = P \\ {j}, J = P \\ {i} and k = |P| - 1: the
    (i,j) entry of adj(I - tA) is the sum of these sign * q{I|J} t^k.  The
    sign is (-1)^k times the Laplace sign of the row replacement trick,
    (-1) to the sum of the 1-based ranks of i and j within sorted P."""
    for P in all_subsets(n):
        if i in P and j in P:
            k = len(P) - 1
            sign = -1 if (P.rank(i) + P.rank(j) + k) & 1 else 1
            yield k, sign, P.without(j), P.without(i)


def offdiag_series_coeffs(n: int, i: int, j: int, order: int) -> list[Polynomial]:
    """Coefficients of the (i,j) entry of adj(I - tA) as a series whose
    t^(|P|-1) coefficients are signed quasiprincipal symbols."""
    coeffs = [Polynomial({}) for _ in range(order + 1)]
    for k, sign, I, J in _quasi_terms(n, i, j):
        if k <= order:
            symbol = Polynomial.variable(qvar(I.members(), J.members()))
            coeffs[k] = coeffs[k] + (symbol if sign > 0 else -symbol)
    return coeffs


@lru_cache(maxsize=None)
def synth_offdiag(n: int, i: int, j: int, m: int) -> OffDiagCertificate:
    """Certificate expressing (A^m)_{i,j} as a sum of products of
    p-polynomials and (i,j)-quasiprincipal minors.

    Each P containing i and j contributes its signed symbol from
    _quasi_terms at t^(|P|-1), so dividing by d(t) gives that
    symbol the t^(m-|P|+1) coefficient of 1/d(t).  Terms follow the
    variable order of q{I|J}: by |I|, then I, then J."""
    require_size("n", n, 1)
    if not 1 <= i <= n or not 1 <= j <= n:
        raise ValueError(f"indices ({i},{j}) outside [n]={list(range(1, n + 1))}")
    if i == j:
        raise ValueError("i and j must be distinct; use synth_diag for the diagonal")
    if m < 0:
        raise ValueError("m must be nonnegative")
    quasi = [(k, sign, I, J) for k, sign, I, J in _quasi_terms(n, i, j) if k <= m]
    # the coefficients of 1/d(t) at t^(m-k) for k >= 1, as every P has
    # |P| >= 2; their types are their exponent vectors over the E_k, whose
    # units are all size-k subsets
    types = _compressed(n, max(m - 1, 0), False, {m - k for k, *_ in quasi})
    groups = _units_by_size(n, bool)
    count = sum(_term_count(types[m - k], groups) for k, *_ in quasi)
    _require_terms(count, f"certificate for (n={n},i={i},j={j},m={m})")
    coeffs = {r: _expand(t, groups) for r, t in types.items()}
    terms = [(coeffs[m - k] if sign > 0 else -coeffs[m - k], (I, J)) for k, sign, I, J in quasi]
    terms.sort(key=lambda t: (len(t[1][0]), t[1][0].members(), t[1][1].members()))
    return OffDiagCertificate(n, i, j, m, tuple(terms))


def eval_certificate(cert: OffDiagCertificate, A: Matrix):
    """Evaluate a certificate on a concrete matrix; equals (A^m)_{i,j}."""
    if A.nrows != cert.n or A.ncols != cert.n:
        raise ValueError(f"certificate for n={cert.n}, matrix is {A.nrows}x{A.ncols}")
    ring = A.ring
    assignment = minor_assignment(A)
    total = ring.zero()
    for coeff, (I, J) in cert.terms:
        c = coeff.eval(assignment, ring)
        q = quasiprincipal_minor(A, I, J, cert.i, cert.j)
        total = ring.add(total, ring.mul(c, q))
    return total
