"""Constructive synthesis of the universal polynomials expressing the
diagonal entries of A^m in the principal minors of A, and of the
off-diagonal certificates in terms of quasiprincipal minors.

The construction works with power series in t over Z[p{S}]:

* d(t)  = sum over P of (-1)^|P| p{P} t^|P|        (det of I - tA),
* a(t)  = the same sum over subsets of [n-1], reindexed around i
          (the (i,i) entry of adj(I - tA)),

and the t^m coefficient f_m of f(t) = a(t) / d(t) is the wanted
polynomial, because the t^m coefficient of ((I - tA)^-1)_{i,i} is
(A^m)_{i,i}.  Since d has degree n and d_0 = 1, the division is the
order-n recurrence f_k = a_k - sum_{j=1..n} d_j f_{k-j}.  synth_diag
runs it as one ascending loop over k = 0..m and takes each f_k it can
from a live result for (n, i, k), so a sweep over m does each step once.
It finds them through a weak view, which keeps nothing alive: after
synth_diag.cache_clear() nothing is reused or held, and predecessors no
one asked for are dropped when the call returns.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import lru_cache

from .matrix import (
    Matrix,
    Subset,
    all_subsets,
    diag_reindex,
    quasiprincipal_minor,
    require_size,
)
from .poly import POLY_RING, Polynomial, pvar, qvar, xvar
from .rings import Ring


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


def _p_symbol(subset: Subset) -> Polynomial:
    # the empty-subset minor is the constant 1, not a variable
    if len(subset) == 0:
        return Polynomial.constant(1)
    return Polynomial.variable(_p_names(subset.n)[subset])


def _signed_minor_sums(subsets) -> list[Polynomial]:
    """Series coefficients c_k = (-1)^k * sum of p{P} over the given
    subsets P with |P| = k."""
    coeffs: list = [{} for _ in range(max(map(len, subsets)) + 1)]
    for subset in subsets:
        k = len(subset)
        for mono, c in _p_symbol(subset).terms.items():
            coeffs[k][mono] = -c if k & 1 else c
    return [Polynomial(c) for c in coeffs]


def _next_coeff(d: list, a: list, f: list) -> Polynomial:
    """f_k of a(t) / d(t), d_0 = 1, for k = len(f): a_k - sum_j d_j f_{k-j},
    accumulated in one dict.  Every d_j and a_k is linear, so f_k has
    degree at most k and no packed field can carry before k = 2^32: the
    degree check of Polynomial.__mul__ is not needed here."""
    k = len(f)
    acc = dict(a[k].terms) if k < len(a) else {}
    get = acc.get
    for j in range(1, min(k, len(d) - 1) + 1):
        right = f[k - j].terms.items()
        for m1, c1 in d[j].terms.items():
            for m2, c2 in right:
                mono = m1 + m2
                acc[mono] = get(mono, 0) - c1 * c2
    return Polynomial({mono: c for mono, c in acc.items() if c})


# (n, i, m) -> the synth_diag result while something else keeps it alive
_live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@lru_cache(maxsize=None)
def synth_diag(n: int, i: int, m: int) -> UniversalPolynomial:
    """The canonical universal polynomial for (A^m)_{i,i}.

    f_k for k = 0..m is the body of a live result for (n, i, k) where
    there is one, and one recurrence step otherwise; each miss enters its
    result in the weak view _live.  The loop does not recurse, so m is
    bounded only by time and memory."""
    require_size("n", n, 1)
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} outside [n]={list(range(1, n + 1))}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    d = _signed_minor_sums(all_subsets(n))
    a = _signed_minor_sums([diag_reindex(P, i) for P in all_subsets(n - 1)])
    f: list = []
    for k in range(m + 1):
        live = _live.get((n, i, k))
        f.append(_next_coeff(d, a, f) if live is None else live.body)
    _live[n, i, m] = result = UniversalPolynomial(n, i, m, f[m])
    return result


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
    # 1/d(t) up to t^(m-1): every P has |P| >= 2
    d, one = _signed_minor_sums(all_subsets(n)), [Polynomial.constant(1)]
    g: list = []
    while len(g) < m:
        g.append(_next_coeff(d, one, g))
    terms = [
        (g[m - k] if sign > 0 else -g[m - k], (I, J))
        for k, sign, I, J in _quasi_terms(n, i, j)
        if k <= m
    ]
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
