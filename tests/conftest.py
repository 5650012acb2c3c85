import random
from itertools import combinations, permutations

from minorcalc.rings import FootnoteAlgebra, Ring


def axiom_failures(ring: Ring, seed: int = 0, trials: int = 200, sampler=None) -> list:
    """Randomized commutative-ring axiom check on `trials` random triples."""
    from minorcalc.suites import random_element

    rng = random.Random(seed)
    sampler = sampler or (lambda: random_element(ring, rng))
    failures = []
    zero, one = ring.zero(), ring.one()
    for t in range(trials):
        a, b, c = sampler(), sampler(), sampler()
        checks = [
            ("add assoc", ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c))),
            ("add comm", ring.add(a, b), ring.add(b, a)),
            ("mul assoc", ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c))),
            ("mul comm", ring.mul(a, b), ring.mul(b, a)),
            (
                "distrib",
                ring.mul(a, ring.add(b, c)),
                ring.add(ring.mul(a, b), ring.mul(a, c)),
            ),
            ("add ident", ring.add(a, zero), a),
            ("mul ident", ring.mul(a, one), a),
            ("add inverse", ring.add(a, ring.neg(a)), zero),
        ]
        for name, lhs, rhs in checks:
            if not ring.eq(lhs, rhs):
                failures.append((name, t, a, b, c))
    return failures


def det_leibniz(M):
    """Independent determinant oracle: signed permutation sum."""
    n = M.nrows
    r = M.ring
    total = r.zero()
    for perm in permutations(range(1, n + 1)):
        inversions = sum(
            1 for a, b in combinations(range(n), 2) if perm[a] > perm[b]
        )
        term = r.one()
        for i, j in enumerate(perm, start=1):
            term = r.mul(term, M.entry(i, j))
        total = r.add(total, term if inversions % 2 == 0 else r.neg(term))
    return total


class IntOps(Ring):
    """Z (k = 0) or Z/k through the five required ring operations alone;
    int_modulus does not recognise it, so the matrix kernel, the quotient
    algebra over it and eval_universal take their ring-op loops.  Counts
    its additions."""

    def __init__(self, k: int = 0):
        self.k, self.adds = k, 0

    def _reduce(self, a):
        return a % self.k if self.k else a

    def zero(self):
        return 0

    def one(self):
        return self._reduce(1)

    def add(self, a, b):
        self.adds += 1
        return self._reduce(a + b)

    def mul(self, a, b):
        return self._reduce(a * b)

    def neg(self, a):
        return self._reduce(-a)


def schoolbook(A, B):
    """Independent product oracle: entry sums through ring.add/ring.mul."""
    r = A.ring
    out = []
    for i in range(1, A.nrows + 1):
        row = []
        for j in range(1, B.ncols + 1):
            acc = r.zero()
            for k in range(1, A.ncols + 1):
                acc = r.add(acc, r.mul(A.entry(i, k), B.entry(k, j)))
            row.append(acc)
        out.append(row)
    return out


# Nonzero products of non-unit basis elements of the quotient algebra, in
# the basis (1, x, y, x^2, y^2, x^3): (i, j) -> (index, sign).  Everything
# not listed (and not involving the basis element 1) is zero: x*y = 0,
# x^4 = 0, y^4 = 0, and mixed positive-degree products vanish.
_FOOTNOTE_TABLE = {
    (1, 1): (3, 1),   # x * x   = x^2
    (1, 3): (5, 1),   # x * x^2 = x^3
    (3, 1): (5, 1),
    (2, 2): (4, 1),   # y * y   = y^2
    (2, 4): (5, -1),  # y * y^2 = y^3 = -x^3
    (4, 2): (5, -1),
}


def footnote_mul_oracle(base: Ring, a, b):
    """Independent quotient-algebra product oracle: the 6x6 table of basis
    products, summed through the base ring's operations."""
    out = [base.zero()] * 6
    for i, ai in enumerate(a):
        if base.is_zero(ai):
            continue
        for j, bj in enumerate(b):
            if base.is_zero(bj):
                continue
            prod = base.mul(ai, bj)
            if i == 0:
                out[j] = base.add(out[j], prod)
            elif j == 0:
                out[i] = base.add(out[i], prod)
            else:
                hit = _FOOTNOTE_TABLE.get((i, j))
                if hit is None:
                    continue
                k, sign = hit
                if sign < 0:
                    prod = base.neg(prod)
                out[k] = base.add(out[k], prod)
    return tuple(out)


class OracleAlgebra(FootnoteAlgebra):
    """The quotient algebra with footnote_mul_oracle as its product, so
    that no product of it reads rings.FOOTNOTE_PRODUCT.  Over IntOps(k),
    which int_modulus does not recognise, every matrix loop over it takes
    the ring-op path through this mul."""

    def mul(self, a, b):
        return footnote_mul_oracle(self.base, a, b)


def str_oracle(f) -> str:
    """Independent printer oracle: each term's factors decoded field by
    field into (rank, -exponent) codes and sorted, then the rows sorted by
    (-degree, codes), which is graded lex, descending, under var_key."""
    from minorcalc.poly import _DEGREE, _FIELD, _index, var_key

    if not f.terms:
        return "0"
    present = sorted(f.variables(), key=var_key)
    rank = {_index[v]: r for r, v in enumerate(present)}
    rows = []
    for mono, coeff in f.terms.items():
        codes, rest, k = [], mono >> _FIELD, 0
        while rest:
            if rest & _DEGREE:
                codes.append((rank[k], -(rest & _DEGREE)))
            rest >>= _FIELD
            k += 1
        rows.append((-(mono & _DEGREE), sorted(codes), coeff))
    rows.sort()
    parts = []
    for _, codes, coeff in rows:
        factors = [present[r] if e == -1 else f"{present[r]}^{-e}" for r, e in codes]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


def minor_assignment(A) -> dict:
    """p{S} -> principal minor of A, for evaluating p-polynomials with
    Polynomial.eval."""
    from minorcalc.matrix import all_subsets
    from minorcalc.poly import pvar

    values = A.principal_minors().values
    return {pvar(s.members()): values[s.mask] for s in all_subsets(A.nrows) if len(s) > 0}


def _signed_minor_sums(subsets) -> list:
    """Series coefficients c_k = (-1)^k * sum of p{P} over the given
    subsets P with |P| = k; the empty subset's minor is the constant 1."""
    from minorcalc.poly import Polynomial, pvar

    coeffs: list = [{} for _ in range(max(map(len, subsets)) + 1)]
    for subset in subsets:
        k = len(subset)
        mono = next(iter(Polynomial.variable(pvar(subset.members())).terms)) if k else 0
        coeffs[k][mono] = -1 if k & 1 else 1
    return [Polynomial(c) for c in coeffs]


def _next_coeff(d: list, a: list, f: list):
    """f_k of a(t) / d(t), d_0 = 1, for k = len(f): a_k - sum_j d_j f_{k-j},
    accumulated in one dict over expanded p-polynomials."""
    from minorcalc.poly import Polynomial

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


def diag_oracle(n: int, i: int, m: int):
    """Independent P[n,i,m] body oracle: the order-n recurrence
    f_k = a_k - sum_j d_j f_{k-j} run on fully expanded p-polynomials."""
    from minorcalc.matrix import all_subsets, diag_reindex

    d = _signed_minor_sums(all_subsets(n))
    a = _signed_minor_sums([diag_reindex(P, i) for P in all_subsets(n - 1)])
    f: list = []
    for _ in range(m + 1):
        f.append(_next_coeff(d, a, f))
    return f[m]


def offdiag_oracle(n: int, i: int, j: int, m: int) -> tuple:
    """Independent certificate-terms oracle: the coefficients of 1/d(t) by
    the same expanded recurrence, one per (i,j)-quasiprincipal pair, in
    the certificate's order."""
    from minorcalc.matrix import all_subsets
    from minorcalc.poly import Polynomial
    from minorcalc.universal import _quasi_terms

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
    return tuple(terms)
