"""Verification suites driving the identity checks behind each theorem.

Each suite returns a list of failure descriptions; an empty list means
the suite passed.  The CLI `verify` subcommand and the acceptance tests
both run these.
"""

from __future__ import annotations

import random

from .matrix import Matrix, all_subsets, require_size
from .poly import POLY_RING, Polynomial, qvar
from .rings import FootnoteAlgebra, IntegerRing, ModularRing, PrimeField, Ring
from .universal import (
    _quasi_terms,
    eval_certificate,
    eval_universal,
    generic_matrix,
    synth_diag,
    synth_offdiag,
)

DEFAULT_RINGS = {
    "int": IntegerRing(),
    "mod2": PrimeField(2),
    "mod4": ModularRing(4),
    "mod101": PrimeField(101),
}


def random_element(ring: Ring, rng: random.Random, bound: int = 9):
    if isinstance(ring, ModularRing):
        return rng.randrange(ring.modulus)
    if isinstance(ring, FootnoteAlgebra):
        return tuple(random_element(ring.base, rng) for _ in range(6))
    return rng.randint(-bound, bound)


def random_matrix(ring: Ring, n: int, rng: random.Random, bound: int = 9) -> Matrix:
    return Matrix(
        ring, [[random_element(ring, rng, bound) for _ in range(n)] for _ in range(n)]
    )


def _require_at_least(**bounds):
    """Reject out-of-range counts before any work starts; each keyword maps
    a parameter name to (value, least allowed value).  Matrix sizes go
    through `require_size`, which also caps them."""
    for name, (value, least) in bounds.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def suite_symbolic(n_max: int = 3, m_max: int = 4, extra=((4, 2),)) -> list[str]:
    """Exact polynomial identity of the synthesized universal polynomials
    against powers of the generic matrix."""
    require_size("n_max", n_max, 1)
    _require_at_least(m_max=(m_max, 0))
    failures = []
    grid = [(n, m) for n in range(1, n_max + 1) for m in range(m_max + 1)]
    for n4, m4 in extra or ():
        grid += [(n4, m) for m in range(m4 + 1)]
    # the check of verify_symbolic, with the generic matrix and its minor
    # table built once per run of equal n in the grid and each power once
    # per (n, m) entry, not once per i; only the current ones are kept
    last = None
    for n, m in grid:
        if n != last:
            table = None  # freed before the next n's is built
            last, A = n, generic_matrix(n)
            table = A.principal_minors()
        power = A.pow(m)
        for i in range(1, n + 1):
            lhs = eval_universal(synth_diag(n, i, m), table, POLY_RING)
            if lhs != power.entry(i, i):
                failures.append(f"symbolic identity fails at n={n}, i={i}, m={m}")
    return failures


def suite_random(
    ring_name: str = "mod4",
    trials: int = 200,
    seed: int = 0,
    n_max: int = 5,
    m_max: int = 6,
) -> list[str]:
    """eval_universal against the matrix-power oracle on random matrices."""
    require_size("n_max", n_max, 1)
    _require_at_least(trials=(trials, 1), m_max=(m_max, 0))
    ring = DEFAULT_RINGS[ring_name]
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        n = rng.randint(1, n_max)
        m = rng.randint(0, m_max)
        A = random_matrix(ring, n, rng)
        table = A.principal_minors()
        power = A.pow(m)
        for i in range(1, n + 1):
            got = eval_universal(synth_diag(n, i, m), table, ring)
            want = power.entry(i, i)
            if not ring.eq(got, want):
                failures.append(
                    f"trial {t}: ring {ring.describe()}, n={n}, m={m}, i={i}: "
                    f"{ring.render(got)} != {ring.render(want)}"
                )
    return failures


def suite_all_ones(n_max: int = 5, m_max: int = 8) -> list[str]:
    """Evaluating each universal polynomial with every minor symbol set to
    1 must give 1."""
    require_size("n_max", n_max, 1)
    _require_at_least(m_max=(m_max, 0))
    ring = IntegerRing()
    failures = []
    for n in range(1, n_max + 1):
        ones = Matrix.identity(ring, n).principal_minors()  # every minor is 1
        for m in range(m_max + 1):
            for i in range(1, n + 1):
                value = eval_universal(synth_diag(n, i, m), ones, ring)
                if value != 1:
                    failures.append(f"all-ones collapse fails at n={n}, i={i}, m={m}: {value}")
    return failures


def suite_offdiag(
    trials: int = 100,
    seed: int = 0,
    n_max: int = 4,
    m_max: int = 4,
    ring_names=("int", "mod4"),
) -> list[str]:
    """Certificates against the matrix-power oracle, plus the symbolic
    sign validation of the quasiprincipal expansion."""
    require_size("n_max", n_max, 2)
    _require_at_least(trials=(trials, 1), m_max=(m_max, 0))
    failures = offdiag_sign_check(n_max)
    for ring_name in ring_names:
        ring = DEFAULT_RINGS[ring_name]
        rng = random.Random(seed)
        for t in range(trials):
            n = rng.randint(2, n_max)
            m = rng.randint(0, m_max)
            A = random_matrix(ring, n, rng)
            power = A.pow(m)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    got = eval_certificate(synth_offdiag(n, i, j, m), A)
                    want = power.entry(i, j)
                    if not ring.eq(got, want):
                        failures.append(
                            f"trial {t}: ring {ring.describe()}, n={n}, m={m}, "
                            f"(i,j)=({i},{j}): {ring.render(got)} != {ring.render(want)}"
                        )
    return failures


def offdiag_series_coeffs(n: int, i: int, j: int, order: int) -> list[Polynomial]:
    """Coefficients of the (i,j) entry of adj(I - tA) as a series whose
    t^(|P|-1) coefficients are signed quasiprincipal symbols."""
    coeffs = [Polynomial({}) for _ in range(order + 1)]
    for k, sign, I, J in _quasi_terms(n, i, j):
        if k <= order:
            symbol = Polynomial.variable(qvar(I.members(), J.members()))
            coeffs[k] = coeffs[k] + (symbol if sign > 0 else -symbol)
    return coeffs


def offdiag_sign_check(n_max: int = 4) -> list[str]:
    """The signed quasiprincipal series, with symbols expanded to actual
    minors of the generic matrix, must equal (-1)^(i+j) times the
    determinant of (I - tA)_{~j,~i}, a polynomial in t of degree at most
    n - 1, so nothing needs truncating."""
    failures = []
    t = Polynomial.variable("t")
    for n in range(2, n_max + 1):
        A = generic_matrix(n)
        B = Matrix(
            POLY_RING,
            [
                [(1 if i == j else 0) - t * A.entry(i, j) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ],
        )
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                coeffs = offdiag_series_coeffs(n, i, j, n - 1)
                expansion = {}
                for P in all_subsets(n):
                    if i in P and j in P:
                        I, J = P.without(j), P.without(i)
                        expansion[qvar(I.members(), J.members())] = (
                            A.submatrix(I, J).det()
                        )
                expanded = sum(
                    (c.substitute(expansion) * t**k for k, c in enumerate(coeffs)),
                    POLY_RING.zero(),
                )
                sign = -1 if (i + j) & 1 else 1
                if expanded != sign * B.delete(j, i).det():
                    failures.append(f"sign validation fails at n={n}, (i,j)=({i},{j})")
    return failures


def suite_adjugate(trials: int = 50, seed: int = 0, n_max: int = 4) -> list[str]:
    """B * adj(B) = adj(B) * B = det(B) * I on random matrices over Z,
    Z/4 and the counterexample algebra."""
    require_size("n_max", n_max, 0)
    _require_at_least(trials=(trials, 1))
    rings = [IntegerRing(), ModularRing(4), FootnoteAlgebra()]
    failures = []
    for ring in rings:
        rng = random.Random(seed)
        for t in range(trials):
            n = rng.randint(0, n_max)
            B = random_matrix(ring, n, rng)
            adj = B.adjugate()
            scaled = Matrix.identity(ring, n).scale(B.det())
            if B.mul(adj) != scaled or adj.mul(B) != scaled:
                failures.append(
                    f"adjugate identity fails: ring {ring.describe()}, trial {t}, n={n}"
                )
    return failures


def suite_charpoly(m_max: int = 4) -> list[str]:
    """det(B + z*I_m) = sum over P of det(sub_P^P B) * z^(m-|P|) as an
    identity over Z[x{1,1}..x{m,m}][z], checked by expanding both sides."""
    require_size("m_max", m_max, 0)
    failures = []
    z = Polynomial.variable("z")
    for m in range(m_max + 1):
        B = generic_matrix(m)
        lhs = B.add(Matrix.identity(POLY_RING, m).scale(z)).det()
        rhs = POLY_RING.zero()
        table = B.principal_minors()
        for P in all_subsets(m):
            rhs = rhs + table[P] * z ** (m - len(P))
        if lhs != rhs:
            failures.append(f"characteristic-polynomial expansion fails at m={m}")
    return failures


def suite_diagonal_sum(n_max: int = 3) -> list[str]:
    """det(C + D) for diagonal D: the subset expansion into principal
    minors of C times products of the complementary diagonal entries,
    checked symbolically."""
    require_size("n_max", n_max, 0)
    failures = []
    for n in range(n_max + 1):
        C = generic_matrix(n)
        dvars = [Polynomial.variable(f"d{k}") for k in range(1, n + 1)]
        D = Matrix(
            POLY_RING,
            [
                [dvars[i] if i == j else POLY_RING.zero() for j in range(n)]
                for i in range(n)
            ],
        )
        lhs = C.add(D).det()
        rhs = POLY_RING.zero()
        table = C.principal_minors()
        for P in all_subsets(n):
            term = table[P]
            for k in range(1, n + 1):
                if k not in P:
                    term = term * dvars[k - 1]
            rhs = rhs + term
        if lhs != rhs:
            failures.append(f"diagonal-sum expansion fails at n={n}")
    return failures


SUITES = {
    "symbolic": suite_symbolic,
    "random": suite_random,
    "all-ones": suite_all_ones,
    "offdiag": suite_offdiag,
    "adjugate": suite_adjugate,
    "charpoly": suite_charpoly,
    "diagonal-sum": suite_diagonal_sum,
}
