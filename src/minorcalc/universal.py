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
is built: synth_diag and synth_offdiag refuse more than MAX_TERMS.

A UniversalPolynomial keeps its types.  serialize() prints from them
with no expanded polynomial: per subset size, a table of fragments (a
print-key part, a text such as "p{1,3}^2*p{2,3}" and a multinomial) for
each pair (u_k, v_k) that occurs, one fragment per size for each term,
and one int sort of the keys, which gives the text of str(body).
eval_universal works from them too: P[n,i,m] is the sum over types of
G * prod_k U_k^u_k F_k^v_k.  At its first evaluation a polynomial lays
its types out as a plan: the groups in use with their largest counts,
the G values, and per type the slots of its factors in one flat list of
powers of the group sums.  One evaluator runs the plan in native ints
over Z, Z/k and F_p, on the six int coordinates over the quotient
algebra on such a base, and through the ring's operations otherwise.
body, the expanded polynomial, is built only when it is read; nothing
in the package reads it, and the tests use Polynomial.eval on it as the
oracle of eval_universal.
The certificates need the coefficients of 1/d(t), polynomials in the
E_k alone, typed with all size-k subsets as the units of E_k.  A
certificate keeps these types, and a plan, per order; to_json and
eval_certificate print and evaluate them as above, and from_json
re-synthesizes.
"""

from __future__ import annotations

import json
from collections import deque
from functools import cached_property, lru_cache, reduce
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
from .records import Record
from .rings import Ring, algebra_int_modulus, int_modulus

# the most terms a P[n,i,m] body or a certificate may have
MAX_TERMS = 1 << 20


class UniversalPolynomial(Record):
    """Integer polynomial in the minor symbols p{S} whose evaluation at
    the principal minors of any n x n matrix A yields (A^m)_{i,i}."""

    _fields = ("n", "i", "m")

    def __init__(self, n: int, i: int, m: int, types: dict):
        self._init(n, i, m)
        # the types from _diag_types; (n, i, m) determines them, so they
        # take no part in == or hash
        object.__setattr__(self, "types", types)

    @cached_property
    def body(self) -> Polynomial:
        """The expanded polynomial, built at its first read.  Printing and
        evaluation work from the types and never read it."""
        return _expand(self.types, _diag_groups(self.n, self.i), self.n)

    @cached_property
    def plan(self) -> tuple:
        """The types laid out for evaluation (see _plan), built at the
        first evaluation; synthesis and printing never build it."""
        return _plan(self.types, _diag_groups(self.n, self.i))

    def header(self) -> str:
        return f"P[n={self.n},i={self.i},m={self.m}]"

    def serialize(self) -> str:
        """The header and str(self.body), printed from the types."""
        groups = _diag_groups(self.n, self.i)
        return f"{self.header()}\n{_print_types(self.types, groups, self.n, self.m)}\n"


class OffDiagCertificate(Record):
    """Finite sum of (coefficient in p{S}) * (quasiprincipal symbol)
    pairs witnessing that (A^m)_{i,j} lies in the module generated by
    products of principal minors and (i,j)-quasiprincipal minors.  A
    term (sign, r, (I, J)) gives q{I|J} the coefficient sign * [t^r] 1/d(t),
    whose types (exponent vectors over E_1..E_n) are ``types[r]``."""

    _fields = ("n", "i", "j", "m", "terms")

    def __init__(self, n: int, i: int, j: int, m: int, terms: tuple, types: dict):
        self._init(n, i, j, m, terms)
        # (n, i, j, m) determines the types, so they take no part in == or hash
        object.__setattr__(self, "types", types)

    def to_json(self) -> str:
        """The certificate as JSON, each signed coefficient printed once
        from its types, as Polynomial.__str__ prints it."""
        groups = _units_by_size(self.n, bool)
        texts = {
            (sign, r): _print_types({t: sign * g for t, g in self.types[r].items()}, groups, self.n, r)
            for sign, r in {term[:2] for term in self.terms}
        }
        payload = {
            "n": self.n,
            "i": self.i,
            "j": self.j,
            "m": self.m,
            "terms": [
                {"coeff": texts[sign, r], "I": list(I.members()), "J": list(J.members())}
                for sign, r, (I, J) in self.terms
            ],
        }
        return json.dumps(payload, indent=2)

    @cached_property
    def plans(self) -> dict:
        """Order r -> the plan of types[r], built at the first evaluation."""
        groups = _units_by_size(self.n, bool)
        return {r: _plan(types, groups) for r, types in self.types.items()}

    @classmethod
    def from_json(cls, text: str) -> "OffDiagCertificate":
        """The certificate for the (n, i, j, m) of ``text``, re-synthesized;
        ValueError unless ``text`` decodes to what its to_json() does."""
        data = json.loads(text)
        try:
            cert = synth_offdiag(*(data[key] for key in ("n", "i", "j", "m")))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a certificate: {exc!r}") from exc
        if json.loads(cert.to_json()) != data:
            raise ValueError(f"not the certificate for (n={cert.n},i={cert.i},j={cert.j},m={cert.m})")
        return cert


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
    """For k = 1..n, the masks of the size-k subsets S of [n] that `keep`
    accepts, in canonical subset order."""
    masks = _p_units(n)
    return [[mask for mask in masks if mask.bit_count() == k and keep(mask)] for k in range(1, n + 1)]


def _compressed(n: int, m: int, with_f: bool, orders) -> dict[int, dict]:
    """[t^k] a(t) / d(t) for each k in orders (all at most m), with
    a(t) = 1 unless with_f, as {exponent vector: coefficient} over
    E_1..E_n and then, if with_f, F_1..F_{n-1}.  The recurrence runs on
    packed vectors: field j - 1 holds the exponent of E_j and field
    n + k - 1 that of F_k, each m.bit_length() bits wide, which holds every
    exponent of a term of weight at most m.  Only the last n orders and
    the asked ones are kept."""
    w = m.bit_length() or 1
    last: deque = deque(maxlen=n)  # f_{k-n} .. f_{k-1}
    kept = {}
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
            for mono, c in last[-j].items():
                mono += unit
                acc[mono] = get(mono, 0) - sign * c
        last.append({mono: c for mono, c in acc.items() if c})
        if k in orders:
            kept[k] = last[-1]
    low, fields = (1 << w) - 1, range(2 * n - 1 if with_f else n)
    return {
        k: {tuple(mono >> w * x & low for x in fields): c for mono, c in kept[k].items()}
        for k in orders
    }


@lru_cache
def _diag_groups(n: int, i: int) -> list:
    """The subset masks of U_1..U_n and then of F_1..F_{n-1}: U_k holds
    the size-k subsets that contain i, F_k those that do not, so
    E_k = U_k + F_k (F_n is empty)."""
    bit = 1 << (i - 1)
    return _units_by_size(n, bit.__and__) + _units_by_size(n, lambda mask: not mask & bit)[:-1]


def _diag_types(n: int, i: int, m: int) -> tuple[dict, list]:
    """(types, groups) of P[n,i,m], with groups from _diag_groups.

    types maps the exponent mass (u_1..u_n, v_1..v_{n-1}) put on each group
    to its coefficient G = sum of c * prod_k C(a_k, u_k) over the
    compressed terms c * prod E_k^a_k F_k^b_k with v_k = a_k - u_k + b_k;
    zero G dropped."""
    groups = _diag_groups(n, i)
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


def _multisets(units: list, counts) -> dict[int, list]:
    """c -> (sum, multinomial coefficient) for every multiset of c units,
    for each c in counts.  Every c up to the largest is built for all but
    the last unit only."""
    *rest, last = units
    top = max(counts, default=0)
    layers = [[(0, 1)]] + [()] * top  # multisets of the units so far
    for x in rest:
        layers = [
            [(mono + e * x, coef * comb(c, e)) for e in range(c + 1) for mono, coef in layers[c - e]]
            for c in range(top + 1)
        ]
    return {c: [(mono + (c - e) * last, coef * comb(c, e)) for e in range(c + 1) for mono, coef in layers[e]] for c in counts}


def _expand(types: dict, groups: list, n: int) -> Polynomial:
    """The p-polynomial sum over types of G * prod over groups of (sum of
    the p{S} of the group's masks)^count, expanded, for subsets of [n].  A
    monomial determines its type and its multiset in each group, so every
    term is written once."""
    units = _p_units(n)
    tables = [
        _multisets([units[mask] for mask in masks], {t[g] for t in types})
        for g, masks in enumerate(groups)
    ]
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


class _Prefix(dict):
    """Coefficient -> its sign and magnitude as they lead a printed
    non-constant term: " + ", " - 3*"."""

    def __missing__(self, c):
        text = self[c] = (" - " if c < 0 else " + ") + ("" if c in (1, -1) else f"{abs(c)}*")
        return text


def _print_types(types: dict, groups: list, n: int, m: int) -> str:
    """str(_expand(types, groups, n)) for a polynomial of weight m in the
    p{S} of [n], printed straight from the types.

    As in Polynomial.__str__, terms sort by one int print key: the total
    degree above one field per p{S}, the smallest under var_key most
    significant.  A size-k field is (m // k).bit_length() bits wide, which
    holds any exponent of a weight-m term, so the fields of each size form
    one run.  A type's multisets of the size-k units, from all groups of
    that size, make one fragment: its key, its text such as
    "p{1,3}^2*p{2,3}" and its multinomial, tabled per size and counts.  A
    term is one fragment per size: its key is the OR of theirs and its
    text their join, so no monomial is built or decoded."""
    # size k -> (base, width, names by field, {field in place: "v" or "v^e"})
    runs, place, top = {}, {}, 0
    for s, name in reversed(_p_names(n).items()):
        k = len(s)
        if k not in runs:
            runs[k] = (top, max(m // k, 1).bit_length(), [], {})
        runs[k][2].append(name)
        place[s.mask] = 1 << top
        top += runs[k][1]
    sizes: dict = {}  # size k -> the groups of that size
    for g, masks in enumerate(groups):
        sizes.setdefault(masks[0].bit_count(), []).append(g)
    by_size = sorted(sizes.items(), reverse=True)
    layers = [
        _multisets([place[mask] for mask in masks], {t[g] for t in types})
        for g, masks in enumerate(groups)
    ]

    def fragment(k, counts):
        base, width, run, words = runs[k]
        entries = [(0, 1)]
        for g, c in zip(sizes[k], counts):
            entries = [(k1 + k2, c1 * c2) for k1, c1 in entries for k2, c2 in layers[g][c]]
        table = []
        for key, coef in entries:
            factors, rest = [], key >> base
            while rest:
                shift = (rest.bit_length() - 1) // width * width
                e = rest >> shift
                bits = e << shift
                rest ^= bits
                word = words.get(bits)
                if word is None:
                    name = run[shift // width]
                    word = words[bits] = name if e == 1 else f"{name}^{e}"
                factors.append(word)
            table.append((key, "*".join(factors), coef))
        return sorted(table, reverse=True)

    tables: dict = {}
    prefix = _Prefix()
    terms: list = []  # (print key, " + 3*p{1}^2*p{2,3}")
    for counts, g in types.items():
        factors = []  # by descending size, so each is joined in front
        for k, gs in by_size:
            c = tuple(counts[x] for x in gs)
            if any(c):
                table = tables.get((k, c))
                if table is None:
                    table = tables[k, c] = fragment(k, c)
                factors.append(table)
        if not factors:
            terms.append((0, (" - " if g < 0 else " + ") + str(abs(g))))
            continue
        # the tables descend by key and the more significant fragment
        # varies slowest, so each type's terms come out as one sorted run
        partial = [(sum(counts) << top, "", g)]
        for factor in factors[:-1]:
            partial = [(k2 | k1, f"*{t2}{t1}", c2 * c1) for k2, t2, c2 in factor for k1, t1, c1 in partial]
        terms += [(k2 | k1, f"{prefix[c2 * c1]}{t2}{t1}") for k2, t2, c2 in factors[-1] for k1, t1, c1 in partial]
    terms.sort(reverse=True)
    text = "".join([part for _, part in terms])
    return text[3:] if text[1] == "+" else "-" + text[3:]


@lru_cache(maxsize=None)
def synth_diag(n: int, i: int, m: int) -> UniversalPolynomial:
    """The canonical universal polynomial for (A^m)_{i,i}: the types of
    f_m, counted against MAX_TERMS; the body is expanded when read."""
    require_size("n", n, 1)
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} outside [n]={list(range(1, n + 1))}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    types, groups = _diag_types(n, i, m)
    _require_terms(_term_count(types, groups), f"P[n={n},i={i},m={m}]")
    return UniversalPolynomial(n, i, m, types)


def eval_universal(U: UniversalPolynomial, table, ring: Ring):
    """Substitute a matrix's principal minors for the p{S} symbols, from
    the plan of U's types (built at the first evaluation), with no
    expanded body.  The table must be over ``ring``."""
    if table.n != U.n:
        raise ValueError(f"minor table for n={table.n}, polynomial for n={U.n}")
    if table.ring != ring:
        raise ValueError(f"minor table over {table.ring!r}, evaluation over {ring!r}")
    return _eval_plan(U.plan, table.values, ring)


def _plan(types: dict, groups: list) -> tuple:
    """(used, gs, slots): the types laid out for _eval_plan.  used holds
    (masks, top) for each group that some type puts a nonzero count on,
    in group order, with top its largest count; the powers s^1..s^top of
    the sums s of those groups, in that order, make one flat list.  gs
    holds the G of each type, and slots the indices into that list of its
    factors: offset[group] + count - 1 for each nonzero count."""
    offsets, used, at = {}, [], 0
    for g, top in enumerate(map(max, zip(*types))):
        if top:
            offsets[g] = at - 1
            used.append((tuple(groups[g]), top))
            at += top
    slots = tuple([tuple([offsets[g] + c for g, c in enumerate(counts) if c]) for counts in types])
    return tuple(used), tuple(types.values()), slots


def _eval_plan(plan: tuple, values, ring: Ring):
    """The sum over types of G * prod over groups of (the group's sum of
    minors)^count, over ``ring``, from a _plan, with values the minors by
    subset mask.  Over Z, Z/k and F_p (int_modulus) all is native ints,
    each sum and power reduced mod k (not at all over Z) and the total
    once by from_int.  Over the quotient algebra on such a base
    (algebra_int_modulus) sums are reduced per coordinate, powers and type
    products go through ``ring.mul``, and each G times its product adds
    into six int accumulators, reduced once.  Other rings use their ops."""
    used, gs, slots = plan
    k, coord_k = int_modulus(ring), algebra_int_modulus(ring)
    rows = [[values[mask] for mask in masks] for masks, _ in used]
    if k is not None:
        sums = [sum(row) % k if k else sum(row) for row in rows]
        mul = (lambda a, b: a * b % k) if k else int.__mul__
    elif coord_k is not None:
        sums = [tuple([sum(c) % coord_k if coord_k else sum(c) for c in zip(*row)]) for row in rows]
        mul = ring.mul
    else:
        sums, mul = [reduce(ring.add, row) for row in rows], ring.mul
    powers: list = []
    for s, (_, top) in zip(sums, used):
        powers.append(s)
        for _ in range(1, top):
            powers.append(mul(powers[-1], s))
    if k is not None:
        total = 0
        for g, slot in zip(gs, slots):
            for x in slot:
                g *= powers[x]
            total += g
        return ring.from_int(total)
    factor = powers.__getitem__
    if coord_k is None:
        add, from_int, total = ring.add, ring.from_int, ring.zero()
        for g, slot in zip(gs, slots):
            total = add(total, reduce(mul, map(factor, slot), from_int(g)))
        return total
    c0 = c1 = c2 = c3 = c4 = c5 = 0
    for g, slot in zip(gs, slots):
        if not slot:  # the constant type, G times the one
            c0 += g
            continue
        a0, a1, a2, a3, a4, a5 = reduce(mul, map(factor, slot))
        c0 += g * a0
        c1 += g * a1
        c2 += g * a2
        c3 += g * a3
        c4 += g * a4
        c5 += g * a5
    if coord_k:
        return (c0 % coord_k, c1 % coord_k, c2 % coord_k, c3 % coord_k, c4 % coord_k, c5 % coord_k)
    return (c0, c1, c2, c3, c4, c5)


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
    terms = [(sign, m - k, (I, J)) for k, sign, I, J in quasi]
    terms.sort(key=lambda t: (len(t[2][0]), t[2][0].members(), t[2][1].members()))
    return OffDiagCertificate(n, i, j, m, tuple(terms), types)


def eval_certificate(cert: OffDiagCertificate, A: Matrix):
    """Evaluate a certificate on a concrete matrix; equals (A^m)_{i,j}.
    Each order's coefficient is evaluated once, from its types."""
    if A.nrows != cert.n or A.ncols != cert.n:
        raise ValueError(f"certificate for n={cert.n}, matrix is {A.nrows}x{A.ncols}")
    ring, values = A.ring, A.principal_minors().values
    coeffs = {r: _eval_plan(plan, values, ring) for r, plan in cert.plans.items()}
    total = ring.zero()
    for sign, r, (I, J) in cert.terms:
        term = ring.mul(coeffs[r], quasiprincipal_minor(A, I, J, cert.i, cert.j))
        total = ring.add(total, term if sign > 0 else ring.neg(term))
    return total
