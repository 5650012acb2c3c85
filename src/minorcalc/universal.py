"""Constructive synthesis of the universal polynomials expressing the
diagonal entries of A^m in the principal minors of A, and of the
off-diagonal certificates in terms of quasiprincipal minors.

(A^m)_{i,i} is the t^m coefficient of ((I - tA)^-1)_{i,i} = a(t) / d(t),
with d(t) = det(I - tA) = sum over P of (-1)^|P| p{P} t^|P| and a(t) the
same sum over the P that miss i.  Let U_k and F_k sum the p{P} with
|P| = k that contain and that miss i (F_n = 0), x_k = (-1)^(k+1) U_k t^k,
y_k = (-1)^(k+1) F_k t^k, and S the sum of all x_k and y_k.  Then
d = 1 - S and a = 1 - sum y_k, so a / d = 1 + sum_(s>=0) (sum x_k) S^s.
By the multinomial theorem prod_k x_k^u_k y_k^v_k, with N = |u| + |v| >= 1
factors, has the coefficient |u| (N-1)! / (prod u_k! prod v_k!) in
(sum x_k) S^(N-1) (pick the x_k that comes first), and the sign
(-1)^(m+N) at weight m = sum_k k (u_k + v_k).  So P[n,i,m] is 1 at m = 0,
else the sum over the weight-m types (u, v) with u != 0 of

    G(u, v) prod_k U_k^u_k F_k^v_k,  G = (-1)^(m+N) |u| (N-1)! / (prod u_k! prod v_k!).

A type expands to multisets of the units (the p{S}) of each group, with
multinomial coefficients, and a monomial determines its type and its
multisets, so every term is written once: prod p{S}^e_S has the
coefficient (-1)^(m+N) deg_i (N-1)! / prod e_S!, deg_i its degree in the
p{S} with i in S.  That is nonzero exactly when deg_i > 0, so the terms
are exactly the weight-m monomials (p{S} weighing |S|) that involve i:
W_n(m) - W_{n-1}(m) of them, where W_n(r), the t^r coefficient of
prod_k (1 - t^k)^-C(n,k), counts the weight-r monomials in the p{S} of
[n].  synth_diag prices a request by that DP and refuses more than
MAX_TERMS terms before it enumerates a type.  Likewise [t^r] 1/d(t) is
the sum over a of weight r of (-1)^(r+|a|) |a|! / prod a_j! prod E_j^a_j,
E_j = U_j + F_j; its types take all size-j subsets as the units of E_j,
so it has W_n(r) terms, which synth_offdiag prices the same way.

Printing needs no types: serialize() walks the weight-m monomials in
the order in which str(body) prints them and gives each its closed-form
coefficient, skipping those with deg_i = 0, and to_json() walks those of
weight r the same way, with every p{S} counted as involving i, so that
deg_i = N.  No expanded polynomial, print key or sort is built.
A UniversalPolynomial keeps its types for evaluation: eval_universal
works from them, as P[n,i,m] is the sum over types of
G * prod_k U_k^u_k F_k^v_k.  At its first evaluation a polynomial lays
its types out as a plan: the groups in use with their largest counts,
the G values, and per type the slots of its factors in one flat list of
powers of the group sums.  The plan's _Shape, all of it but the masks,
holds the G values and slots once; every i of one (n, m) shares it, and
every certificate of one n shares that of each order.  One evaluator
runs the plan in native ints over Z, Z/k and F_p; over the quotient
algebra on such a base it runs the same int code on two lifts of the
minors, to Z[t]/(t^4) and Z[u]/(u^4) at t = u = 2^w (Kronecker
substitution), and reads the coordinates back from the base-2^w digits;
other rings run through their operations.  Over the int rings and the
algebra alike the loops run until the shape has been evaluated
COMPILE_AFTER times; then the shape compiles one straight-line int
kernel, which runs from then on.  Shapes above MAX_KERNEL_TYPES types,
and other rings, keep the loops.
body, the expanded polynomial, is built only when it is read; nothing
in the package reads it, and the tests use Polynomial.eval on it as the
oracle of eval_universal.
A certificate keeps the types of 1/d(t), and a plan, per order;
eval_certificate evaluates them as above, to_json prints each signed
order once, and from_json re-synthesizes.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache, reduce
from math import comb

from .laplace import _compiled
from .matrix import (
    Matrix,
    Subset,
    all_subsets,
    quasiprincipal_minor,
    require_size,
)
from .poly import POLY_RING, Polynomial, pvar, xvar
from .records import Record
from .rings import Ring, algebra_int_modulus, int_modulus

# the most terms a P[n,i,m] body or a certificate may have
MAX_TERMS = 1 << 20
# the most steps of the term-count DP, 2^n - 1 per weight; past it a count
# is priced at the cap's weight, a lower bound as counts never fall with m.
# That weight (1,028 or more) passes every first refused m at n >= 2
# (2,047 at n = 2, 46 at n = 3, ... 9 at n = 8); at n = 1 every count is 1
PRICE_STEPS = 1 << 18
# the most types a plan may have to be compiled into a kernel: every plan
# that verify and the default suites evaluate (P[5,i,8] has 144 types);
# a one-return kernel of 4,865 types (P[3,1,30]) fails to compile with
# RecursionError
MAX_KERNEL_TYPES = 256
# the evaluation of one plan shape at which its kernel is compiled: over
# P[n,1,m] for n <= 5 and m <= 8, compiling a shape's kernel costs as much
# time as 38-42 of its evaluations save over Z/4 and 19-20 over the
# algebra (which runs the kernel twice), in the median, so the loops run
# until they have cost about as much
COMPILE_AFTER = 32


class UniversalPolynomial(Record):
    """Integer polynomial in the minor symbols p{S} whose evaluation at
    the principal minors of any n x n matrix A yields (A^m)_{i,i}."""

    _fields = ("n", "i", "m")

    def __init__(self, n: int, i: int, m: int, types: dict):
        self._init(n, i, m)
        # the types from _diag_coefficients; (n, m) determines them, so they
        # take no part in == or hash
        object.__setattr__(self, "types", types)

    @cached_property
    def body(self) -> Polynomial:
        """The expanded polynomial, built at its first read.  Printing and
        evaluation never read it."""
        return _expand(self.types, _diag_groups(self.n, self.i), self.n)

    @cached_property
    def plan(self) -> tuple:
        """The types laid out for evaluation (see _plan), built at the
        first evaluation; synthesis and printing never build it."""
        return _plan(self.types, _diag_groups(self.n, self.i))

    def header(self) -> str:
        return f"P[n={self.n},i={self.i},m={self.m}]"

    def serialize(self) -> str:
        """The header and str(self.body), printed by _print_walk from the
        closed form of each term, with no types and no body."""
        return f"{self.header()}\n{_print_walk(self.n, self.m, 1, 1 << self.i - 1)}\n"


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
        """The certificate as JSON, each signed coefficient printed once,
        as Polynomial.__str__ prints it, by _print_walk from the closed
        form of each term, with no types."""
        every = (1 << self.n) - 1
        texts = {(sign, r): _print_walk(self.n, r, sign, every) for sign, r in {term[:2] for term in self.terms}}
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


@lru_cache
def _diag_groups(n: int, i: int) -> list:
    """The subset masks of U_1..U_n and then of F_1..F_{n-1}: U_k holds
    the size-k subsets that contain i, F_k those that do not, so
    E_k = U_k + F_k (F_n is empty)."""
    bit = 1 << (i - 1)
    return _units_by_size(n, bit.__and__) + _units_by_size(n, lambda mask: not mask & bit)[:-1]


def _partitions(n: int, r: int) -> list:
    """(a, |a|, |a|! / prod_j a_j!) for every a = (a_1..a_n) with
    sum_j j * a_j = r, the multinomial built as a chain of comb: a_n down
    to a_2 are chosen and a_1 takes the weight left."""
    if not n:
        return [] if r else [((), 0, 1)]
    rows = [((), 0, 1, r)]  # (a_n..a_k, their sum, their multinomial, weight left)
    for k in range(n, 1, -1):
        rows = [(a + (c,), s + c, coef * comb(s + c, c), rest - c * k)
                for a, s, coef, rest in rows for c in range(rest // k + 1)]
    return [((rest, *a[::-1]), s + rest, coef * comb(s + rest, rest)) for a, s, coef, rest in rows]


def _diag_coefficients(n: int, m: int) -> dict:
    """The types of P[n,i,m], the same for every i: (u_1..u_n, v_1..v_{n-1})
    -> G(u, v) of the module docstring for every weight-m type with u != 0,
    as comb(N - 1, |v|) times the multinomials of u and of v."""
    if not m:
        return {(0,) * (2 * n - 1): 1}
    types = {}
    for b in range(m if n > 1 else 1):  # the weight of v, 0 at n = 1
        vs = _partitions(n - 1, b)
        for u, su, cu in _partitions(n, m - b):
            for v, sv, cv in vs:
                g = comb(su + sv - 1, sv) * cu * cv
                types[u + v] = -g if (m + su + sv) & 1 else g
    return types


def _inverse_coefficients(n: int, r: int) -> dict:
    """The types of [t^r] 1/d(t) over E_1..E_n: a -> (-1)^(r+|a|) |a|! /
    prod a_j! for every a of weight r."""
    return {a: -c if (r + s) & 1 else c for a, s, c in _partitions(n, r)}


def _monomial_counts(n: int, r: int) -> tuple[list, list]:
    """W_{n-1} and W_n (see the module docstring) up to weight r, or up to
    the largest weight within PRICE_STEPS steps if lower: C(n,k) prefix
    sums with stride k for each k, the C(n-1,k) of W_{n-1} first, as
    C(n,k) = C(n-1,k) + C(n-1,k-1)."""
    top = min(r, PRICE_STEPS // ((1 << n) - 1))
    w, counts = [1] + [0] * top, []
    for shift in (0, 1):
        for k in range(1, min(n, top) + 1):
            for _ in range(comb(n - 1, k - shift)):
                for x in range(k, top + 1):
                    w[x] += w[x - k]
        counts.append(w[:])
    return counts


def _require_ints(**args) -> None:
    """Reject an index whose type is not int.  A bool equals and hashes as
    0 or 1, so synth_diag and synth_offdiag would store it in a record;
    their caches are typed, so that a bool misses them and is refused."""
    for name, value in args.items():
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")


def _require_terms(count: int, exact: bool, what: str) -> None:
    """Refuse more than MAX_TERMS terms; count is exact, or else the count
    at a lower weight, which bounds it from below (see PRICE_STEPS)."""
    if count > MAX_TERMS:
        shown = count if exact else f"more than {MAX_TERMS}"
        raise ValueError(f"{what} has {shown} terms, above the bound of {MAX_TERMS}")


def _multisets(units: list, counts) -> dict[int, list]:
    """c -> (sum, multinomial coefficient) for every multiset of c units,
    for each c in counts, for _expand.  Every c up to the largest is built
    for all but the last unit only, so a group of one unit builds none,
    whatever its counts."""
    *rest, last = units
    if not rest:
        return {c: [(c * last, 1)] for c in counts}
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


def _print_walk(n: int, m: int, sign: int, bit: int) -> str:
    """sign times the weight-m polynomial in the p{S} of [n] whose term
    prod p{S}^e_S has the coefficient (-1)^(m+N) deg N! / (N prod e_S!),
    N its total degree and deg its degree in the p{S} with S & bit, as
    Polynomial.__str__ prints it; terms with deg = 0 are left out.  With
    sign 1 and the bit of i it is P[n,i,m] (see the module docstring);
    with every bit set deg = N, and it is sign [t^r] 1/d(t) at m = r.

    The terms are emitted in print order, graded lex under var_key: N
    from m down to ceil(m/n), then the exponents of the p{S} in canonical
    order (by size, then lex), each from its largest value down.  A state
    (j, c, w) leaves c units of weight w to the p{S} from the j-th on,
    whose sizes run from s_j to n, so it is feasible exactly when
    c s_j <= w <= c n; each exponent comes from the range that keeps that
    so, and no branch dies.  Three tails are emitted as one batch each:
    one unit left (the p{S} of size w from the j-th on), w = c s_j (the
    multisets of c units on the rest of the size-s_j block), and only
    sizes n - 1 and n left (their counts forced: the multisets on the rest
    of the size-(n-1) block, times a power of p{1..n}, which meets every
    bit).  The multinomial N! / prod e_S! is a chain of comb along the
    path.  Block multisets are tabled per call by (first p{S}, count) and
    freed with it: the walk keeps its state on a stack and no function
    refers to itself, so a call leaves no reference cycle."""
    if not m:
        return "1" if sign > 0 else "-1"
    subsets = _p_names(n)
    names = list(subsets.values())
    sizes = [len(s) for s in subsets]
    hits = [1 if s.mask & bit else 0 for s in subsets]
    starts = {}  # size -> index of its first p{S}
    for j, s in enumerate(sizes):
        starts.setdefault(s, j)
    ends = [starts.get(s + 1, len(sizes)) for s in sizes]  # one past the block of each
    blocks: dict = {}  # (j, c) -> [(text, multinomial, deg)] for the multisets of c units on j..ends[j]

    def block(j: int, c: int) -> list:
        got = blocks.get((j, c))
        if got is None:
            # (j, c) needs (j + 1, every count up to c), and so on to the block's end
            end = ends[j]
            for x in range(end - 1, j - 1, -1):
                name, hit = names[x], hits[x]
                for cc in range(1, c + 1) if x > j else (c,):
                    if (x, cc) in blocks:
                        continue
                    entries, k = [(name if cc == 1 else f"{name}^{cc}", 1, cc * hit)], 1
                    if x + 1 < end:
                        for e in range(cc - 1, 0, -1):
                            k = k * (e + 1) // (cc - e)  # comb(cc, e)
                            head, d0 = f"{name}*" if e == 1 else f"{name}^{e}*", e * hit
                            entries += [(head + t, k * mu, d0 + d) for t, mu, d in blocks[x + 1, cc - e]]
                        entries += blocks[x + 1, cc]
                    blocks[x, cc] = entries
            got = blocks[j, c]
        return got

    prefix = _Prefix()
    out: list = []
    for total in range(m, -(-m // n) - 1, -1):
        k = sign if (m + total) & 1 == 0 else -sign
        stack = [(0, total, m, 1, 0, "")]
        while stack:
            j, c, w, mult, deg, text = stack.pop()
            s = sizes[j]
            if c == 1 or w == c * s:
                q = k * mult
                tail = block(j if w == c * s else starts[w], c)
                out += [f"{prefix[q * mu * (deg + d) // total]}{text}{t}" for t, mu, d in tail if deg + d]
            elif s == n - 1:
                # b >= 1 units of p{1..n}, which holds every index, so deg > 0
                b = w - c * s
                q, deg = k * mult * comb(c, b), deg + b
                power = names[-1] if b == 1 else f"{names[-1]}^{b}"
                if b == c:
                    out.append(f"{prefix[q * deg // total]}{text}{power}")
                else:
                    out += [f"{prefix[q * mu * (deg + d) // total]}{text}{t}*{power}" for t, mu, d in block(j, c - b)]
            else:
                # the children in reverse print order: all of this block at
                # exponent 0, then for each p{S} of the block from the last,
                # its exponent e >= 1 (and 0 before it), largest e last
                end = ends[j]
                after = sizes[end]
                high = min(c - 1, (c * n - w) // (n - s))
                if c * after <= w:
                    stack.append((end, c, w, mult, deg, text))
                low = max(1, -((w - c * after) // (after - s)))  # for the block's last p{S}
                for x in range(end - 1, j - 1, -1):
                    hit, name = hits[x], names[x]
                    for e in range(low, high + 1):
                        stack.append((x + 1, c - e, w - e * s, mult * comb(c, e), deg + e * hit,
                                      f"{text}{name}*" if e == 1 else f"{text}{name}^{e}*"))
                    low = 1
    joined = "".join(out)
    return joined[3:] if joined[1] == "+" else "-" + joined[3:]


@lru_cache(maxsize=None, typed=True)
def synth_diag(n: int, i: int, m: int) -> UniversalPolynomial:
    """The canonical universal polynomial for (A^m)_{i,i}: priced against
    MAX_TERMS, then typed by G(u, v); the body is expanded when read."""
    _require_ints(n=n, i=i, m=m)
    require_size("n", n, 1)
    if not 1 <= i <= n:
        raise ValueError(f"index i={i} outside [n]={list(range(1, n + 1))}")
    if m < 0:
        raise ValueError("m must be nonnegative")
    # the weight-m monomials that involve i, and at m = 0 the constant
    low, high = _monomial_counts(n, m)
    top = len(high) - 1
    _require_terms(high[top] - low[top] if m else 1, top == m, f"P[n={n},i={i},m={m}]")
    return UniversalPolynomial(n, i, m, _diag_coefficients(n, m))


def eval_universal(U: UniversalPolynomial, table, ring: Ring):
    """Substitute a matrix's principal minors for the p{S} symbols, from
    the plan of U's types (built at the first evaluation), with no
    expanded body.  The table must be over ``ring``.  Over Z, Z/k and
    F_p, and over the quotient algebra on such a base (on the table's
    lifted minors), the plan's loops run until its _Shape, which every i
    of one (n, m) shares, has been evaluated COMPILE_AFTER times, and the
    shape's compiled kernel runs from then on; a shape above
    MAX_KERNEL_TYPES types, or another ring, keeps the loops."""
    if table.n != U.n:
        raise ValueError(f"minor table for n={table.n}, polynomial for n={U.n}")
    if table.ring != ring:
        raise ValueError(f"minor table over {table.ring!r}, evaluation over {ring!r}")
    return _eval_plan(U.plan, table, ring)


def _plan(types: dict, groups: list) -> tuple:
    """(masks, shape): the types laid out for _eval_plan.  masks holds the
    masks of each group that some type puts a nonzero count on, in group
    order; the powers s^1..s^top of the sums s of those groups, in that
    order, make one flat list, with top the group's largest count.  shape
    is the _Shape of the tops, the G of each type, and the slots of each
    type: the indices into that list of its factors, offset[group] +
    count - 1 for each nonzero count.  The masks, not the shape, give the
    largest group, so each plan sets its own digit width in _lift."""
    offsets, masks, tops, at = {}, [], [], 0
    for g, top in enumerate(map(max, zip(*types))):
        if top:
            offsets[g] = at - 1
            masks.append(tuple(groups[g]))
            tops.append(top)
            at += top
    slots = tuple([tuple([offsets[g] + c for g, c in enumerate(counts) if c]) for counts in types])
    return tuple(masks), _shape(tuple(tops), tuple(types.values()), slots)


class _Shape:
    """A plan without its masks, shared by every plan with the same tops,
    G values and slots; bound[D] is C(D + 3, 3) times the sum of |G| over
    the types of D factors (see _lift).  The evaluations counted so far
    and the kernel, None until it is compiled, serve the int rings and the
    quotient algebra alike."""

    __slots__ = ("tops", "gs", "slots", "bound", "evaluations", "kernel")

    def __init__(self, tops: tuple, gs: tuple, slots: tuple):
        self.tops, self.gs, self.slots = tops, gs, slots
        exponents = [c for top in tops for c in range(1, top + 1)]
        degrees = [sum([exponents[x] for x in slot]) for slot in slots]
        mass = [0] * (max(degrees, default=0) + 1)
        for g, d in zip(gs, degrees):
            mass[d] += abs(g)
        self.bound = tuple([comb(d + 3, 3) * c for d, c in enumerate(mass)])
        self.evaluations, self.kernel = 0, None

    def warm_kernel(self):
        """The compiled kernel; else count one evaluation and compile at
        the COMPILE_AFTER-th.  None, so that the loops run, until then,
        and always above MAX_KERNEL_TYPES types."""
        kernel = self.kernel
        if kernel is None and len(self.gs) <= MAX_KERNEL_TYPES:
            self.evaluations += 1
            if self.evaluations >= COMPILE_AFTER:
                kernel = self.kernel = _kernel(self)
        return kernel


_shape = lru_cache(maxsize=None)(_Shape)


def _kernel(shape: _Shape):
    """A straight-line function for every plan of ``shape``.  With s_x the
    sum of the x-th group in use, ``kernel(s_0, .., s_r, k)`` makes the
    powers in int arithmetic, reduced mod k if k, and returns the sum of
    G times each type's product, unreduced, as _int_sum's loops do.  The
    source is built from ints and indices only."""
    sums = [f"s{x}" for x in range(len(shape.tops))]
    names, powers = [], []  # the flat list of powers; (name, lower power, sum)
    for s, top in zip(sums, shape.tops):
        names.append(s)
        for c in range(2, top + 1):
            powers.append((f"{s}_{c}", names[-1], s))
            names.append(powers[-1][0])
    lines = [f"def kernel({', '.join(sums + ['k'])}):"]
    if powers:
        lines.append("    if k:")
        lines += [f"        {p} = {a}*{s} % k" for p, a, s in powers]
        lines.append("    else:")
        lines += [f"        {p} = {a}*{s}" for p, a, s in powers]
    # each term carries its sign, after a leading 0
    terms = "".join(
        (" - " if g < 0 else " + ") + "*".join([str(abs(g))] * (g not in (1, -1) or not slot) + [names[x] for x in slot])
        for g, slot in zip(shape.gs, shape.slots)
    )
    lines.append("    return 0" + terms)
    return _compiled("\n".join(lines))


def _powers(sums: list, tops: tuple, mul) -> list:
    """The flat list of a plan's powers: s^1..s^top of each group sum s,
    each made by one mul from the one before."""
    powers: list = []
    for s, top in zip(sums, tops):
        powers.append(s)
        for _ in range(1, top):
            powers.append(mul(powers[-1], s))
    return powers


def _int_sum(masks: tuple, shape: _Shape, kernel, values, k: int) -> int:
    """The plan's sum over types of G * prod of powers of the group sums,
    in ints, with values int minors by mask: the sums and powers reduced
    mod k if k, the total not.  From the kernel if given, else loops."""
    get = values.__getitem__
    sums = [sum(map(get, group)) for group in masks]
    if k:
        sums = [s % k for s in sums]
    if kernel is not None:
        return kernel(*sums, k)
    powers = _powers(sums, shape.tops, (lambda a, b: a * b % k) if k else int.__mul__)
    total = 0
    for g, slot in zip(shape.gs, shape.slots):
        for x in slot:
            g *= powers[x]
        total += g
    return total


def _lift(plan: tuple, table, k: int) -> tuple:
    """(w, xs, ys): the digit width of the plan over the quotient algebra on
    Z/k (Z if k is 0), and by mask the table's minors a, each coordinate
    reduced mod k, lifted to x(a) = a0 + a1 t + a3 t^2 + a5 t^3 and
    y(a) = a0 + a2 u + a4 u^2 at t = u = 2^w, ring homomorphisms into
    Z/2^(4w).  A group sum's coefficients are at most B, the plan's largest
    group times k - 1 (over Z, times the table's largest |coordinate|), so
    every coefficient read back is at most M = sum of shape.bound[D] * B^D,
    and w = M.bit_length() + 1 gives 2^(w-1) > M.  Each packing is kept in
    table.lifts, by w, for every plan and i that meets it, beside the
    height it was made with (k - 1, or the largest |coordinate| over Z,
    found once per table)."""
    masks, shape = plan
    first = next(iter(table.lifts.values()), None)
    height = k - 1 if k else first[2] if first else max([abs(c) for a in table.values.values() for c in a])
    top, bound = height * max(map(len, masks), default=0), 0
    for c in reversed(shape.bound):
        bound = bound * top + c
    w = bound.bit_length() + 1
    packed = table.lifts.get(w)
    if packed is None:
        xs, ys, w2, w3 = {}, {}, 2 * w, 3 * w
        for mask, (a0, a1, a2, a3, a4, a5) in table.values.items():
            if k:
                a0, a1, a2, a3, a4, a5 = a0 % k, a1 % k, a2 % k, a3 % k, a4 % k, a5 % k
            xs[mask] = a0 + (a1 << w) + (a3 << w2) + (a5 << w3)
            ys[mask] = a0 + (a2 << w) + (a4 << w2)
        packed = table.lifts[w] = (xs, ys, height)
    return w, packed[0], packed[1]


def _digits(total: int, w: int) -> tuple:
    """c_0..c_3, given total = sum of c_j 2^(jw) mod 2^(4w) with every
    |c_j| < 2^(w-1): each c_j offset by 2^(w-1) is one unsigned w-bit digit."""
    half, low = 1 << w - 1, (1 << w) - 1
    total += half * ((1 << 4 * w) - 1) // low
    return (total & low) - half, (total >> w & low) - half, (total >> 2 * w & low) - half, (total >> 3 * w & low) - half


def _eval_plan(plan: tuple, table, ring: Ring):
    """The sum over types of G * prod over groups of (the group's sum of
    minors)^count, over ``ring``, from a _plan, on a minor table over
    ``ring``.  Over Z, Z/k and F_p (int_modulus) it is _int_sum on the
    minors, reduced once by from_int.  Over the quotient algebra on such a
    base (algebra_int_modulus) it is _int_sum mod 2^(4w) on the lifts x and
    on the lifts y of _lift, whose digits c_j and d_j give the coordinates
    (c_0, c_1, d_1, c_2, d_2, c_3 - d_3), as y^3 = -x^3, reduced mod k,
    with no ring operation.  Both count one evaluation and run the shape's
    kernel once it has one.  Other rings use their ops, in loops."""
    masks, shape = plan
    k, coord_k = int_modulus(ring), algebra_int_modulus(ring)
    if k is None and coord_k is None:
        get, mul = table.values.__getitem__, ring.mul
        factor = _powers([reduce(ring.add, map(get, group)) for group in masks], shape.tops, mul).__getitem__
        add, from_int, total = ring.add, ring.from_int, ring.zero()
        for g, slot in zip(shape.gs, shape.slots):
            total = add(total, reduce(mul, map(factor, slot), from_int(g)))
        return total
    kernel = shape.warm_kernel()
    if k is not None:
        return ring.from_int(_int_sum(masks, shape, kernel, table.values, k))
    w, xs, ys = _lift(plan, table, coord_k)
    x0, x1, x2, x3 = _digits(_int_sum(masks, shape, kernel, xs, 1 << 4 * w), w)
    _, y1, y2, y3 = _digits(_int_sum(masks, shape, kernel, ys, 1 << 4 * w), w)
    coords = (x0, x1, y1, x2, y2, x3 - y3)
    return tuple([c % coord_k for c in coords]) if coord_k else coords


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


@lru_cache(maxsize=None, typed=True)
def synth_offdiag(n: int, i: int, j: int, m: int) -> OffDiagCertificate:
    """Certificate expressing (A^m)_{i,j} as a sum of products of
    p-polynomials and (i,j)-quasiprincipal minors.

    Each P containing i and j contributes its signed symbol from
    _quasi_terms at t^(|P|-1), so dividing by d(t) gives that
    symbol the t^(m-|P|+1) coefficient of 1/d(t).  Terms follow the
    variable order of q{I|J}: by |I|, then I, then J."""
    _require_ints(n=n, i=i, j=j, m=m)
    require_size("n", n, 1)
    if not 1 <= i <= n or not 1 <= j <= n:
        raise ValueError(f"indices ({i},{j}) outside [n]={list(range(1, n + 1))}")
    if i == j:
        raise ValueError("i and j must be distinct; use synth_diag for the diagonal")
    if m < 0:
        raise ValueError("m must be nonnegative")
    quasi = [(k, sign, I, J) for k, sign, I, J in _quasi_terms(n, i, j) if k <= m]
    # the coefficients of 1/d(t) at t^(m-k) for k >= 1, as every P has
    # |P| >= 2, each with every weight-(m-k) monomial as a term; their
    # types are their exponent vectors over the E_k, whose units are all
    # size-k subsets
    weights = _monomial_counts(n, max(m - 1, 0))[1]
    top = len(weights) - 1
    count = sum(weights[min(m - k, top)] for k, *_ in quasi)
    _require_terms(count, top >= m - 1, f"certificate for (n={n},i={i},j={j},m={m})")
    types = {m - k: _inverse_coefficients(n, m - k) for k, *_ in quasi}
    terms = [(sign, m - k, (I, J)) for k, sign, I, J in quasi]
    terms.sort(key=lambda t: (len(t[2][0]), t[2][0].members(), t[2][1].members()))
    return OffDiagCertificate(n, i, j, m, tuple(terms), types)


def eval_certificate(cert: OffDiagCertificate, A: Matrix):
    """Evaluate a certificate on a concrete matrix; equals (A^m)_{i,j}.
    Each order's coefficient is evaluated once, from its types."""
    if A.nrows != cert.n or A.ncols != cert.n:
        raise ValueError(f"certificate for n={cert.n}, matrix is {A.nrows}x{A.ncols}")
    ring, table = A.ring, A.principal_minors()
    coeffs = {r: _eval_plan(plan, table, ring) for r, plan in cert.plans.items()}
    total = ring.zero()
    for sign, r, (I, J) in cert.terms:
        term = ring.mul(coeffs[r], quasiprincipal_minor(A, I, J, cert.i, cert.j))
        total = ring.add(total, term if sign > 0 else ring.neg(term))
    return total
