"""Finite-ring scans: hunt for matrices whose principal minors are all 1
but whose powers have a principal minor different from 1.

Over Z/2 (the Putnam setting) exhaustive scans must find nothing; over
the counterexample algebra the built-in family yields a violation; over
Z/4 the outcome is an open question, so those scans are exploratory.

Every scan, over Z, Z/k and the quotient algebra alike, resolves one
table function and one product function from `matrix` at its start and
keeps each matrix and its powers as bare tuples of row tuples. A matrix
is a candidate when its table of principal minors equals the all-ones
tuple, one tuple comparison; only a power's table that differs is read
subset by subset, to record its violations. An exhaustive scan over Z/k
enumerates only the matrices with 1s on the diagonal and a_ij * a_ji = 0
for every pair i < j, since any other matrix has a 1x1 or 2x2 principal
minor that is not 1. That is z^(n(n-1)/2) matrices instead of k^(n^2),
where z is the number of zero-product pairs of Z/k (3^6 = 729 instead of
4096 for Z/2 at n = 4).
The report still counts the whole space of k^(n^2) matrices as scanned,
and the candidate check still runs on every matrix enumerated.

A random scan runs `trials` trials; trial idx draws from one RNG
reseeded from f"{seed}:{idx}". Three trials in four are uniform draws. A
uniform trial stops drawing at its first diagonal entry that is not 1
and yields no matrix; since the RNG is reseeded for every trial, the
report is the same as if all n^2 entries had been drawn. Every fourth
trial (idx % 4 == 3) is upper unitriangular, and such a seed can never
fail, over any commutative ring: A^m is upper unitriangular too, so is
every principal submatrix of A^m (rows and columns S keep the order of
S), and the determinant of a triangular matrix is the product of its
diagonal, here 1. So these trials are counted as candidates with no
violation, `trials // 4` of them, and never seeded, drawn or scanned;
leaving them out shifts no other trial's stream.
"""

from __future__ import annotations

import json
import random
import time
from itertools import chain, combinations, product
from math import gcd
from operator import itemgetter

from .matrix import Subset, _principal_pairs, all_subsets, minor_function, product_function, require_size
from .matrixio import matrix_from_json, ring_from_spec, ring_to_json
from .records import Record
from .rings import FootnoteAlgebra, IntegerRing, ModularRing, _is_prime

EXHAUSTIVE_LIMIT = 2**24
DEFAULT_ENTRY_BOUND = 9


class Violation(Record):
    """A candidate matrix (all principal minors 1) with a principal minor
    of some power not equal to 1."""

    _fields = ("matrix", "power", "subset", "value")

    def __init__(self, matrix: tuple, power: int, subset: tuple, value: object):
        # matrix: row tuples; matrix and value: JSON-ready entries
        self._init(matrix, power, subset, value)

    def sort_key(self):
        return (self.matrix, self.power, self.subset)

    def to_json(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix],
            "m": self.power,
            "subset": list(self.subset),
            "value": self.value,
        }


class ScanReport(Record):
    """The outcome of a scan; unlike the other records it is mutable and
    unhashable, and ``elapsed`` takes no part in ``==``."""

    _fields = ("ring", "n", "m_max", "mode", "seed", "trials", "scanned", "candidates",
               "violations", "exploratory")
    _repr_fields = _fields + ("elapsed",)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, ring: str, n: int, m_max: int, mode: str, seed: object,
                 trials: int | None, scanned: int, candidates: int,
                 violations: list[Violation], exploratory: bool, elapsed: float = 0.0):
        # seed: an int, or "exhaustive"
        self._init(ring, n, m_max, mode, seed, trials, scanned, candidates, violations,
                   exploratory)
        self.elapsed = elapsed

    def to_json(self) -> str:
        # deterministic: elapsed wall time deliberately excluded
        payload = {
            "ring": self.ring,
            "n": self.n,
            "m_max": self.m_max,
            "mode": self.mode,
            "seed": self.seed,
            "trials": self.trials,
            "scanned": self.scanned,
            "candidates": self.candidates,
            "violations": [v.to_json() for v in self.violations],
            "exploratory": self.exploratory,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"ring: {self.ring}",
            f"n: {self.n}",
            f"m_max: {self.m_max}",
            f"mode: {self.mode}",
            f"seed: {self.seed}",
        ]
        if self.trials is not None:
            lines.append(f"trials: {self.trials}")
        lines += [
            f"matrices scanned: {self.scanned}",
            f"candidates (all principal minors = 1): {self.candidates}",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations:
            subset = "{" + ",".join(map(str, v.subset)) + "}"
            lines.append(
                f"  matrix {list(map(list, v.matrix))}: minor {subset} "
                f"of A^{v.power} = {v.value}"
            )
        if self.exploratory:
            lines.append(
                "EXPLORATORY: no expected outcome is known for this ring; "
                "absence of violations proves nothing"
            )
        return "\n".join(lines)


# -- the scan ---------------------------------------------------------


def _report_value(ring, value):
    """A minor as the report shows it: an int over Z and Z/k, the
    rendered element over the quotient algebra."""
    return ring.render(value) if isinstance(ring, FootnoteAlgebra) else value


def _scan_matrices(ring, n, matrices, m_max):
    """Count the candidates among `matrices`, n x n row tuples over
    `ring`, and collect every principal minor of A^2, ..., A^m_max that
    is not 1, for each candidate A.  The table and product functions are
    resolved once, and a table passes with one tuple comparison against
    all ones (`Ring.eq` is `==` on canonical elements for every ring)."""
    subsets, one = all_subsets(n), ring.one()
    table, product = minor_function(ring, n, _principal_pairs(n)), product_function(ring, n, n, n)
    ones = (one,) * len(subsets)
    candidates = 0
    violations: list[Violation] = []
    for rows in matrices:
        if table(rows) != ones:
            continue
        candidates += 1
        power = rows
        for m in range(2, m_max + 1):
            power = product(power, rows)
            values = table(power)
            if values != ones:
                # violations are sorted at the end, so table order does not matter
                for subset, value in zip(subsets, values):
                    if value != one:
                        violations.append(Violation(rows, m, subset.members(), _report_value(ring, value)))
    return candidates, violations


def _zero_product_pairs(k):
    """Every pair (a, b) of residues mod k with a*b = 0 mod k: b runs over
    the multiples of k / gcd(a, k)."""
    return [(a, b) for a in range(k) for b in range(0, k, k // gcd(a, k))]


def _pair_pruned_matrices(ring: ModularRing, n):
    """The rows of every n x n matrix over Z/k with 1s on the diagonal and
    a_ij * a_ji = 0 for each pair i < j.  Any other matrix has a 1x1 or a
    2x2 principal minor that is not 1 (the minor on {i, j} is
    1 - a_ij * a_ji), so it is counted as scanned but never yielded."""
    places = list(combinations(range(n), 2))
    if not places:
        # n = 1: the one matrix [[1]], whatever the size of k
        yield ((1,),)
        return
    # a choice flattens to (x_0, y_0, x_1, y_1, ..., 1): a_ij = x_p and
    # a_ji = y_p for the p-th place (i, j), and the diagonal reads the last 1
    slot = {}
    for p, (i, j) in enumerate(places):
        slot[i, j], slot[j, i] = 2 * p, 2 * p + 1
    diagonal = 2 * len(places)
    rows = [itemgetter(*(slot.get((i, j), diagonal) for j in range(n))) for i in range(n)]
    flat = chain.from_iterable
    for choice in product(_zero_product_pairs(ring.modulus), repeat=len(places)):
        entries = (*flat(choice), 1)
        yield tuple([row(entries) for row in rows])


def _random_rows(rng, n, entry, one, eq):
    """The rows of one trial, drawn row-major, or None at the first
    diagonal entry that is not 1: such a matrix has a 1x1 principal minor
    that is not 1, so it can never be a candidate and the rest of its
    entries are not drawn."""
    rows = []
    for i in range(n):
        row = [entry(rng) for _ in range(i + 1)]
        if not eq(row[i], one):
            return None
        rows.append(row + [entry(rng) for _ in range(i + 1, n)])
    return rows


def _random_matrices(ring, n, trials, seed, entry_bound):
    """The uniform trials of a random scan that can be candidates: every
    idx below `trials` with idx % 4 != 3.  Trial idx draws from one RNG
    reseeded from the hash-stable string f"{seed}:{idx}", so skipping the
    unitriangular trials, which `run_scan` counts, shifts no other
    trial's stream."""
    if isinstance(ring, ModularRing):
        entry = lambda rng: rng.randrange(ring.modulus)
    else:
        entry = lambda rng: rng.randint(-entry_bound, entry_bound)
    one, eq = ring.one(), ring.eq
    rng = random.Random()
    for idx in range(trials):
        if idx % 4 == 3:
            continue
        rng.seed(f"{seed}:{idx}")
        a = _random_rows(rng, n, entry, one, eq)
        if a is not None:
            yield tuple(map(tuple, a))


# -- entry point ------------------------------------------------------


def run_scan(
    ring_spec: str,
    n: int,
    m_max: int,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    entry_bound: int = DEFAULT_ENTRY_BOUND,
) -> ScanReport:
    if mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown scan mode {mode!r}")
    require_size("n", n, 1)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if mode == "random" and trials < 1:
        raise ValueError("random mode needs at least 1 trial")
    if entry_bound < 0:
        raise ValueError(f"entry_bound must be at least 0, got {entry_bound}")
    ring = ring_from_spec(ring_spec)
    # decided before any work, so a modulus too large to test exits 2 at once
    exploratory = isinstance(ring, ModularRing) and not _is_prime(ring.modulus)
    t0 = time.monotonic()
    trials_out, seed_out = None, "exhaustive"
    if isinstance(ring, FootnoteAlgebra):
        if mode == "random":
            raise ValueError("footnote scans run only the built-in counterexample family; random mode is not supported")
        if n != 4:
            raise ValueError("the built-in counterexample family has n = 4")
        from .demos import footnote_matrix

        mode, scanned, matrices = "builtin-family", 1, [footnote_matrix(ring).rows]
    elif mode == "exhaustive":
        if isinstance(ring, IntegerRing):
            raise ValueError("Z cannot be scanned exhaustively; use random mode")
        scanned = ring.modulus ** (n * n)
        if scanned > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive scan of {scanned} matrices exceeds the limit {EXHAUSTIVE_LIMIT}"
            )
        matrices = _pair_pruned_matrices(ring, n)
    else:
        scanned = trials_out = trials
        seed_out = seed
        matrices = _random_matrices(ring, n, trials, seed, entry_bound)
    candidates, violations = _scan_matrices(ring, n, matrices, m_max)
    if mode == "random":
        # every fourth trial is unitriangular: a candidate with no violation
        candidates += trials // 4
    return ScanReport(
        ring=ring.describe(),
        n=n,
        m_max=m_max,
        mode=mode,
        seed=seed_out,
        trials=trials_out,
        scanned=scanned,
        candidates=candidates,
        violations=sorted(violations, key=Violation.sort_key),
        exploratory=exploratory,
        elapsed=time.monotonic() - t0,
    )


def reverify_violation(ring_spec: str, violation: Violation) -> bool:
    """Rebuild the matrix from the report through its JSON form, recompute
    the named minor of A^m with `Matrix.pow` and `principal_minor` (the
    same kernel the scan used, so this checks the report's record, not
    the kernel) and compare with the reported value."""
    ring = ring_from_spec(ring_spec)
    A = matrix_from_json(
        {"ring": ring_to_json(ring), "n": len(violation.matrix), "entries": violation.matrix}
    )
    minor = A.pow(violation.power).principal_minor(Subset.of(A.nrows, violation.subset))
    return _report_value(ring, minor) == violation.value
