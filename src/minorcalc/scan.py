"""Finite-ring scans: hunt for matrices whose principal minors are all 1
but whose powers have a principal minor different from 1.

Over Z/2 (the Putnam setting) exhaustive scans must find nothing; over
the counterexample algebra the built-in family yields a violation; over
Z/4 the outcome is an open question, so those scans are exploratory.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .demos import footnote_matrix
from .matrix import Matrix, Subset
from .matrixio import matrix_to_json, ring_from_spec
from .rings import FootnoteAlgebra, IntegerRing, ModularRing, _is_prime

EXHAUSTIVE_LIMIT = 2**24
DEFAULT_ENTRY_BOUND = 9


@dataclass(frozen=True)
class Violation:
    """A candidate matrix (all principal minors 1) with a principal minor
    of some power not equal to 1."""

    matrix: tuple  # row tuples, JSON-ready entries
    power: int
    subset: tuple
    value: object  # JSON-ready

    def sort_key(self):
        return (self.matrix, self.power, self.subset)

    def to_json(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix],
            "m": self.power,
            "subset": list(self.subset),
            "value": self.value,
        }


@dataclass
class ScanReport:
    ring: str
    n: int
    m_max: int
    mode: str
    seed: object  # int, or "exhaustive"
    trials: int | None
    scanned: int
    candidates: int
    violations: list[Violation]
    exploratory: bool
    elapsed: float = field(default=0.0, compare=False)

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


# -- fast integer-entry path (Z and Z/k) ------------------------------


def _det_exact(a, idx):
    """Determinant over Z of the principal submatrix of `a` on 0-based
    indices `idx` (recursive Laplace; sizes here never exceed ~8)."""
    if not idx:
        return 1
    r = idx[0]
    rest = idx[1:]
    total = 0
    for pos, c in enumerate(idx):
        e = a[r][c]
        if e:
            sub = _det_exact_rc(a, rest, idx[:pos] + idx[pos + 1 :])
            total += e * sub if pos % 2 == 0 else -e * sub
    return total


def _det_exact_rc(a, rows, cols):
    if not rows:
        return 1
    r = rows[0]
    rest = rows[1:]
    total = 0
    for pos, c in enumerate(cols):
        e = a[r][c]
        if e:
            sub = _det_exact_rc(a, rest, cols[:pos] + cols[pos + 1 :])
            total += e * sub if pos % 2 == 0 else -e * sub
    return total


def _subsets_by_size(n):
    out = []
    for k in range(1, n + 1):
        out.extend(combinations(range(n), k))
    return out


def _all_minors_one(a, subsets, modulus):
    for idx in subsets:
        d = _det_exact(a, idx)
        if modulus is not None:
            d %= modulus
        if d != 1:
            return False
    return True


def _mat_mul_int(a, b, modulus):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for j in range(n):
            s = sum(ai[k] * b[k][j] for k in range(n))
            out[i][j] = s % modulus if modulus is not None else s
    return out


def _power_violations(a, n, m_max, modulus, subsets):
    found = []
    b = a
    for m in range(2, m_max + 1):
        b = _mat_mul_int(b, a, modulus)
        for idx in subsets:
            d = _det_exact(b, idx)
            if modulus is not None:
                d %= modulus
            if d != 1:
                found.append(
                    Violation(
                        matrix=tuple(tuple(row) for row in a),
                        power=m,
                        subset=tuple(i + 1 for i in idx),
                        value=d,
                    )
                )
    return found


def _unipotent_seed(rng, n, entry):
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = entry(rng)
    return a


def _scan_integer_entries(ring, n, m_max, mode, trials, seed, entry_bound):
    modulus = ring.modulus if isinstance(ring, ModularRing) else None
    subsets = _subsets_by_size(n)
    candidates = 0
    violations: list[Violation] = []
    if mode == "exhaustive":
        if modulus is None:
            raise ValueError("exhaustive mode needs a finite ring")
        total = modulus ** (n * n)
        if total > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"exhaustive scan of {total} matrices exceeds the limit {EXHAUSTIVE_LIMIT}"
            )
        scanned = 0
        for flat in product(range(modulus), repeat=n * n):
            scanned += 1
            a = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
            if _all_minors_one(a, subsets, modulus):
                candidates += 1
                violations.extend(_power_violations(a, n, m_max, modulus, subsets))
        return scanned, candidates, violations
    # random mode: per-trial RNG keyed by (seed, index), so the report does
    # not depend on how the trial stream is split
    if modulus is not None:
        entry = lambda rng: rng.randrange(modulus)
    else:
        entry = lambda rng: rng.randint(-entry_bound, entry_bound)
    for idx in range(trials):
        # string seeding is hash-stable
        rng = random.Random(f"{seed}:{idx}")
        if idx % 4 == 3:
            # structured seed: unipotent upper triangular, all minors 1
            a = _unipotent_seed(rng, n, entry)
        else:
            a = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if _all_minors_one(a, subsets, modulus):
            candidates += 1
            violations.extend(_power_violations(a, n, m_max, modulus, subsets))
    return trials, candidates, violations


# -- footnote-algebra path --------------------------------------------


def _scan_footnote(ring: FootnoteAlgebra, n, m_max):
    if n != 4:
        raise ValueError("the built-in counterexample family has n = 4")
    A = footnote_matrix(ring)
    scanned = 1
    candidates = 0
    violations: list[Violation] = []
    table = A.principal_minors()
    if table.all_equal(ring.one()):
        candidates += 1
        matrix_entries = tuple(
            tuple(tuple(int(c) for c in v) for v in row) for row in A.rows
        )
        b = A
        for m in range(2, m_max + 1):
            b = b.mul(A)
            minors = b.principal_minors()
            for subset, value in minors.items():
                if len(subset) == 0:
                    continue
                if not ring.eq(value, ring.one()):
                    violations.append(
                        Violation(
                            matrix=matrix_entries,
                            power=m,
                            subset=subset.members(),
                            value=ring.render(value),
                        )
                    )
    return scanned, candidates, violations


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
    if n < 1:
        raise ValueError("n must be at least 1")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if mode == "random" and trials < 1:
        raise ValueError("random mode needs at least 1 trial")
    ring = ring_from_spec(ring_spec)
    t0 = time.monotonic()
    if isinstance(ring, FootnoteAlgebra):
        scanned, candidates, violations = _scan_footnote(ring, n, m_max)
        mode = "builtin-family"
        trials_out = None
        seed_out = "exhaustive"
        exploratory = False
    elif isinstance(ring, (ModularRing, IntegerRing)):
        if mode == "exhaustive" and isinstance(ring, IntegerRing):
            raise ValueError("Z cannot be scanned exhaustively; use random mode")
        scanned, candidates, violations = _scan_integer_entries(
            ring, n, m_max, mode, trials, seed, entry_bound
        )
        trials_out = trials if mode == "random" else None
        seed_out = seed if mode == "random" else "exhaustive"
        exploratory = isinstance(ring, ModularRing) and not _is_prime(ring.modulus)
    else:
        raise ValueError(f"cannot scan ring {ring.describe()}")
    violations = sorted(violations, key=Violation.sort_key)
    return ScanReport(
        ring=ring.describe(),
        n=n,
        m_max=m_max,
        mode=mode,
        seed=seed_out,
        trials=trials_out,
        scanned=scanned,
        candidates=candidates,
        violations=violations,
        exploratory=exploratory,
        elapsed=time.monotonic() - t0,
    )


def reverify_violation(ring_spec: str, violation: Violation) -> bool:
    """Recompute the named minor of A^m through the generic matrix kernel
    and compare with the reported value."""
    ring = ring_from_spec(ring_spec)
    if isinstance(ring, FootnoteAlgebra):
        rows = [
            [tuple(ring.base.from_int(c) for c in v) for v in row]
            for row in violation.matrix
        ]
        A = Matrix(ring, rows)
        expected = violation.value
        got = ring.render(
            A.pow(violation.power).principal_minor(
                Subset.of(A.nrows, violation.subset)
            )
        )
        return got == expected
    A = Matrix.from_ints(ring, violation.matrix)
    got = A.pow(violation.power).principal_minor(Subset.of(A.nrows, violation.subset))
    return ring.eq(got, ring.from_int(violation.value) if isinstance(ring, ModularRing) else violation.value)
