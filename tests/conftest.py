import random
from itertools import combinations, permutations

from minorcalc.rings import Ring


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
