"""Laplace programs and the kernels generated from them.

A Laplace program is the lowest-row expansion of a set of minors of an
n x n matrix, unrolled over (row mask, column mask) pairs; it depends
only on n and the minors asked for.  For rings whose elements are plain
ints, a program becomes one generated Python function that unpacks the
rows into locals and computes each minor as one int expression, and a
matrix product one with an expression per entry, each bound to its
modulus k by the generated ``kernel(k)``; ``matrix`` asks for these only
for sizes up to ``MAX_SIZE``.  An algebra with int coordinates, given by
one int expression per coordinate of a product, gets a generated table
loop that runs any program and a product loop.  Every function here
caches its results per key, and imports nothing from the package.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache
def _laplace_program(n: int, targets: tuple) -> tuple:
    """The Laplace expansion of the minors of an n x n matrix on
    ``targets`` ((row mask, column mask) pairs of equal popcount), along
    the lowest remaining row, unrolled over the masks alone.

    Returns ``(entries, where)``.  ``entries`` lists every minor the
    expansion reaches, smaller before larger, each as a tuple of terms
    ``(row, col, negative, sub)``: the minor is the signed sum of
    entry(row, col) times entry ``sub`` of the list, or times 1 when
    ``sub`` is -1.  ``where`` gives the entry of each target, -1 for the
    empty minor.  The program depends only on n and the targets, so every
    matrix of that size shares it.
    """
    seen = {}
    stack = [t for t in targets if t[0]]
    while stack:
        key = stack.pop()
        if key not in seen:
            seen[key] = None
            rows, cols = key
            rest = rows & (rows - 1)
            if rest:
                stack += [(rest, cols ^ 1 << j) for j in range(n) if cols >> j & 1]
    order = sorted(seen, key=lambda key: key[0].bit_count())
    index = {key: at for at, key in enumerate(order)}
    entries = []
    for rows, cols in order:
        rest = rows & (rows - 1)
        i = (rows ^ rest).bit_length() - 1
        # the sign is the column's position among those left
        entries.append(tuple(
            (i, j, (cols & ((1 << j) - 1)).bit_count() & 1 == 1,
             index[rest, cols ^ 1 << j] if rest else -1)
            for j in range(n) if cols >> j & 1
        ))
    return tuple(entries), tuple(index[t] if t[0] else -1 for t in targets)


def _compiled(source: str):
    """The function ``kernel`` that ``source`` defines."""
    namespace: dict = {}
    exec(compile(source, "<minorcalc kernel>", "exec"), namespace)
    return namespace["kernel"]


def _unpack(name: str, nrows: int, ncols: int) -> str:
    """An assignment target naming entry (i, j) ``{name}{i}_{j}``."""
    return "[%s]" % ", ".join(
        "[%s]" % ", ".join(f"{name}{i}_{j}" for j in range(ncols)) for i in range(nrows)
    )


def _tuple(items) -> str:
    return "(%s)" % "".join(f"{x}, " for x in items)


@lru_cache
def _minor_kernel(n: int, targets: tuple, reduce: bool):
    """``kernel(k)(rows)``: the minors on ``targets`` of the n x n int
    matrix ``rows``, reduced mod k if ``reduce``, as straight-line code
    for the Laplace program of (n, targets).  Each larger minor is one
    local, for instance ``v7 = (a2_0*v3 - a2_1*a1_2 + a2_3*v6) % k``; a
    1x1 minor is its entry, reduced only where it is a target."""
    entries, where = _laplace_program(n, targets)
    mod = " % k" if reduce else ""
    refs, lines = [], ["def kernel(k):", "    def table(rows):", f"        {_unpack('a', n, n)} = rows"]
    for at, terms in enumerate(entries):
        if terms[0][3] < 0:  # a 1x1 minor
            refs.append("a%d_%d" % terms[0][:2])
            continue
        # the first column left is never negated, so drop its " + "
        expr = "".join(
            (" - " if negative else " + ") + f"a{i}_{j}*{refs[s]}"
            for i, j, negative, s in terms
        )[3:]
        refs.append(f"v{at}")
        lines.append(f"        v{at} = ({expr}){mod}")
    values = ("1" if t < 0 else refs[t] + mod if entries[t][0][3] < 0 else refs[t] for t in where)
    lines += ["        return " + _tuple(values), "    return table"]
    return _compiled("\n".join(lines))


@lru_cache
def _product_kernel(p: int, q: int, s: int, reduce: bool):
    """``kernel(k)(a, b)``: the product of the p x q and q x s int
    matrices with rows ``a`` and ``b`` as a tuple of row tuples, each
    entry one expression reduced mod k if ``reduce``."""

    def entry(i, j):
        expr = " + ".join(f"a{i}_{t}*b{t}_{j}" for t in range(q))
        return f"({expr}) % k" if reduce else expr

    rows = _tuple(_tuple(entry(i, j) for j in range(s)) for i in range(p))
    return _compiled(
        f"def kernel(k):\n    def product(a, b):\n        {_unpack('a', p, q)} = a\n"
        f"        {_unpack('b', q, s)} = b\n        return {rows}\n    return product"
    )


@lru_cache
def _algebra_kernels(products: tuple) -> tuple:
    """``(table, product)``: loops on the int coordinates over Z/k (Z if k
    is 0) of an algebra with first basis element 1, where coordinate r of
    a*b is ``products[r]`` over the locals a0.. and b0...  Each minor of
    the Laplace program that ``table(entries, where, k)(rows)`` runs, and
    each entry of ``product(k)(a, b)``, sums its terms into one int local
    per coordinate and is reduced mod k once; tables skip zero entries."""
    d = len(products)

    def sums(op):  # add (op "+") or subtract ("-") a*b into c0..
        return "".join(f"\n{' ' * 20}c{r} {op}= {expr}" for r, expr in enumerate(products))

    a, b, c = (_tuple(f"{x}{r}" for r in range(d)) for x in "abc")
    reduced = f"{_tuple(f'c{r} % k' for r in range(d))} if k else {c}"
    table = _compiled(f"""def kernel(entries, where, k):
    def table(rows):
        # vals[-1] is the empty minor, which every 1x1 entry multiplies by
        vals = [None] * len(entries) + [{_tuple(["1"] + ["0"] * (d - 1))}]
        nonzero = [[e if any(e) else None for e in row] for row in rows]
        for at, terms in enumerate(entries):
            {c} = {_tuple(["0"] * d)}
            for i, j, negative, s in terms:
                a = nonzero[i][j]
                if a is None:
                    continue
                {a} = a
                {b} = vals[s]
                if negative:{sums("-")}
                else:{sums("+")}
            vals[at] = {reduced}
        return tuple(vals[t] for t in where)
    return table""")
    product = _compiled(f"""def kernel(k):
    def product(a, b):
        cols = tuple(zip(*b))
        out = []
        for row in a:
            out_row = []
            for col in cols:
                {c} = {_tuple(["0"] * d)}
                for {a}, {b} in zip(row, col):{sums("+")}
                out_row.append({reduced})
            out.append(tuple(out_row))
        return tuple(out)
    return product""")
    return table, product
