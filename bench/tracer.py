"""In-memory span tracer that wraps minorcalc's public functions from the
outside, so the package itself carries no instrumentation.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` is the benchmark operation
that caused it, so all spans of one operation share an id.  A layer's
self time is its span duration minus the durations of its direct
children.  Ring multiplications are counted, not timed: a span around
every ring op would cost more than the op.

Run as a script, this module is the traced CLI child process:

    python3 bench/tracer.py OUT.json ARGV...

runs ``minorcalc.cli.main(ARGV)`` under a tracer and writes its spans and
counts to OUT.json; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter
_INHERITED = object()


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list = []
        self._undo: list = []

    # -- recording ----------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.op)

    def timed(self, name, fn, tally=None):
        """``fn`` wrapped in a span; ``tally(result)`` adds counts."""
        call = self.call

        def wrapper(*args, **kwargs):
            out = call(name, fn, *args, **kwargs)
            if tally is not None:
                tally(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def add_child(self, parent_idx: int, spans: list, counts: dict):
        """Graft spans recorded in a child process under one local span."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in spans:
            parent = parent_idx if parent < 0 else base + parent
            self.spans.append((name, t0, t1, parent, self.op))
        self.counts.update(counts)

    # -- patching -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def _set_function(self, mc_modules, module, attr, value):
        """Replace a module-level function in its home module and in every
        minorcalc module that imported it by name."""
        original = getattr(module, attr)
        for mod in mc_modules:
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, value)

    def install(self, mc_modules: list):
        """Wrap the layer boundaries of an imported minorcalc package."""
        mods = {m.__name__.rpartition(".")[2]: m for m in mc_modules}
        poly, series, matrix = mods["poly"], mods["series"], mods["matrix"]
        rings, universal, scan = mods["rings"], mods["universal"], mods["scan"]
        counts = self.counts

        def terms_out(p):
            counts["poly.mul.terms_out"] += len(p.terms)

        def subsets(table):
            counts["matrix.principal_minors.subsets"] += len(table.values)

        def scanned(report):
            counts["scan.matrices"] += report.scanned
            counts["scan.candidates"] += report.candidates

        P = poly.Polynomial
        mul = self.timed("poly.mul", P.__mul__, terms_out)
        add = self.timed("poly.add", P.__add__)
        for attr, value in (("__mul__", mul), ("__rmul__", mul), ("__add__", add),
                            ("__radd__", add)):
            self._set(P, attr, value)
        self._set(P, "eval", self.timed("poly.eval", P.eval))
        self._set(P, "__str__", self.timed("poly.str", P.__str__))

        S = series.TruncatedSeries
        self._set(S, "inverse", self.timed("series.inverse", S.inverse))
        self._set(S, "__mul__", self.timed("series.mul", S.__mul__))

        M = matrix.Matrix
        self._set(M, "principal_minors",
                  self.timed("matrix.principal_minors", M.principal_minors, subsets))
        self._set(M, "pow", self.timed("matrix.pow", M.pow))
        self._set(M, "mul", self.timed("matrix.mul", M.mul))

        for cls, key in ((rings.IntegerRing, "rings.int.mul.calls"),
                         (rings.ModularRing, "rings.mod.mul.calls"),
                         (rings.FootnoteAlgebra, "rings.footnote.mul.calls")):
            self._set(cls, "mul", self.counted(key, cls.mul))

        mc = list(mods.values())
        for module, attr, tally in ((universal, "synth_diag", None),
                                    (universal, "synth_offdiag", None),
                                    (universal, "eval_universal", None),
                                    (scan, "run_scan", scanned),
                                    (mods["matrixio"], "load_matrix_file", None)):
            name = f"{module.__name__.rpartition('.')[2]}.{attr}"
            self._set_function(mc, module, attr, self.timed(name, getattr(module, attr), tally))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)


def layer_totals(spans: list):
    """Per span name: (calls, total self seconds)."""
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for k, (name, t0, t1, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[k]
    return calls, self_s


def write_trace(path, header: dict, spans: list, counts: dict):
    """One JSON header line, then one JSON array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "counts": dict(counts)}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def _child_main(out_path: str, argv: list) -> int:
    import minorcalc.cli as cli

    mc = [m for name, m in sys.modules.items() if name.startswith("minorcalc.")]
    tracer = Tracer()
    tracer.install(mc)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        universal = sys.modules["minorcalc.universal"]
        tracer.counts["universal.synth_diag.misses"] += (
            universal.synth_diag.__wrapped__.cache_info().misses
        )
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1], sys.argv[2:]))
