"""The four benchmark workloads.

Each workload turns the seed into a fixed list of operations in
``setup``; a pass runs that list once.  ``op`` is the timed call into
minorcalc, ``check`` compares its output with the recorded digests or an
independent oracle outside the timed region, ``pass_errors`` checks the
cache discipline of a whole pass, and ``reference_s`` times the fixed
work that op times are divided by.  ``mc`` is a namespace of freshly
imported minorcalc modules, so nothing here imports the package itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

# What the console script `minorcalc` (minorcalc.cli:main) runs.
ENTRY_POINT = "import sys\nfrom minorcalc.cli import main\nsys.exit(main())"
TRACED_CHILD = str(Path(__file__).with_name("tracer.py"))

# Principal-minor-1 candidates of the exhaustive scans (brute force).
KNOWN_CANDIDATES = {("mod:2", 4): 543, ("mod:3", 3): 109, ("mod:4", 3): 448}

SCAN_M_MAX = 4
REFERENCE_REPEATS = 3


def reference_loop() -> int:
    """Fixed pure-Python work of the kind minorcalc does (dict, tuple and
    integer operations).  Its time tracks how fast the shared machine runs
    Python at the moment; it never calls minorcalc."""
    d: dict = {}
    for i in range(40000):
        key = (i % 97, i % 89, "p")
        d[key] = d.get(key, 0) + i * 3
    return len(d)


def median_time(fn, *args) -> float:
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cache_of(mc, name):
    """The lru_cache of ``universal.<name>``, also under a tracer span."""
    fn = getattr(mc.universal, name)
    return fn if hasattr(fn, "cache_info") else fn.__wrapped__


def sha256(text) -> str:
    data = text if isinstance(text, bytes) else text.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def diag_key(n, i, m) -> str:
    return f"P[n={n},i={i},m={m}]"


def offdiag_key(n, i, j, m) -> str:
    return f"C[n={n},i={i},j={j},m={m}]"


def scan_key(spec, n) -> str:
    return f"{spec} n={n}"


class Workload:
    percentiles = False  # enough operations per run for p50/p90
    rss_of_children = False  # peak RSS is that of the child processes
    reference_interval = 0.5  # seconds of operations between reference samples
    setup_repeats = 9  # set-ups per run; setup_s is their median

    def __init__(self, ctx):
        """``ctx`` holds the checkout ``root``, the ``out_dir`` for files and
        the ``child_env`` for child processes."""

    def setup(self, mc, rng: random.Random) -> list:
        raise NotImplementedError

    def reference_s(self) -> float:
        return median_time(reference_loop)

    def before_pass(self, mc):
        pass

    def op(self, mc, item):
        raise NotImplementedError

    def check(self, mc, item, out, golden) -> str | None:
        return None

    def pass_errors(self, mc) -> list:
        return []

    def setup_errors(self, mc, golden) -> list:
        return []

    def label(self, item) -> str:
        return str(item)

    def cleanup(self):
        pass


class Synth(Workload):
    """Cold synthesis: P[n,i,m] for every i, for n = 5 over m = 0..7 and
    n = 6 over m = 0..6 (sweeps over m, as `verify all-ones` does), plus
    three off-diagonal certificates whose (i, j) the seed draws.
    Dominated by Polynomial.__mul__.  Every i is covered because the cost
    depends on i (up to 30% for one job), so drawing it from the seed
    would make runs differ by their seed; jobs are kept under half a
    second so that a run holds enough samples of each for a steady
    median on a shared machine."""

    setup_repeats = 21  # a set-up is mostly the import, 30-60 ms
    SWEEPS = ((5, 7), (6, 6))  # (n, largest m)
    OFFDIAG = ((4, 5), (5, 4), (5, 5))  # (n, m)

    def setup(self, mc, rng):
        jobs = [("diag", (n, i, m)) for n, m_max in self.SWEEPS
                for i in range(1, n + 1) for m in range(m_max + 1)]
        for n, m in self.OFFDIAG:
            i, j = rng.sample(range(1, n + 1), 2)
            jobs.append(("offdiag", (n, i, j, m)))
        u = mc.universal
        self._jobs = sum(kind == "diag" for kind, _ in jobs)
        str(u.synth_diag(4, 1, 4).body)  # warm the variable-order cache
        u.synth_offdiag(3, 1, 2, 3).to_json()
        return jobs

    def before_pass(self, mc):
        cache_of(mc, "synth_diag").cache_clear()
        cache_of(mc, "synth_offdiag").cache_clear()

    def op(self, mc, item):
        kind, args = item
        if kind == "diag":
            return mc.universal.synth_diag(*args).serialize()
        return mc.universal.synth_offdiag(*args).to_json()

    def check(self, mc, item, out, golden):
        kind, args = item
        key = diag_key(*args) if kind == "diag" else offdiag_key(*args)
        table = golden["poly"] if kind == "diag" else golden["cert"]
        if sha256(out) != table[key]:
            return f"{key} differs from the recorded digest"
        return None

    def pass_errors(self, mc):
        misses = cache_of(mc, "synth_diag").cache_info().misses
        if misses != self._jobs:
            return [f"cold pass: {misses} synth_diag misses for {self._jobs} jobs"]
        return []

    def label(self, item):
        kind, args = item
        return diag_key(*args) if kind == "diag" else offdiag_key(*args)


class Verify(Workload):
    """Warm checks: every P[n,i,m] is synthesized in set-up; each trial
    draws a matrix over Z, Z/4, F_101 or the quotient algebra, builds the
    minor tables of A and A^m, and checks each (A^m)_{i,i} three ways:
    eval_universal, A.pow(m) and the {i} minor of A^m."""

    percentiles = True
    SIZES = (3, 4, 5)
    POWERS = (2, 4, 6)
    PER_CELL = 2

    def setup(self, mc, rng):
        r = mc.rings
        rings = (
            (r.IntegerRing(), lambda: rng.randint(-9, 9)),
            (r.ModularRing(4), lambda: rng.randrange(4)),
            (r.PrimeField(101), lambda: rng.randrange(101)),
            (r.FootnoteAlgebra(), lambda: tuple(rng.randrange(2) for _ in range(6))),
        )
        u = mc.universal
        for n in self.SIZES:
            for m in self.POWERS:
                for i in range(1, n + 1):
                    u.synth_diag(n, i, m)
        trials = []
        for ring, entry in rings:
            for n in self.SIZES:
                for m in self.POWERS:
                    for _ in range(self.PER_CELL):
                        rows = [[entry() for _ in range(n)] for _ in range(n)]
                        trials.append((mc.matrix.Matrix(ring, rows), m))
        self.op(mc, trials[-1])
        return trials

    def setup_errors(self, mc, golden):
        errors = []
        for n in self.SIZES:
            for m in self.POWERS:
                for i in range(1, n + 1):
                    key = diag_key(n, i, m)
                    poly = mc.universal.synth_diag(n, i, m)
                    if sha256(poly.serialize()) != golden["poly"][key]:
                        errors.append(f"{key} differs from the recorded digest")
        return errors

    def before_pass(self, mc):
        self._misses = cache_of(mc, "synth_diag").cache_info().misses

    def op(self, mc, item):
        A, m = item
        ring, n = A.ring, A.nrows
        u = mc.universal
        table = A.principal_minors()
        power = A.pow(m)
        power_table = power.principal_minors()
        for i in range(1, n + 1):
            got = u.eval_universal(u.synth_diag(n, i, m), table, ring)
            want = power.entry(i, i)
            if not (ring.eq(got, want) and ring.eq(power_table[(i,)], want)):
                return f"(A^{m})_{{{i},{i}}}: {ring.render(got)} != {ring.render(want)}"
        return None

    def check(self, mc, item, out, golden):
        return out

    def pass_errors(self, mc):
        misses = cache_of(mc, "synth_diag").cache_info().misses - self._misses
        return [f"warm pass: {misses} synth_diag misses"] if misses else []

    def label(self, item):
        A, m = item
        return f"{A.ring.describe()} n={A.nrows} m={m}"


class Scan(Workload):
    """Finite-ring scans through scan's integer kernel: three exhaustive
    spaces (0.8% of matrices are candidates) and two random streams (25%
    are, from the unipotent seeds).  No Polynomial work."""

    setup_repeats = 21  # a set-up is mostly the import, 30-60 ms
    TRIALS = 3000

    def __init__(self, ctx):
        self._seen: dict = {}  # op -> first report, checked once per run

    def setup(self, mc, rng):
        jobs = [(spec, n, "exhaustive", 0, 0) for spec, n in KNOWN_CANDIDATES]
        for spec in ("mod:4", "int"):
            jobs.append((spec, 4, "random", self.TRIALS, rng.randrange(2**31)))
        mc.scan.run_scan("mod:2", 2, SCAN_M_MAX)
        return jobs

    def op(self, mc, item):
        spec, n, mode, trials, seed = item
        return mc.scan.run_scan(spec, n, SCAN_M_MAX, mode, trials, seed).to_json()

    def check(self, mc, item, out, golden):
        spec, n, mode, trials, seed = item
        if item in self._seen:
            return None if out == self._seen[item] else "report differs between passes"
        self._seen[item] = out
        report = json.loads(out)
        if mode == "exhaustive":
            want = KNOWN_CANDIDATES[(spec, n)]
            if report["candidates"] != want:
                return f"{report['candidates']} candidates, brute force gives {want}"
            if sha256(out) != golden["scan"][scan_key(spec, n)]:
                return "report differs from the recorded digest"
            return None
        want = random_scan_oracle(mc, spec, n, trials, seed)
        got = (report["scanned"], report["candidates"], report["violations"])
        if got == want:
            return None
        return (f"(scanned, candidates, violations) = {got[:2] + (len(got[2]),)}, "
                f"oracle {want[:2] + (len(want[2]),)}")

    def label(self, item):
        spec, n, mode, trials, seed = item
        return f"{mode} {spec} n={n}" + (f" seed={seed}" if mode == "random" else "")


def random_scan_oracle(mc, spec, n, trials, seed):
    """(scanned, candidates, violations) of a random scan, recomputed with
    the generic Matrix kernel over the documented per-trial stream:
    trial k draws from Random(f"{seed}:{k}"), and every fourth trial is a
    unipotent upper-triangular seed."""
    ring = mc.matrixio.ring_from_spec(spec)
    modulus = getattr(ring, "modulus", None)
    Matrix, Subset = mc.matrix.Matrix, mc.matrix.Subset
    subsets = [Subset.of(n, c) for k in range(1, n + 1) for c in combinations(range(1, n + 1), k)]
    one = ring.one()
    candidates = 0
    violations = []
    for k in range(trials):
        rng = random.Random(f"{seed}:{k}")
        entry = (lambda: rng.randrange(modulus)) if modulus else (lambda: rng.randint(-9, 9))
        if k % 4 == 3:
            a = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            for r in range(n):
                for c in range(r + 1, n):
                    a[r][c] = entry()
        else:
            a = [[entry() for _ in range(n)] for _ in range(n)]
        A = Matrix.from_ints(ring, a)
        table = A.principal_minors()
        if not all(table[s] == one for s in subsets):
            continue
        candidates += 1
        for m in range(2, SCAN_M_MAX + 1):
            power = A.pow(m).principal_minors()
            for s in subsets:
                if power[s] != one:
                    violations.append((a, m, list(s.members()), power[s]))
    violations.sort(key=lambda v: (tuple(map(tuple, v[0])), v[1], tuple(v[2])))
    return trials, candidates, [
        {"matrix": a, "m": m, "subset": s, "value": v} for a, m, s, v in violations
    ]


class Cli(Workload):
    """Short commands through the console entry point, one child process
    at a time (closed loop, one client).  The only workload that pays
    interpreter start, imports, argparse, matrixio and output."""

    percentiles = True
    rss_of_children = True
    reference_interval = math.inf  # once per pass, to leave time for commands
    setup_repeats = 15

    def __init__(self, ctx):
        self.root, self.env, self.python = ctx["root"], ctx["child_env"], sys.executable
        self.out_dir = ctx["out_dir"]
        self.files = []
        self.tracer = None  # set by the runner for the traced passes
        self.trace_path = self.out_dir / f"cli-{os.getpid()}-child-trace.json"

    def setup(self, mc, rng):
        r = mc.rings
        qa = r.FootnoteAlgebra()
        A = mc.matrix.Matrix(qa, [[tuple(rng.randrange(2) for _ in range(6)) for _ in range(4)]
                                  for _ in range(4)])
        B = mc.matrix.Matrix.from_ints(r.ModularRing(4),
                                       [[rng.randrange(4) for _ in range(5)] for _ in range(5)])
        files = []
        for name, M in (("minors", A), ("pow", B)):
            path = self.out_dir / f"cli-{os.getpid()}-{name}.json"
            path.write_text(json.dumps(mc.matrixio.matrix_to_json(M)), encoding="utf-8")
            files.append(str(path.relative_to(self.root)))
        self.files = files
        i5 = rng.randint(1, 5)
        i4, j4 = rng.sample(range(1, 5), 2)
        commands = [
            synth_command(i5),
            offdiag_command(i4, j4),
            ["minors", "--matrix", files[0]],
            ["pow-minors", "--matrix", files[1], "-m", "4"],
            counterexample_command(rng.choice((2, 3))),
            *FIXED_COMMANDS,
        ]
        # oracles for the seeded matrix files, from the library in-process
        self._expected = {
            " ".join(commands[2]): (sha256(minor_lines(A.principal_minors())), 0),
            " ".join(commands[3]): (sha256(minor_lines(B.pow(4).principal_minors())), 0),
        }
        return commands

    def reference_s(self) -> float:
        """One bare interpreter start: like the commands, it is mostly process
        creation, which a pure-Python loop does not track."""
        t0 = time.perf_counter()
        self.run([], "-c", "pass")
        return time.perf_counter() - t0

    def run(self, argv, *head):
        head = head or ("-c", ENTRY_POINT)
        proc = subprocess.run([self.python, *head, *argv], cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)
        return proc.stdout, proc.returncode

    def op(self, mc, argv):
        if self.tracer is None:
            return self.run(argv)
        out = self.trace_path
        idx = len(self.tracer.spans)
        result = self.tracer.call("cli.process", self.run, argv, TRACED_CHILD, str(out))
        data = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        self.tracer.add_child(idx, data["spans"], data["counts"])
        return result

    def check(self, mc, argv, out, golden):
        stdout, code = out
        key = " ".join(argv)
        if key in self._expected:
            digest, want_code = self._expected[key]
        else:
            digest, want_code = golden["cli"][key]["sha256"], golden["cli"][key]["exit"]
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if sha256(stdout) != digest:
            return "stdout differs from the expected output"
        return None

    def label(self, argv):
        return "minorcalc " + " ".join(argv)

    def cleanup(self):
        for f in self.files:
            (self.root / f).unlink(missing_ok=True)


def synth_command(i):
    return ["synth", "5", str(i), "6"]


def offdiag_command(i, j):
    return ["synth", "4", str(i), "5", "--j", str(j)]


def counterexample_command(base):
    return ["counterexample", "--base", str(base)]


FIXED_COMMANDS = (["example-cd"], ["scan", "--ring", "mod:2", "--n", "3", "--json"],
                  ["verify", "symbolic"])


def golden_cli_commands() -> list:
    """Every command the cli workload can draw that has a recorded digest."""
    return ([synth_command(i) for i in range(1, 6)]
            + [offdiag_command(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
            + [counterexample_command(b) for b in (2, 3)] + list(FIXED_COMMANDS))


def minor_lines(table) -> str:
    return "".join(f"p{s.label()} = {table.ring.render(v)}\n" for s, v in table.items())


WORKLOADS = {"synth": Synth, "verify": Verify, "scan": Scan, "cli": Cli}
