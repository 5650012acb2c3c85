"""minorcalc benchmark: end-to-end and per-layer metrics for four workloads.

    python3 bench/run.py --workload synth|verify|scan|cli|all --seed N \
        --seconds S --trace 0|1

Runs from a source checkout: the package is imported from ``src/`` next
to this directory, never from site-packages, and the run fails without
printing a result when ``src/minorcalc`` is missing.  Inputs come only
from ``--seed``.  Set-up is repeated ``setup_repeats`` times, each with
a fresh import of the package, and reports the median.  The timed phase
repeats a pass over the workload's fixed operation list until
``--seconds`` have elapsed, one operation at a time; each set-up is
followed by passes while its share of the time lasts, and the previous
import is freed before the next one, so the peak RSS is that of a
single set-up.

The speed of a shared machine drifts by tens of percent within minutes,
which no median inside one run removes.  So the workload's reference (a
fixed pure-Python loop; a bare interpreter start for ``cli``) is timed
at the start of each pass and then at most every ``reference_interval``
seconds of operations, and ``wall_ref`` is one pass's time in multiples
of the reference time in force: each operation's time over its
reference, the median over the passes, summed over the operations.
The pure-Python reference loop is also timed just before and just after
each set-up (``cli`` too: its set-up runs in-process), and ``setup_s``
is the median over the set-ups of set-up time over the mean of those
two, in seconds of a machine on which the loop takes
REFERENCE_NOMINAL_S.  Raw seconds (set-up times, ``wall_s``,
``ops_per_s``, per-op p50/p90) are printed beside them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the untraced phase gets half the
time, the same number of passes then run with spans around each layer,
and the line carries the per-layer metrics, as averages per pass.  Spans
are written to ``.bench_out/``.  ``--workload all`` runs each workload
in its own process and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer, layer_totals, write_trace
from workloads import WORKLOADS, cache_of, median_time, reference_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PROBES = 5
REFERENCE_NOMINAL_S = 0.010  # reference loop time that setup_s is scaled to
MODULES = ("rings", "poly", "series", "matrix", "universal", "matrixio", "scan", "cli")


def import_package():
    """Import minorcalc afresh, so each set-up pays the import."""
    for name in [n for n in sys.modules if n == "minorcalc" or n.startswith("minorcalc.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"minorcalc.{m}") for m in MODULES})


@dataclass
class Phase:
    """Passes of one phase: pass times, per-op times (pass-major), the
    reference time in force for each op, failures and cache misses."""

    times: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed: int = 0
    misses: list = field(default_factory=list)

    def median_pass(self, n_ops, normalized=False) -> float:
        """One pass's time, summed from each operation's median over the
        passes, so a burst of machine noise during one pass drops out.
        ``normalized`` divides each time by its reference time."""
        lat = self.latencies
        if normalized:
            lat = [t / ref for t, ref in zip(lat, self.refs)]
        return sum(statistics.median(lat[k::n_ops]) for k in range(n_ops))


def run_passes(w, mc, ops, golden, ph, until=None, count=None, tracer=None) -> Phase:
    """Add passes over ``ops`` to ``ph`` while the clock is before ``until``
    or until ``count`` passes are done."""
    count = None if count is None else len(ph.times) + count
    while (time.perf_counter() < until if count is None else len(ph.times) < count):
        w.before_pass(mc)
        gc.collect()
        lru = cache_of(mc, "synth_diag")
        misses0 = lru.cache_info().misses
        outs = []
        ref_at = None
        for k, item in enumerate(ops):
            if ref_at is None or time.perf_counter() - ref_at >= w.reference_interval:
                ref, ref_at = w.reference_s(), time.perf_counter()
            ph.refs.append(ref)
            t0 = time.perf_counter()
            try:
                if tracer:
                    tracer.op = len(ph.times) * len(ops) + k
                    out = tracer.call("bench.op", w.op, mc, item)
                else:
                    out = w.op(mc, item)
                err = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            ph.latencies.append(time.perf_counter() - t0)
            outs.append((item, out, err))
        ph.times.append(sum(ph.latencies[-len(ops):]))
        ph.misses.append(lru.cache_info().misses - misses0)
        errs = []
        for item, out, err in outs:
            try:
                err = err or w.check(mc, item, out, golden)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                errs.append(f"{w.label(item)}: {err}")
        pass_errs = w.pass_errors(mc)
        ph.failed += len(ops) if pass_errs else len(errs)
        ph.failures += errs + pass_errs
    return ph


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def probe_ms(code: str, parse=None) -> float:
    """Median over PROBES fresh interpreters: wall time of running
    ``code``, or the number it prints when ``parse`` is set."""
    values = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - t0
        values.append(float(proc.stdout) if parse else wall * 1000)
    return statistics.median(values)


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "minorcalc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def percentile_line(latencies) -> str:
    cuts = statistics.quantiles(latencies, n=10)
    p90 = cuts[8]
    beyond = sum(x > p90 for x in latencies)
    return (f"op_p50_ms {statistics.median(latencies) * 1000:.3f} ms, op_p90_ms "
            f"{p90 * 1000:.3f} ms (samples {len(latencies)}, beyond p90 {beyond})")


def layer_metrics(names, untraced, traced, tracer) -> dict:
    """Per-layer values per traced pass.  ``X.self_s`` is the self time of
    span X, ``X.calls`` its span count (or a counter of that name), and
    any other name a counter."""
    times = traced.times
    n = len(times)
    calls, self_s = layer_totals(tracer.spans)
    counts = tracer.counts
    counts["universal.synth_diag.misses"] += sum(traced.misses)

    def total(name):
        if name.endswith(".self_s"):
            return self_s.get(name[: -len(".self_s")], 0.0)
        if name.endswith(".calls") and name[: -len(".calls")] in calls:
            return calls[name[: -len(".calls")]]
        return counts.get(name, 0)

    out = {name: total(name) / n for name in names}
    matrices, scan_s = counts["scan.matrices"], self_s.get("scan.run_scan", 0.0)
    out["scan.candidate_ratio"] = counts["scan.candidates"] / matrices if matrices else 0.0
    out["scan.matrices_per_s"] = matrices / scan_s if scan_s else 0.0
    layers = sum(v for k, v in self_s.items() if k != "bench.op")
    out["trace.wall_s"] = sum(times) / n
    out["bench.self_s"] = (sum(times) - layers) / n
    n_ops = len(traced.latencies) // n
    out["trace.overhead_frac"] = (traced.median_pass(n_ops, normalized=True)
                                  / untraced.median_pass(n_ops, normalized=True) - 1)
    out["cli.interp_ms"] = probe_ms("pass")
    out["cli.import_ms"] = probe_ms(
        "import time; t = time.perf_counter(); import minorcalc.cli; "
        "print((time.perf_counter() - t) * 1000)", parse=True)
    return out


def run_workload(args, spec) -> int:
    load_before = os.getloadavg()
    env = environment()
    golden = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    ctx = {"root": ROOT, "out_dir": OUT_DIR, "child_env": child_env()}
    w = WORKLOADS[args.workload](ctx)
    setup_times, setup_refs, setup_errs = [], [], []
    untraced, traced = Phase(), None
    seconds = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    try:
        # Set-ups and untraced passes take turns, each set-up followed by
        # passes while its share of the time lasts, so the set-up samples
        # spread over the run instead of meeting one burst of machine
        # noise together.
        for k in range(w.setup_repeats):
            # The previous import's caches are freed first, or the peak
            # RSS would hold two copies of them.
            mc = ops = None
            gc.collect()
            ref0 = median_time(reference_loop)
            t0 = time.perf_counter()
            mc = import_package()
            ops = w.setup(mc, random.Random(args.seed))
            setup_times.append(time.perf_counter() - t0)
            gc.collect()  # or the loop pays for collecting the set-up's objects
            setup_refs.append((ref0 + median_time(reference_loop)) / 2)
            setup_errs += w.setup_errors(mc, golden)
            run_passes(w, mc, ops, golden, untraced,
                       until=start + seconds * (k + 1) / w.setup_repeats)
        if not untraced.times:  # set-up alone took all the time
            run_passes(w, mc, ops, golden, untraced, count=1)
        if args.trace:
            tracer = Tracer()
            tracer.install([getattr(mc, m) for m in MODULES])
            w.tracer = tracer
            traced = Phase()
            try:
                run_passes(w, mc, ops, golden, traced, count=len(untraced.times),
                           tracer=tracer)
            finally:
                tracer.uninstall()
    finally:
        w.cleanup()

    phases = [p for p in (untraced, traced) if p]
    attempted = sum(len(p.latencies) for p in phases)
    failures = setup_errs + [f for p in phases for f in p.failures]
    failed = attempted if setup_errs else sum(p.failed for p in phases)
    times, latencies = untraced.times, untraced.latencies
    if args.trace:
        metrics = spec["per_layer"]
        values = layer_metrics([m["name"] for m in metrics], untraced, traced, tracer)
    else:
        who = resource.RUSAGE_CHILDREN if w.rss_of_children else resource.RUSAGE_SELF
        values = {
            "setup_s": REFERENCE_NOMINAL_S * statistics.median(
                t / ref for t, ref in zip(setup_times, setup_refs)),
            "wall_ref": untraced.median_pass(len(ops), normalized=True),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        metrics = spec["end_to_end"]
    env["loadavg_before"], env["loadavg_after"] = load_before, os.getloadavg()
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_trace(path, {"workload": args.workload, "seed": args.seed, **env},
                    tracer.spans, tracer.counts)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        shares = sorted(((v, k) for k, v in values.items() if k.endswith(".self_s")), reverse=True)
        print("share of traced wall_s: " + ", ".join(
            f"{k[:-7]} {v / values['trace.wall_s']:.1%}" for v, k in shares if v > 0))

    print("env: " + json.dumps(env))
    print(f"workload {args.workload}, seed {args.seed}, {len(ops)} ops per pass")
    print("set-up s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print("set-up reference ms: " + " ".join(f"{r * 1000:.3f}" for r in setup_refs))
    print("untraced pass s: " + " ".join(f"{t:.4f}" for t in times))
    for err in failures[:20]:
        print(f"FAIL {err}")
    if not args.trace:
        wall = untraced.median_pass(len(ops))
        print(f"wall_s {wall:.4f} s, ops_per_s {len(ops) / wall:.4f} 1/s, reference "
              f"{statistics.median(untraced.refs) * 1000:.3f} ms")
        if w.percentiles:
            print(percentile_line(latencies))
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    for name, entry in result.items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        status |= not result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in proc.stdout.splitlines():
            if line.startswith(("wall_s", "op_p50_ms", "failed_frac", "FAIL")):
                print(f"  {line}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:36s} {entry['value']:.6g} {entry['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "minorcalc" / "__init__.py").is_file():
        print(f"error: no minorcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
