"""Record the reference digests in bench/golden.json.

    python3 bench/record_golden.py

Run it at a commit whose outputs are the reference: the benchmark fails
any operation whose output differs from these digests.  It records the
canonical strings of P[n,i,m] for n = 3..6, every i and m = 0..8, the
certificate JSON of every (i, j) pair the synth workload can draw, the
JSON reports of the exhaustive scans, and the stdout and exit code of
every CLI command with a seed-independent output set.  It takes about a
minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import ROOT, SRC, child_env, environment
from workloads import (ENTRY_POINT, KNOWN_CANDIDATES, SCAN_M_MAX, Synth, diag_key,
                       golden_cli_commands, offdiag_key, scan_key, sha256)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from minorcalc import scan, universal

    golden = {"src_sha256": environment()["src_sha256"], "poly": {}, "cert": {}, "scan": {},
              "cli": {}}
    for n in range(3, 7):
        for i in range(1, n + 1):
            for m in range(9):
                golden["poly"][diag_key(n, i, m)] = sha256(universal.synth_diag(n, i, m).serialize())
            universal.synth_diag.cache_clear()
    for n, m in Synth.OFFDIAG:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    cert = universal.synth_offdiag(n, i, j, m)
                    golden["cert"][offdiag_key(n, i, j, m)] = sha256(cert.to_json())
    for spec, n in KNOWN_CANDIDATES:
        golden["scan"][scan_key(spec, n)] = sha256(scan.run_scan(spec, n, SCAN_M_MAX).to_json())
    for argv in golden_cli_commands():
        proc = subprocess.run([sys.executable, "-c", ENTRY_POINT, *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, timeout=120)
        golden["cli"][" ".join(argv)] = {"sha256": sha256(proc.stdout), "exit": proc.returncode}
    path = ROOT / "bench" / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
