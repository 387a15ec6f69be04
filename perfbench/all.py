"""Run every workload, each in a fresh process, and print all metrics.

    python3 perfbench/all.py

For each workload: an untraced run at the default seed and at seed 1
(end-to-end metrics and error rate), then a traced run at the default seed
(per-layer metrics, per-report times, tracing overhead, and the check that
traced reports are byte-identical to untraced ones).  Exits nonzero if any
run fails or reports an error.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OTHER_SEED = 1


def run_one(workload: str, seed: int, trace: int, seconds: float):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, lines
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        for seed, trace in ((DEFAULT_SEED, 0), (OTHER_SEED, 0), (DEFAULT_SEED, 1)):
            result, table = run_one(workload, seed, trace, seconds)
            print(f"== {workload}  seed {seed}  trace {trace}")
            if result is None:
                print("   run failed:\n   " + "\n   ".join(table))
                ok = False
                continue
            ok = ok and result["correct"] and result["failed"] == 0
            print("\n".join("   " + ln for ln in table if not ln.startswith("provenance")))
            if not trace:
                for name, m in result["metrics"].items():
                    print(f"   result {name:25s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
