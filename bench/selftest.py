"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload once at tiny scale, untraced and traced, each in a
fresh process, and checks:

* the run exits 0 and its last line is exactly {correct, attempted,
  failed, metrics};
* every metric BENCHMARK.json names for that mode is there, with its unit
  and a finite number;
* no job failed its check (failed_ratio == 0);
* the work counts of the untraced and the traced run of the same seed are
  equal.

Then it checks that the benchmark refuses to run, with a non-zero exit and
no result line, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def problems_with(spec, workload, trace, proc) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"], {}
    lines = proc.stdout.splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    found = []
    if set(result) != RESULT_KEYS:
        found.append(f"result keys {sorted(result)}")
    if result["failed"] != 0 or report["failed_ratio"] != 0 or not result["correct"]:
        found.append(f"failures: {report['failures'][:3]} missing: {report.get('missing_metrics')}")
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None:
            found.append(f"metric {m['name']} missing")
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            found.append(f"metric {m['name']} = {got}")
    return found, report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for w in spec["workloads"]:
        work = {}
        for trace in (0, 1):
            found, report = problems_with(spec, w["name"], trace, bench(ROOT, w["name"], trace))
            work[trace] = report.get("work")
            print(f"{w['name']:9s} trace={trace}  {'ok' if not found else 'FAIL'}")
            for p in found:
                print("    " + p)
            failed |= bool(found)
        if work[0] != work[1]:
            print(f"{w['name']:9s} work counts differ between the untraced and the traced run")
            failed = True

    bare = ROOT / ".bench_tmp" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        lines = proc.stdout.strip().splitlines()
        refused = proc.returncode != 0 and not (lines and lines[-1].startswith("{"))
        print(f"bare dir  {'ok' if refused else 'FAIL'} (exit {proc.returncode})")
        failed |= not refused
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
