"""Benchmark of the omni workbench: one workload per run, seeded.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout: the package is imported from its `src/` tree and
nothing else, and scratch files go to `.bench_tmp/` inside the checkout.
Workloads, metric names and units are listed in BENCHMARK.json.

Times are in reference seconds.  Other tenants of the host slow Python
down by up to 2x for tens of seconds at a time, more than any bound a
20-second run could hold.  So a fixed calibration loop (benchmark code,
nothing from omni, about 6 ms) runs before the first job of a pass and
after each job, repeated for 2% of the longer neighbouring job's time,
and a job's seconds are scaled by CAL_REFERENCE_S over the mean of the
median loop times on either side of it.  A change that speeds omni up moves
reference seconds as it moves seconds; a busy neighbour moves neither.
The raw seconds of every pass are in the report.

One run:

1. Set-up: import every omni module afresh and build the seeded inputs.
   It is timed again (and thrown away) before every untraced pass;
   `setup_s` is the median of all of them.
2. A warm-up pass over the job list with work counters on (no clock
   reads).  Its counters are the run's work counts, and its outputs are
   the reference every later pass must reproduce.
3. Closed-loop passes, one client, until the next pass would end after
   `--seconds`.  With --trace 0 every pass is untraced and gives the
   end-to-end metrics.  `wall_s` is the median pass.  A job's latency is
   its median over the passes; `job_p50_s` is the median of those over
   the job list, and `job_tail_s` the highest percentile with at least
   ten jobs beyond it, which is the slowest job for lists of fewer than
   twenty.  (Pooling every pass's latencies instead would put the tail
   rank in a different job kind depending on how many passes fit, and
   that depends on the host's speed.)
   With --trace 1 untraced and traced passes alternate: traced passes
   give the per-layer metrics, and the gap between the two kinds is the
   tracing overhead.  Per-layer times are reference seconds as well.
   Each pass's outputs are checked right after it, outside its timed
   region.
4. --trace 1 only: a layer this workload never calls is measured on a
   tiny pass of the first workload that does.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full report as JSON, with machine
facts, work counts, job percentiles and span self times.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from layers import Pass, layer_metrics
from tracing import Instrumentation, Tracer
from workloads import WORKLOADS, nproc

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = ["machine", "enumeration", "multiverse", "complexity", "prior", "coding", "ssa", "workers", "cli"]
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
CAL_REFERENCE_S = 0.0055  # calibration_loop() on the reference host when it is quiet
CAL_SHARE = 0.02  # calibrate for this share of the neighbouring jobs' time
CAL_PROGRAM = [(i * 7) % 9 for i in range(60)]
CAL_HEAP = [(i, i & 7) for i in range(40_000)]  # a few MB: more than a core's private cache


def calibration_loop() -> float:
    """Seconds for a fixed interpreter-bound loop that uses nothing from
    omni: a toy register machine over a list, tuple keys into a dict, a
    walk over a few megabytes of small objects, and integer mixing.  Its
    time tracks how fast the host runs Python at this moment, including
    how much cache and memory bandwidth the neighbours leave it."""
    t0 = time.perf_counter()
    seen = {}
    for rep in range(300):
        out = []
        reg = 0
        for op in CAL_PROGRAM:
            if op < 3:
                out.append(op)
            elif op == 3:
                reg += 1
            elif op == 4:
                if reg:
                    reg -= 1
            elif op == 5:
                seen[(reg, len(out))] = rep
            else:
                out.append(reg & 1)
        seen[tuple(out[:6])] = "".join(map(str, out[:8]))
    acc = 0
    for a, b in CAL_HEAP:
        acc ^= a + b
    for i in range(15_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def calibrate(budget_s: float) -> float:
    """Median time of calibration_loop() over at least budget_s seconds
    (one loop at least): a long job gets a long look at the host's speed,
    which a few milliseconds of interference cannot skew."""
    times = [calibration_loop()]
    while sum(times) < budget_s:
        times.append(calibration_loop())
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two calibration loops into
    reference seconds: seconds on the reference host at its quiet speed."""
    return 2 * CAL_REFERENCE_S / (before + after)


def import_omni():
    """Import every omni module afresh from SRC."""
    for name in [m for m in sys.modules if m == "omni" or m.startswith("omni.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("omni." + m) for m in MODULES})


def setup(name, seed, tiny, workdir):
    """Import omni and build the workload's inputs; returns (seconds, om, plan)."""
    t0 = time.perf_counter()
    om = import_omni()
    plan = WORKLOADS[name](om, random.Random(seed), tiny, workdir)
    return time.perf_counter() - t0, om, plan


def remeasure_setup(name, seed, tiny, workdir) -> float:
    """Time one more set-up in reference seconds, then put the modules in
    use back, so the job closures, the wrappers and pickling keep seeing
    the same module objects."""
    kept = {k: v for k, v in sys.modules.items() if k == "omni" or k.startswith("omni.")}
    try:
        before = calibration_loop()
        seconds = setup(name, seed, tiny, workdir)[0]
        return seconds * scale(before, calibration_loop())
    finally:
        for k in [k for k in sys.modules if k == "omni" or k.startswith("omni.")]:
            del sys.modules[k]
        sys.modules.update(kept)


def digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


class Runner:
    """Runs passes over one plan and keeps the bookkeeping every pass shares:
    jobs attempted, failures, and the warm-up pass's reference outputs."""

    def __init__(self, workload, plan, om):
        self.workload = workload
        self.plan = plan
        self.om = om
        self.attempted = 0
        self.failures: list[dict] = []
        self.reference: list[str] | None = None
        self.cal_budgets = [0.0] * (len(plan.jobs) + 1)  # per calibration point

    def size_calibration(self, seconds: list[float]) -> None:
        """Give each calibration point CAL_SHARE of the longer of the two
        jobs around it, as timed in the warm-up pass."""
        padded = [0.0, *seconds, 0.0]
        self.cal_budgets = [CAL_SHARE * max(a, b) for a, b in zip(padded, padded[1:])]

    def run(self, tracer=None, calibrated=False):
        """One pass over the job list; returns (kinds, seconds, outputs,
        scales).  When calibrated, a calibration loop runs before the first
        job and after each one, and scales[i] turns job i's seconds into
        reference seconds; otherwise every scale is 1."""
        inst = Instrumentation(self.om, tracer).install() if tracer is not None else None
        kinds, seconds, outputs, errors = [], [], [], {}
        cal = [calibrate(self.cal_budgets[0])] if calibrated else None
        try:
            for i, job in enumerate(self.plan.jobs):
                t0 = time.perf_counter()
                try:
                    out = job.call() if tracer is None else tracer.call("job." + job.kind, job.call)
                except Exception:  # a failing job is counted, and the run goes on
                    out, errors[i] = None, traceback.format_exc(limit=3)
                seconds.append(time.perf_counter() - t0)
                kinds.append(job.kind)
                outputs.append(out)
                if cal is not None:
                    cal.append(calibrate(self.cal_budgets[i + 1]))
        finally:
            if inst is not None:
                inst.restore()
        self._check(kinds, outputs, errors)
        scales = [scale(a, b) for a, b in zip(cal, cal[1:])] if cal else [1.0] * len(kinds)
        return kinds, seconds, outputs, scales

    def _check(self, kinds, outputs, errors):
        self.attempted += len(kinds)
        bad = dict(errors)
        if not errors:
            bad.update(self.plan.check(outputs))
            digests = [digest(o) for o in outputs]
            if self.reference is None:
                self.reference = digests
            for i, (a, b) in enumerate(zip(digests, self.reference)):
                if a != b and i not in bad:
                    bad[i] = "output differs from the warm-up pass"
        for i, reason in sorted(bad.items()):
            self.failures.append({"workload": self.workload, "job": kinds[i], "reason": reason})


def tail(samples):
    """The highest percentile with TAIL_BEYOND samples above it (nearest
    rank); the maximum when that percentile would fall below the median,
    that is, with fewer than 2 * TAIL_BEYOND samples."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def median_layers(passes: list[dict]) -> dict:
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes if p[name] is not None]
        if not values:
            out[name] = None
        elif all(isinstance(v, int) for v in values):
            out[name] = statistics.median_low(values)  # counts stay whole
        else:
            out[name] = statistics.median(values)
    return out


def traced_layers(plan, tracer, kinds, seconds, outputs, scales, workdir):
    """Per-layer metrics of one traced pass, in reference seconds; the
    workload's probes run here, between two calibration loops."""
    before = calibration_loop()
    probes = plan.probes(tracer)
    f = scale(before, calibration_loop())
    probes = {k: v * f for k, v in probes.items()}
    summary = tracer.summary(scales)
    ref_seconds = [sec * g for sec, g in zip(seconds, scales)]
    return summary, layer_metrics(Pass(kinds, ref_seconds, outputs, summary, tracer.counts, probes, nproc(), str(workdir)))


def fill_from_other_workloads(layers, args, spec, om, runner, workdir) -> dict:
    """Fill the per-layer metrics this workload never exercised from one
    traced tiny pass of each other workload, in BENCHMARK.json order."""
    sources = {}
    for other in [w["name"] for w in spec["workloads"] if w["name"] != args.workload]:
        missing = [k for k, v in layers.items() if v is None]
        if not missing:
            break
        plan = WORKLOADS[other](om, random.Random(args.seed), True, workdir)
        filler = Runner(other, plan, om)
        tracer = Tracer()
        kinds, seconds, outputs, scales = filler.run(tracer, calibrated=True)
        _, filled = traced_layers(plan, tracer, kinds, seconds, outputs, scales, workdir)
        runner.attempted += filler.attempted
        runner.failures += filler.failures
        for k in missing:
            if filled[k] is not None:
                layers[k], sources[k] = filled[k], f"{other} (tiny)"
    return sources


def measure(args, spec, workdir):
    tiny = args.scale == "tiny"
    before = calibration_loop()
    setup_s, om, plan = setup(args.workload, args.seed, tiny, workdir)
    if Path(om.machine.__file__).resolve().parent != (SRC / "omni").resolve():
        raise SystemExit(f"omni was imported from {om.machine.__file__}, not from {SRC}")
    setups = [setup_s * scale(before, calibration_loop())]
    runner = Runner(args.workload, plan, om)

    counter = Tracer(timed=False)
    runner.size_calibration(runner.run(counter)[1])
    work = dict(sorted(counter.counts.items()))

    walls = {"untraced": [], "traced": []}  # reference seconds per pass
    raw_walls: list[float] = []
    slots: list[list[float]] = [[] for _ in plan.jobs]  # reference seconds per job, over passes
    layer_passes, summaries = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = args.trace == 1 and len(walls["traced"]) < len(walls["untraced"])
        t0 = time.perf_counter()
        if traced:
            tracer = Tracer()
            kinds, seconds, outputs, scales = runner.run(tracer, calibrated=True)
            if dict(sorted(tracer.counts.items())) != work:
                runner.failures.append({"workload": args.workload, "job": "*", "reason": "traced work counts differ from the warm-up pass"})
            summary, layers = traced_layers(plan, tracer, kinds, seconds, outputs, scales, workdir)
            summaries.append(summary)
            layer_passes.append(layers)
        else:
            setups.append(remeasure_setup(args.workload, args.seed, tiny, workdir))
            kinds, seconds, outputs, scales = runner.run(calibrated=True)
            for slot, sec, f in zip(slots, seconds, scales):
                slot.append(sec * f)
            raw_walls.append(sum(seconds))
        walls["traced" if traced else "untraced"].append(sum(sec * f for sec, f in zip(seconds, scales)))
        del outputs
        longest = max(longest, time.perf_counter() - t0)
        enough = walls["untraced"] and (args.trace == 0 or walls["traced"])
        if enough and time.perf_counter() - start + longest > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_job = [statistics.median(slot) for slot in slots]
    p_tail, pct = tail(per_job)
    end_to_end = {
        "wall_s": statistics.median(walls["untraced"]),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": p_tail,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": statistics.median(setups),
    }
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "seconds": args.seconds,
        "facts": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": nproc(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
        },
        "end_to_end": end_to_end,
        "job_samples": sum(map(len, slots)),
        "job_tail_percentile": pct,
        "job_median_s": [[job.kind, m] for job, m in zip(plan.jobs, per_job)],
        "pass_walls_s": walls,
        "raw_pass_walls_s": raw_walls,
        "setup_s_each": setups,
        "work": work,
    }
    metrics = end_to_end
    if args.trace == 1:
        layers = median_layers(layer_passes)
        layers["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
        report["per_layer_from_other_workload"] = fill_from_other_workloads(layers, args, spec, om, runner, workdir)
        report["per_layer"] = layers
        report["trace_overhead_ratio"] = layers["trace.overhead_s"] / end_to_end["wall_s"]
        report["spans"] = {"traced_passes": len(summaries), "by_name": _total_summary(summaries)}
        metrics = layers
    report["failed_ratio"] = len(runner.failures) / runner.attempted
    report["failures"] = runner.failures[:20]

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    result = {
        "correct": not runner.failures and not missing,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] not in missing},
    }
    if missing:
        report["missing_metrics"] = missing
    return report, result


def _total_summary(summaries):
    """Span rows summed over the traced passes, largest self time first."""
    out = {}
    for s in summaries:
        for name, row in s.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full", help="tiny: self-test sizes")
    args = parser.parse_args(argv)

    if not (SRC / "omni" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no omni sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}\n")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("OMNI_SEED", None)  # the CLI would let it override --seed

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    e2e = report["end_to_end"]
    walls = report["pass_walls_s"]
    print(f"omni bench  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(walls['untraced'])}+{len(walls['traced'])} failed={result['failed']}/{result['attempted']}")
    print(f"  wall_s={e2e['wall_s']:.4f} job_p50_s={e2e['job_p50_s']:.4f} "
          f"job_tail_s={e2e['job_tail_s']:.4f} (p{report['job_tail_percentile']:.1f} of {len(report['job_median_s'])} jobs) "
          f"peak_rss_mib={e2e['peak_rss_mib']:.1f} setup_s={e2e['setup_s']:.4f}")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
