"""Per-layer metrics, computed from one traced pass.

A traced pass leaves: the jobs it ran (kind, seconds, output), the tracer's
span summary and work counters, and the workload's probes (measurements
taken on their own after the pass).  Each metric below reads those and
returns None when the pass never exercised its layer; the runner then
takes it from a tiny pass of a workload that does.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import cli_report_bytes


@dataclass
class Pass:
    kinds: list[str]
    seconds: list[float]
    outputs: list
    summary: dict  # span name -> {calls, total_s, self_s}
    counts: dict
    probes: dict
    nproc: int
    workdir: str

    def busy(self, name: str) -> float | None:
        row = self.summary.get(name)
        return row["total_s"] if row else None

    def job_seconds(self, kind: str) -> float | None:
        secs = [s for k, s in zip(self.kinds, self.seconds) if k == kind]
        return sum(secs) if secs else None

    def job_output(self, kind: str):
        return self.outputs[self.kinds.index(kind)] if kind in self.kinds else None


def _div(a, b):
    return a / b if a is not None and b else None


def _machine(p: Pass):
    calls, steps, busy = p.counts["machine.run.calls"], p.counts["machine.run.steps"], p.busy("machine.run")
    return {
        "machine.run.calls": calls or None,
        "machine.run.steps": steps if calls else None,
        "machine.steps_per_s": _div(steps, busy),
        "machine.us_per_call": _div(busy and busy * 1e6, calls),
    }


def _enumeration(p: Pass):
    yielded = p.counts["enumeration.programs.yielded"]
    return {
        "enumeration.programs.yielded": yielded or None,
        "enumeration.programs.busy_s": p.busy("enumeration.programs") if yielded else None,
        "enumeration.dovetail.busy_s": p.busy("enumeration.dovetail"),
    }


def _prior(p: Pass):
    visited, canonical = p.counts["prior.sweep.visited"], p.counts["prior.sweep.canonical"]
    out = {
        "prior.sweep.visited": visited or None,
        "prior.sweep.canonical": canonical if visited else None,
        "prior.sweep.useful_ratio": _div(canonical, visited),
        "prior.fraction.busy_s": p.probes.get("prior.fraction.busy_s") if canonical else None,
    }
    one = p.job_output("mc-w1")
    if one is None:
        return out | dict.fromkeys(["prior.mc.us_per_sample", "prior.mc.seed_us", "prior.mc.run_us", "prior.mc.hits"])
    samples = next(iter(one.values())).samples
    per_sample = p.job_seconds("mc-w1") * 1e6 / samples
    seed_us = p.probes["prior.mc.seed_us"]
    return out | {
        "prior.mc.us_per_sample": per_sample,
        "prior.mc.seed_us": seed_us,
        "prior.mc.run_us": per_sample - seed_us,
        "prior.mc.hits": sum(e.hits for e in one.values()),
    }


def _complexity(p: Pass):
    c = p.counts
    searches, scanned = c["complexity.search.searches"], c["complexity.search.programs_scanned"]
    busy = [p.busy("complexity.shortest_program_upper_bound"), p.busy("complexity.conditional_upper_bound")]
    return {
        "complexity.search.programs_scanned": scanned or None,
        "complexity.search.us_per_program": _div(sum(b or 0.0 for b in busy) * 1e6, scanned),
        "complexity.search.found_ratio": _div(c["complexity.search.found"], searches),
        "complexity.census.busy_s": p.busy("complexity.compressibility_census"),
    }


def _coding(p: Pass):
    c = p.counts
    entropy = p.job_output("entropy")
    excess = None
    if entropy is not None:
        bits, encoded, decoded = entropy
        excess = (len(encoded) - bits) / len(decoded)
    return {
        "coding.roundtrip.us_per_symbol": _div(p.busy("coding.arithmetic_roundtrip"), c["coding.roundtrip.symbols"] / 1e6),
        "coding.shannon.us_per_symbol": _div(p.busy("coding.shannon_code_length"), c["coding.shannon.symbols"] / 1e6),
        "coding.excess_bits_per_symbol": excess,
    }


def _ssa(p: Pass):
    def per_step(kind):
        out = p.job_output(kind)
        if out is None:
            return None
        traces = out if isinstance(out, list) else [out]
        return p.job_seconds(kind) * 1e6 / sum(tr.total_steps for tr in traces)

    learned = p.counts["ssa.run_learner.calls"]
    return {
        "ssa.learner.us_per_step": per_step("learner"),
        "ssa.baseline.us_per_step": per_step("baseline"),
        "ssa.pops": p.counts["ssa.pops"] if learned else None,
        "ssa.events": p.counts["ssa.events"] if learned else None,
    }


def _workers(p: Pass):
    speedup = _div(p.job_seconds("mc-w1"), p.job_seconds("mc-wn"))
    return {
        "workers.speedup": speedup,
        "workers.efficiency": _div(speedup, p.nproc),
        "workers.chunks": p.counts["workers.chunks"] or None,
        "workers.pool_start_s": p.probes.get("workers.pool_start_s"),
    }


def _multiverse(p: Pass):
    return {"multiverse.dedup.busy_s": p.busy("multiverse.dedup_universes")}


def _cli(p: Pass):
    pairs = [("cli-enumerate", "enumerate"), ("cli-ssa", "ssa-trace")]
    if not any(cli in p.kinds for cli, _ in pairs):
        return {"cli.emit_s": None, "cli.report_bytes": None}
    emit = sum(p.job_seconds(cli) - p.job_seconds(api) for cli, api in pairs)
    return {"cli.emit_s": emit, "cli.report_bytes": cli_report_bytes(p.kinds, p.outputs, p.workdir)}


LAYERS = [_machine, _enumeration, _prior, _complexity, _coding, _ssa, _workers, _multiverse, _cli]


def layer_metrics(p: Pass) -> dict:
    out: dict = {}
    for layer in LAYERS:
        out.update(layer(p))
    return out
