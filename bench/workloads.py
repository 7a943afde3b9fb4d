"""The four workloads: seeded inputs, a fixed job list, and output checks.

A workload turns the seed into inputs (random.Random(seed) and nothing
else), then hands one closed-loop client a job list to run in order.  Every
job is one call into the package, or one `omni` CLI invocation, looked up
on the module at call time so the traced run's wrappers see it.  A check
looks at the outputs of one pass over the list, outside the timed region,
and names the jobs whose output is wrong.

Sizes are the acceptance gate's or the ROADMAP's scales; `tiny` shrinks
every size for the self-test and for the traced run's fill-in passes.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from tracing import replay_fraction_sum

SYMBOLS = "01,"
TRACE_FILE = "ssa-trace.jsonl"  # the CLI ssa job's --trace output, in the run's workdir


@dataclass
class Job:
    kind: str
    call: Callable[[], object]


@dataclass
class Plan:
    jobs: list[Job]
    check: Callable[[list], dict[int, str]]  # outputs -> {job index: reason}
    # extra layer measurements taken after a traced pass: (tracer) -> {metric: value}
    probes: Callable[[object], dict] = field(default=lambda tracer: {})


def strings(lo: int, hi: int) -> list[str]:
    return ["".join(p) for n in range(lo, hi + 1) for p in itertools.product(SYMBOLS, repeat=n)]


def word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(SYMBOLS) for _ in range(n))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cli(om, argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = om.cli.main(argv)
    return code, buf.getvalue()


def _verifies(om, bound, aux=None) -> bool:
    """A witness, re-run on the plain machine, halts printing the target."""
    if bound.witness is None:
        return bound.k_hat is None
    variant = om.machine.T3 if aux is None else om.machine.T3C
    r = om.machine.run(bound.witness, bound.budget, variant=variant, aux=aux)
    return r.halted and r.output == bound.target and bound.k_hat == len(bound.witness)


# --------------------------------------------------------------------------
# sweep: exhaustive canonical-program sweeps.


def sweep(om, rng: random.Random, tiny: bool, workdir) -> Plan:
    L, B = (6, 200) if tiny else (10, 200)
    gap_L = 6 if tiny else 8
    compiler_L = (3, 4) if tiny else (6, 7)
    exact_targets = rng.sample(strings(1, 3), 2)
    gap_targets = rng.sample(strings(0, 2), 3)

    jobs = [
        Job("kraft", lambda: om.prior.kraft_sum(L - 2, B)),
        Job("kraft", lambda: om.prior.kraft_sum(L, B)),
    ]
    jobs += [Job("prior-exact", lambda t=t: om.prior.enumerate_prior(t, L, B)) for t in exact_targets]
    jobs += [Job("demo-compiler", lambda n=n: om.prior.compiler_prefix_check(n, 1000)) for n in compiler_L]
    jobs.append(Job("coding-gap", lambda: om.prior.coding_theorem_gap(gap_targets, gap_L, B)))

    def check(outs):
        bad = {}
        small, big = outs[0], outs[1]
        for i in (0, 1):
            if not outs[i].total_mass < 1:
                bad[i] = f"Kraft mass {float(outs[i].total_mass)} is not below 1"
        if big.total_mass < small.total_mass:
            bad[1] = "Kraft mass decreased as L grew"
        exact = [i for i, j in enumerate(jobs) if j.kind == "prior-exact"]
        if sum(outs[i].exact for i in exact) > big.total_mass:
            bad.update({i: "target masses sum above the Kraft mass" for i in exact})
        for i, j in enumerate(jobs):
            if j.kind == "demo-compiler" and not outs[i].ok:
                bad[i] = "compiler check reports counterexamples"
            if j.kind == "coding-gap":
                gaps = [e.gap for e in outs[i].entries]
                # 1e-9: -log3 of an exact power of 3 may round just above -k
                if None in gaps or max(gaps) > 1e-9:
                    bad[i] = f"coding gaps {gaps} not all <= 0"
        return bad

    def probes(tracer):
        return {"prior.fraction.busy_s": replay_fraction_sum(tracer.canonical_lengths)}

    return Plan(jobs, check, probes)


# --------------------------------------------------------------------------
# search: finite-mode first-witness searches.


def search(om, rng: random.Random, tiny: bool, workdir) -> Plan:
    L, B = (6, 10_000) if tiny else (10, 10_000)
    # Mostly 6-symbol targets: few have a witness within L=10, so most of
    # these searches scan the whole space with early kills, and the median
    # job is one of them.  The slowest jobs are three scans of the whole
    # space at L=11: a symbol repeated ten times needs a longer program.
    lengths = [2, 3] if tiny else [3, 4, 5] + [6] * 8
    kcomp = [word(rng, n) for n in lengths]
    cond = [(word(rng, 3 if tiny else 6), word(rng, 2 if tiny else 3)) for _ in range(1 if tiny else 2)]
    mutual = []
    while len(mutual) < (1 if tiny else 2):
        x, y = word(rng, 3 if tiny else 5), word(rng, 3 if tiny else 5)
        if x != y:
            mutual.append((x, y))
    census = (3, 1, 5) if tiny else (6, 2, 8)
    exhaustive = [s * (4 if tiny else 10) for s in SYMBOLS]
    ex_L, ex_B = (6, 1000) if tiny else (11, 1000)

    jobs = [Job("kcomp", lambda t=t: om.complexity.shortest_program_upper_bound(t, L, B)) for t in kcomp]
    jobs += [Job("kcomp-cond", lambda y=y, x=x: om.complexity.conditional_upper_bound(y, x, L, B)) for y, x in cond]
    jobs += [Job("mutual", lambda x=x, y=y: om.complexity.mutual_information_estimate(x, y, L, B)) for x, y in mutual]
    jobs.append(Job("census", lambda: om.complexity.compressibility_census(*census, B)))
    jobs += [Job("kcomp-exhaustive", lambda t=t: om.complexity.shortest_program_upper_bound(t, ex_L, ex_B)) for t in exhaustive]

    def check(outs):
        bad = {}
        for i, (j, out) in enumerate(zip(jobs, outs)):
            if j.kind in ("kcomp", "kcomp-exhaustive") and not _verifies(om, out):
                bad[i] = f"witness {out.witness!r} does not print {out.target!r}"
            elif j.kind == "kcomp-cond" and not _verifies(om, out, out.conditional_on):
                bad[i] = f"conditional witness {out.witness!r} does not print {out.target!r}"
            elif j.kind == "mutual":
                ok = _verifies(om, out.plain) and _verifies(om, out.conditional, out.x)
                if not ok or (out.value is not None and out.value < 0):
                    bad[i] = f"mutual information {out.value} or its witnesses are wrong"
            elif j.kind == "census" and not out.fraction < 3.0 ** -out.c:
                bad[i] = f"census fraction {out.fraction} is not below 3^-{out.c}"
        return bad

    return Plan(jobs, check)


# --------------------------------------------------------------------------
# sample: the Monte Carlo prior, sequential and fanned out.


def _noop(x):
    return x


def pool_start_seconds(workers: int) -> float:
    """Start a process pool as parallel_map does, get one trivial result
    from each worker, shut it down: the fixed cost of one fan-out."""
    t0 = time.perf_counter()
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
        list(ex.map(_noop, range(workers)))
    return time.perf_counter() - t0


def sample(om, rng: random.Random, tiny: bool, workdir) -> Plan:
    # 150k samples are three 50k chunks, so two workers cannot split them
    # evenly; workers.chunks shows why the speed-up stays below 2
    samples, B = (2_000, 200) if tiny else (150_000, 200)
    targets = rng.sample(strings(0, 2), 3)
    seed = rng.randrange(2**31)
    fan = nproc()
    jobs = [
        Job("mc-w1", lambda: om.prior.estimate_prior_mc_batch(targets, samples, B, seed, workers=1)),
        Job("mc-wn", lambda: om.prior.estimate_prior_mc_batch(targets, samples, B, seed, workers=fan)),
    ]
    exact: dict[str, float] = {}  # criterion 04's reference: exact mass at L=8
    residual = []  # and the mass L=8 leaves out, 1 - Kraft(8, B)

    def check(outs):
        if not residual:
            residual.append(float(1 - om.prior.kraft_sum(8, B).total_mass))
            exact.update({t: om.prior.enumerate_prior(t, 8, B).p_hat for t in targets})
        bad = {}
        one, many = outs
        if [one[t].hits for t in targets] != [many[t].hits for t in targets]:
            bad[1] = "hit counts differ between workers=1 and workers=nproc"
        for i, out in enumerate(outs):
            for t in targets:
                est = out[t]
                if abs(est.p_hat - exact[t]) > 4 * est.stderr + residual[0]:
                    bad[i] = f"p_hat {est.p_hat} for {t!r} is outside criterion 04's tolerance"
        return bad

    def probes(tracer):
        n = min(samples, 20_000)
        Random, sample_seed = random.Random, om.prior.sample_seed
        t0 = time.perf_counter()
        for i in range(n):
            Random(sample_seed(seed, i))
        seed_us = (time.perf_counter() - t0) * 1e6 / n
        return {"prior.mc.seed_us": seed_us, "workers.pool_start_s": pool_start_seconds(fan)}

    return Plan(jobs, check, probes)


# --------------------------------------------------------------------------
# lifetime: few long sequential runs, the coder, dovetailing, CLI emits.


def _chain(om, rng: random.Random, n: int):
    """A 4-state chain drawn as criterion 11 draws its models, and n states
    sampled from it; nothing is filtered."""
    alphabet = ["a", "b", "c", "d"]
    transitions, rows = {}, {}
    for a in alphabet:
        w = [rng.random() + 1e-3 for _ in alphabet]
        rows[a] = [x / sum(w) for x in w]
        transitions.update({(a, b): p for b, p in zip(alphabet, rows[a])})
    states = [rng.choice(alphabet)]
    for _ in range(n - 1):
        states.append(rng.choices(alphabet, rows[states[-1]])[0])
    return om.coding.NoiseModel(alphabet, transitions), states


def lifetime(om, rng: random.Random, tiny: bool, workdir) -> Plan:
    # Job sizes leave a wide gap on either side of the median job (the
    # coder round trip), so job_p50_s stays on that job from run to run.
    period = 1000
    steps = 3_000 if tiny else 30_000
    # The learner's cost follows its seed (pops and events), so the learner
    # job runs ten seeded lifetimes, as criterion 10 does, and its time
    # varies less between workload seeds; the baseline runs the first three.
    seeds = [rng.randrange(2**31) for _ in range(10)]
    model, states = _chain(om, rng, 500 if tiny else 22_000)
    loop, budget = "10,,00,0", 10_000 if tiny else 1_000_000  # INC MARK OUT0 LOOP: never halts
    dovetail_steps = 2**12 if tiny else 2**30
    prefix_len = rng.randrange(1, 4)
    rows = 1_000 if tiny else 100_000
    trace_steps = 2_000 if tiny else 60_000
    trace_seed = rng.randrange(2**31)
    trace_path = os.path.join(workdir, TRACE_FILE)

    def entropy():
        bits = om.coding.shannon_code_length(states, model)
        encoded, decoded = om.coding.arithmetic_roundtrip(states, model)
        return bits, encoded, decoded

    def dovetail_dedup():
        reg = om.enumeration.dovetail(dovetail_steps)
        return reg, om.multiverse.dedup_universes(reg, prefix_len)

    ssa_argv = ["ssa", "--period", str(period), "--lifetime", str(trace_steps),
                "--seed", str(trace_seed), "--trace", trace_path]
    jobs = [
        Job("learner", lambda: [om.ssa.run_learner(om.ssa.SwitchingBandit(period), steps, s, record_steps=False) for s in seeds]),
        Job("baseline", lambda: [om.ssa.uniform_baseline(om.ssa.SwitchingBandit(period), steps, s) for s in seeds[:3]]),
        Job("entropy", entropy),
        Job("long-run", lambda: om.machine.run(loop, budget, out_cap=om.enumeration.OUTPUT_CAP)),
        Job("dovetail-dedup", dovetail_dedup),
        # the direct API call behind each CLI job, so cli.emit_s can subtract it
        Job("enumerate", lambda: [{"k": k, "program": om.enumeration.index_to_program(k)} for k in range(1, rows + 1)]),
        Job("cli-enumerate", lambda: _cli(om, ["enumerate", "--from", "1", "--to", str(rows)])),
        Job("ssa-trace", lambda: om.ssa.run_learner(om.ssa.SwitchingBandit(period), trace_steps, trace_seed)),
        Job("cli-ssa", lambda: _cli(om, ssa_argv)),
    ]
    kinds = [j.kind for j in jobs]

    def check(outs):
        bad = {}
        out = dict(zip(kinds, outs))
        at = kinds.index
        for kind, traces in (("learner", out["learner"]), ("ssa-trace", [out["ssa-trace"]])):
            if not all(om.ssa.ssc_holds(tr.total_steps, tr.total_reward, tr.story) for tr in traces):
                bad[at(kind)] = "final story breaks the success-story criterion"
        if any(tr.pops or tr.total_steps != steps for tr in out["baseline"]):
            bad[at("baseline")] = "uniform baseline popped or ran short"
        bits, encoded, decoded = out["entropy"]
        if decoded != states or len(encoded) > bits + om.coding.CODER_SLACK_BITS:
            bad[at("entropy")] = f"round trip failed or {len(encoded)} bits > {bits:.1f} + slack"
        r = out["long-run"]
        if r.steps != budget or r.halted:
            bad[at("long-run")] = f"long run stopped after {r.steps} steps"
        reg, groups = out["dovetail-dedup"]
        members = sorted(k for g in groups for k in g.members)
        if members != sorted(reg.entries):
            bad[at("dovetail-dedup")] = "dedup groups do not partition the registry"
        listing = out["enumerate"]
        if len(listing) != rows or any(
            om.enumeration.program_to_index(row["program"]) != row["k"] for row in listing[:: max(1, rows // 1000)]
        ):
            bad[at("enumerate")] = "enumeration rows are not the shortlex bijection"
        code, text = out["cli-enumerate"]
        if code != 0 or json.loads(text) != {"schema": 1, "from": 1, "to": rows, "programs": listing}:
            bad[at("cli-enumerate")] = "CLI enumerate report differs from the API rows"
        code, text = out["cli-ssa"]
        api = out["ssa-trace"]
        want = {"schema": 1, **api.summary_json(), "period": period}
        if code != 0 or json.loads(text) != want or not _trace_matches(trace_path, api, period, trace_seed):
            bad[at("cli-ssa")] = "CLI ssa report or trace differs from the API run"
        return bad

    return Plan(jobs, check)


def _trace_matches(path, api, period, seed) -> bool:
    header = {"schema": 1, "kind": "learner-trace", "period": period, "steps": api.total_steps, "seed": seed}
    with open(path) as f:
        if json.loads(next(f)) != header:
            return False
        n = 0
        for line, row in zip(f, api.jsonl_rows()):
            if json.loads(line) != row:
                return False
            n += 1
        if next(f, None) is not None:
            return False
    return n == api.total_steps


WORKLOADS = {"sweep": sweep, "search": search, "sample": sample, "lifetime": lifetime}


def cli_report_bytes(kinds, outs, workdir) -> int:
    total = 0
    for kind, out in zip(kinds, outs):
        if kind.startswith("cli-"):
            total += len(out[1].encode())
            if kind == "cli-ssa":
                total += os.path.getsize(os.path.join(workdir, TRACE_FILE))
    return total

