"""Spans and work counters recorded around calls into the omni package.

Nothing here edits the package: `Instrumentation` swaps module attributes
for wrappers while a pass runs and puts the originals back afterwards.
Wrapping a name in the module that defines it also catches the package's
own calls to it, because those look the name up in the module globals at
call time (kraft_sum -> canonical_programs, coding_theorem_gap ->
shortest_program_upper_bound, cli -> ssa.run_learner, ...).

Two kinds of record:

* a span for each call into a public function and for each benchmark job:
  name, start, end and the index of the enclosing span;
* a roll-up for hot leaf calls (one machine run, one enumerated program),
  which happen up to a million times a pass: call count and summed
  duration per (enclosing span, name).  Leaves never nest inside each
  other, so the enclosing span's self time is its duration minus its child
  spans minus its child roll-ups.

Both stay in memory until the run ends.  Every leaf runs inside a job
span, since the runner opens one per job.  A Tracer made with timed=False
keeps only the work counters: no clock reads, no spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from fractions import Fraction

clock = time.perf_counter_ns


class Tracer:
    """Spans, roll-ups and work counters of one pass."""

    def __init__(self, timed: bool = True):
        self.timed = timed
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.rollups: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        self.counts: Counter = Counter()
        self.canonical_lengths: list[Counter] = []  # one per canonical sweep
        self.open = -1

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        if not self.timed:
            return fn(*args, **kwargs)
        rec = [name, clock(), 0, self.open]
        self.open = len(self.spans)
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            self.open = rec[3]

    def leaf(self, name, fn, *args, **kwargs):
        """Run fn as a hot leaf: rolled up under the open span."""
        if not self.timed:
            return fn(*args, **kwargs)
        t0 = clock()
        result = fn(*args, **kwargs)
        dt = clock() - t0
        node = self.rollups[(self.open, name)]
        node[0] += 1
        node[1] += dt
        return result

    def items(self, name, gen, keys):
        """Re-yield gen, rolling each next() up as a leaf call named `name`
        and counting each item under every counter in `keys`."""
        counts = self.counts
        if not self.timed:
            for x in gen:
                for k in keys:
                    counts[k] += 1
                yield x
            return
        rollups = self.rollups
        nxt = iter(gen).__next__
        while True:
            t0 = clock()
            try:
                x = nxt()
            except StopIteration:
                return
            dt = clock() - t0
            node = rollups[(self.open, name)]
            node[0] += 1
            node[1] += dt
            for k in keys:
                counts[k] += 1
            yield x

    def summary(self, job_scales: list[float]) -> dict[str, dict]:
        """Per name: calls, inclusive seconds and self seconds.  Job spans
        are the roots, in job order; every duration under job i is
        multiplied by job_scales[i] (reference seconds)."""
        factor = []
        child = [0.0] * len(self.spans)
        roots = 0
        for name, start, end, parent in self.spans:
            if parent < 0:
                factor.append(job_scales[roots] / 1e9)
                roots += 1
            else:
                factor.append(factor[parent])
                child[parent] += (end - start) * factor[parent]
        for (parent, _), (_, ns) in self.rollups.items():
            child[parent] += ns * factor[parent]
        out: dict[str, dict] = {}

        def row(name):
            return out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        for i, (name, start, end, _) in enumerate(self.spans):
            r = row(name)
            r["calls"] += 1
            r["total_s"] += (end - start) * factor[i]
            r["self_s"] += (end - start) * factor[i] - child[i]
        for (parent, name), (calls, ns) in self.rollups.items():
            r = row(name)
            r["calls"] += calls
            r["total_s"] += ns * factor[parent]
            r["self_s"] += ns * factor[parent]
        return out


def replay_fraction_sum(canonical_lengths: list[Counter]) -> float:
    """Seconds to add 3^-|p| as an exact Fraction for every canonical
    program of every sweep, in shortlex (nondecreasing length) order: the
    accumulation kraft_sum does inline, timed on its own."""
    t0 = clock()
    for lengths in canonical_lengths:
        mass = Fraction(0)
        for n in sorted(lengths):
            for _ in range(lengths[n]):
                mass += Fraction(1, 3**n)
    return (clock() - t0) / 1e9


# Public functions that get a span, as (module, attribute).  The span is
# named "<module>.<attribute>".
SPANNED = [
    ("enumeration", "dovetail"),
    ("multiverse", "dedup_universes"),
    ("complexity", "shortest_program_upper_bound"),
    ("complexity", "conditional_upper_bound"),
    ("complexity", "mutual_information_estimate"),
    ("complexity", "compressibility_census"),
    ("prior", "kraft_sum"),
    ("prior", "enumerate_prior"),
    ("prior", "compiler_prefix_check"),
    ("prior", "coding_theorem_gap"),
    ("prior", "estimate_prior_mc_batch"),
    ("coding", "shannon_code_length"),
    ("coding", "arithmetic_roundtrip"),
    ("ssa", "run_learner"),
    ("ssa", "uniform_baseline"),
]

# Where a module imported workers.parallel_map under its own name, plus the
# home module (complexity imports it from there at call time).
PARALLEL_MAP_SITES = ["workers", "prior", "enumeration"]


class Instrumentation:
    """Install wrappers that feed one Tracer; restore() undoes them."""

    def __init__(self, om, tracer: Tracer):
        self.om = om
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def _patch(self, module_name, attr, make):
        module = getattr(self.om, module_name)
        orig = getattr(module, attr)
        self.saved.append((module, attr, orig))
        setattr(module, attr, functools.wraps(orig)(make(orig)))

    def install(self) -> "Instrumentation":
        tr = self.tracer
        counts = tr.counts
        for module_name, attr in SPANNED:
            name = f"{module_name}.{attr}"
            note = _NOTES.get(name)

            def make(orig, name=name, note=note):
                def wrapper(*args, **kwargs):
                    result = tr.call(name, orig, *args, **kwargs)
                    counts[name + ".calls"] += 1
                    if note is not None:
                        note(self.om, counts, args, result)
                    return result

                return wrapper

            self._patch(module_name, attr, make)

        def make_parallel_map(orig):
            def wrapper(fn, items, workers=1, chunksize=None):
                items = list(items)
                counts["workers.calls"] += 1
                counts["workers.items"] += len(items)
                if workers > 1:
                    counts["workers.chunks"] += len(items)
                return tr.call("workers.parallel_map", orig, fn, items, workers, chunksize)

            return wrapper

        for module_name in PARALLEL_MAP_SITES:
            self._patch(module_name, "parallel_map", make_parallel_map)

        def make_run(orig):
            def wrapper(*args, **kwargs):
                r = tr.leaf("machine.run", orig, *args, **kwargs)
                counts["machine.run.calls"] += 1
                counts["machine.run.steps"] += r.steps
                return r

            return wrapper

        self._patch("machine", "run", make_run)
        self._patch("prior", "run", make_run)

        def make_programs(orig, keys):
            def wrapper(*args, **kwargs):
                return tr.items("enumeration.programs", orig(*args, **kwargs), keys)

            return wrapper

        yielded = "enumeration.programs.yielded"
        self._patch("prior", "programs", lambda f: make_programs(f, (yielded, "prior.sweep.visited")))
        self._patch("complexity", "programs", lambda f: make_programs(f, (yielded,)))

        def make_canonical(orig):
            def wrapper(*args, **kwargs):
                lengths = Counter()
                tr.canonical_lengths.append(lengths)
                for p, out in orig(*args, **kwargs):
                    counts["prior.sweep.canonical"] += 1
                    lengths[len(p)] += 1
                    yield p, out

            return wrapper

        self._patch("prior", "canonical_programs", make_canonical)
        return self

    def restore(self) -> None:
        for module, attr, orig in reversed(self.saved):
            setattr(module, attr, orig)
        self.saved.clear()


def _search(om, counts, args, r):
    # programs scanned: the witness's shortlex index, or every program up
    # to L when there is none
    counts["complexity.search.searches"] += 1
    if r.witness is None:
        scanned = (3 ** (r.max_len + 1) - 1) // 2
    else:
        counts["complexity.search.found"] += 1
        scanned = om.enumeration.program_to_index(r.witness)
    counts["complexity.search.programs_scanned"] += scanned


def _mc(om, counts, args, r):
    counts["prior.mc.samples"] += next(iter(r.values())).samples
    counts["prior.mc.hits"] += sum(e.hits for e in r.values())


def _symbols(key):
    def note(om, counts, args, r):
        counts[key] += len(args[0])

    return note


def _learner(om, counts, args, r):
    counts["ssa.steps"] += r.total_steps
    counts["ssa.pops"] += r.pops
    counts["ssa.events"] += len(r.events)


def _dovetail(om, counts, args, r):
    counts["enumeration.dovetail.programs"] += len(r.entries)
    counts["enumeration.dovetail.steps"] += r.total_steps


def _dedup(om, counts, args, r):
    counts["multiverse.dedup.groups"] += len(r)


_NOTES = {
    "complexity.shortest_program_upper_bound": _search,
    "complexity.conditional_upper_bound": _search,
    "prior.estimate_prior_mc_batch": _mc,
    "coding.shannon_code_length": _symbols("coding.shannon.symbols"),
    "coding.arithmetic_roundtrip": _symbols("coding.roundtrip.symbols"),
    "ssa.run_learner": _learner,
    "enumeration.dovetail": _dovetail,
    "multiverse.dedup_universes": _dedup,
}
