"""The names and result fields the benchmark relies on stay in the package.

bench/tracing.py wraps named module attributes (getattr, then setattr)
and reads fields of what they return, on every benchmark run; a name or
field gone from the package fails every workload.  This test installs the
same wrappers, makes one call of each kind the wrappers count, and checks
that restore() leaves every module as it found it.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def _bench_module(name):
    # bench/ is only read: no bytecode cache is written there
    sys.path.insert(0, BENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(BENCH)


def test_benchmark_wrappers_install_count_and_restore():
    run = _bench_module("run")
    tracing = _bench_module("tracing")
    # the namespace run.import_omni builds, without dropping the modules
    # the other tests already hold
    om = SimpleNamespace(**{m: importlib.import_module("omni." + m) for m in run.MODULES})
    before = {m: dict(vars(getattr(om, m))) for m in run.MODULES}
    tracer = tracing.Tracer(timed=False)
    inst = tracing.Instrumentation(om, tracer)
    try:
        inst.install()
        om.prior.compiler_prefix_check(3, 100)
        trace = om.ssa.run_learner(om.ssa.SwitchingBandit(10), 200, 0, record_steps=False)
        reg = om.enumeration.dovetail(64)
        om.multiverse.dedup_universes(reg, 2)
        om.complexity.compressibility_census(3, 1, 1, 10)
    finally:
        inst.restore()
    assert {m: dict(vars(getattr(om, m))) for m in run.MODULES} == before
    counts = tracer.counts
    assert counts["prior.sweep.visited"] > 0 and counts["prior.sweep.canonical"] > 0
    # each of the 40 programs of up to 3 symbols once, through prior.programs
    assert counts["prior.sweep.visited"] == 40
    assert counts["ssa.steps"] == 200
    assert counts["ssa.events"] == len(trace.events)
    assert set(trace.events) <= {"begin", "end", "pop", "noop", "final"}
    assert counts["enumeration.dovetail.programs"] == len(reg.entries)
    assert counts["multiverse.dedup.groups"] > 0
    # the dovetail's 7 items and the census's nine two-symbol subtrees: the
    # census imports parallel_map at call time, so the wrapper sees it
    assert counts["workers.items"] == 7 + 9
