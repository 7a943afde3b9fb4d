"""Command line front end.

One report path: each subcommand maps its parsed arguments to its report,
and main alone serializes the report and writes it to --out or stdout.  A
report is a dict, written as JSON with "schema": 1, or text chunks written
as they come: enumerate's JSON and dovetail's JSONL, whose header line
carries the schema.  Exit codes: 0 success, 1 usage error, 2 guarded runtime
error (bad program text, zero-probability state, snapshot/prefix mismatch,
a run printing more than 2^20 symbols, and similar).

OMNI_SEED in the environment overrides --seed wherever a seed is consumed,
so sweeps can be re-pointed without editing scripts.  Identical invocations
produce byte-identical output, regardless of --workers.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import complexity, enumeration, machine, multiverse, prior, ssa
from .coding import arithmetic_roundtrip, fit_noise_model, shannon_code_length


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # guarded runtime errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache  # one parser per process: building it costs more than a small report
def _build_parser() -> _Parser:
    p = _Parser(prog="omni", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    modes = sorted((machine.FINITE, machine.LAZY))
    variants = sorted((machine.T3, machine.T3C, machine.DUAL))
    walked = sorted((machine.T3, machine.DUAL))  # the variants with canonical programs
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report here instead of stdout")
    sized = argparse.ArgumentParser(add_help=False, parents=[out])
    sized.add_argument("--max-len", dest="max_len", type=int, required=True)
    sized.add_argument("--budget", type=int, required=True)

    def add(name, report, help_text, parent=out):
        sp = sub.add_parser(name, help=help_text, parents=[parent])
        sp.set_defaults(report=report)
        return sp

    sp = add("enumerate", _enumerate, "list programs by index in the shortlex bijection")
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="stop", type=int, required=True)

    sp = add("run", _run, "run one program and report the outcome")
    sp.add_argument("--program", required=True)
    sp.add_argument("--max-steps", type=int, default=1000)
    sp.add_argument("--mode", choices=modes, default=machine.FINITE)
    sp.add_argument("--variant", choices=variants, default=machine.T3)
    sp.add_argument("--aux", default=None)

    sp = add(
        "dovetail",
        lambda a: [
            json.dumps(row) + "\n"
            for row in enumeration.dovetail(a.steps, mode=a.mode, workers=a.workers).snapshot_rows()
        ],
        "share steps across all programs, snapshot the registry",
    )
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--mode", choices=modes, default=machine.FINITE)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("dedup", _dedup, "group registry entries by output prefix")
    sp.add_argument("--snapshot", required=True)
    sp.add_argument("--prefix-len", dest="prefix_len", type=int, required=True)

    sp = add(
        "census",
        lambda a: complexity.compressibility_census(
            a.n, a.c, a.max_len, a.budget, workers=a.workers
        ).to_json(),
        "fraction of n-symbol outputs compressible by c",
        sized,
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("kcomp", _kcomp, "shortest-program upper bound for a target", sized)
    sp.add_argument("--target", required=True)
    sp.add_argument("--cond", default=None, help="condition on this string via the aux tape")

    sp = add(
        "mutual",
        lambda a: complexity.mutual_information_estimate(a.x, a.y, a.max_len, a.budget).to_json(),
        "algorithmic mutual information estimate",
        sized,
    )
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)

    sp = add(
        "prior",
        lambda a: prior.estimate_prior_mc(
            a.target, a.samples, a.budget, _seed(a), workers=a.workers
        ).to_json(),
        "Monte Carlo prior mass of a target output",
    )
    sp.add_argument("--target", required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)

    sp = add(
        "prior-exact",
        lambda a: prior.enumerate_prior(a.target, a.max_len, a.budget, a.variant).to_json(),
        "enumerated prior mass of a target output",
        sized,
    )
    sp.add_argument("--target", required=True)
    sp.add_argument("--variant", choices=walked, default=machine.T3)

    sp = add(
        "kraft",
        lambda a: prior.kraft_sum(a.max_len, a.budget, a.variant).to_json(),
        "total canonical program mass up to a length cap",
        sized,
    )
    sp.add_argument("--variant", choices=walked, default=machine.T3)

    sp = add(
        "coding-gap",
        lambda a: prior.coding_theorem_gap(a.target, a.max_len, a.budget).to_json(),
        "compare -log3(prior mass) against shortest witnesses",
        sized,
    )
    sp.add_argument("--target", action="append", required=True)

    add(
        "demo-compiler",
        lambda a: prior.compiler_prefix_check(a.max_len, a.budget).to_json(),
        "hosting check for the one-symbol compiler prefix",
        sized,
    )

    sp = add("entropy", _entropy, "fit a bigram model to states and code them")
    sp.add_argument("--x", required=True, help="comma-separated state sequence")

    sp = add("ssa", _ssa, "run the self-modifying learner")
    sp.add_argument("--period", type=int, required=True)
    sp.add_argument("--lifetime", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", default=None, help="also write a JSONL step trace here")

    return p


def _seed(args) -> int:
    return int(os.environ.get("OMNI_SEED", args.seed))


# one row of the enumerate report as json.dumps(..., indent=2) lays it out;
# program text is only 0, 1 and ',', so it needs no escaping
_ENUMERATE_ROW = '    {\n      "k": %d,\n      "program": "%s"\n    }'
_ROWS_PER_CHUNK = 4096


def _enumerate_text(start: int, stop: int):
    """main's JSON text of {"from", "to", "programs": [{"k", "program"}, ...]},
    byte for byte, in chunks of rows, so memory stays flat in the row count."""
    yield '{\n  "schema": 1,\n  "from": %d,\n  "to": %d,\n  "programs": [\n' % (start, stop)
    programs = enumeration._program_range(start, stop)
    for lo in range(start, stop + 1, _ROWS_PER_CHUNK):
        rows = range(lo, min(lo + _ROWS_PER_CHUNK, stop + 1))
        text = ",\n".join(map(_ENUMERATE_ROW.__mod__, zip(rows, programs)))
        yield text if lo == start else ",\n" + text
    yield "\n  ]\n}\n"


def _enumerate(args):
    if args.start < 1 or args.stop < args.start:
        raise ValueError("need 1 <= from <= to")
    return _enumerate_text(args.start, args.stop)


def _kcomp(args):
    s, L, B = args.target, args.max_len, args.budget
    if args.cond is None:
        return complexity.shortest_program_upper_bound(s, L, B).to_json()
    return complexity.conditional_upper_bound(s, args.cond, L, B).to_json()


_RUN_OUTPUT_CAP = 2**20  # output symbols a run report may hold


def _run(args):
    aux = "" if args.variant == machine.T3C and args.aux is None else args.aux
    r = machine.run(args.program, args.max_steps, args.mode, args.variant, aux, _RUN_OUTPUT_CAP)
    if r.truncated:
        raise ValueError(f"the run printed more than {_RUN_OUTPUT_CAP} symbols")
    return r.to_json()


def _dedup(args):
    with open(args.snapshot) as f:
        try:
            rows = [json.loads(line) for line in f if line.strip()]
        except RecursionError:  # a line nested past the decoder's recursion limit
            raise ValueError("malformed dovetail registry snapshot") from None
    reg = enumeration.DovetailRegistry.from_rows(rows)
    groups = multiverse.dedup_universes(reg, args.prefix_len)
    return {
        "kind": "dedup",
        "prefix_len": args.prefix_len,
        "groups": [{"prefix": g.prefix, "members": g.members} for g in groups],
    }


def _entropy(args):
    states = args.x.split(",")
    if not all(states):
        raise ValueError("--x must be a comma-separated list of nonempty state names")
    model = fit_noise_model(states)
    bits = shannon_code_length(states, model)
    encoded, decoded = arithmetic_roundtrip(states, model)
    return {
        "states": len(states),
        "alphabet": model.alphabet,
        "shannon_bits": bits,
        "encoded_bits": len(encoded),
        "roundtrip_ok": decoded == states,
    }


def _ssa(args):
    if args.lifetime < 1:  # SwitchingBandit refuses a bad period
        raise ValueError("lifetime must be >= 1")
    seed = _seed(args)
    env = ssa.SwitchingBandit(args.period)
    # the trace file opens before the lifetime runs, so a bad path fails at once
    with open(args.trace, "w") if args.trace is not None else contextlib.nullcontext() as f:
        trace = ssa.run_learner(env, args.lifetime, seed, record_steps=f is not None)
        if f is not None:
            header = {"schema": 1, "kind": "learner-trace", "period": args.period}
            f.write(json.dumps(header | {"steps": args.lifetime, "seed": seed}) + "\n")
            f.writelines(trace.jsonl_lines())
    return trace.summary_json() | {"period": args.period}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = args.report(args)
        if isinstance(report, dict):
            report = [json.dumps({"schema": 1, **report}, indent=2) + "\n"]
        with contextlib.nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as f:
            f.writelines(report)
    except (ValueError, OSError, KeyError) as e:
        sys.stderr.write(f"omni: error: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
