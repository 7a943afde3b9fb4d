"""Command line front end.

Every subcommand writes one JSON report (or a JSONL stream for the two
registry-shaped outputs) to --out or stdout.  Reports carry "schema": 1;
JSONL streams carry it in their header line.  Exit codes: 0 success, 1
usage error, 2 guarded runtime error (bad program text, zero-probability
state, snapshot/prefix mismatch, a run printing more than 2^20 symbols,
and similar).

OMNI_SEED in the environment overrides --seed wherever a seed is consumed,
so sweeps can be re-pointed without editing scripts.  Identical invocations
produce byte-identical output, regardless of --workers.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import complexity, enumeration, machine, multiverse, prior, ssa
from .coding import ZeroProbabilityError, arithmetic_roundtrip, fit_noise_model, shannon_code_length


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 is reserved for
    # guarded runtime errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="omni", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    modes = sorted((machine.FINITE, machine.LAZY))
    variants = sorted((machine.T3, machine.T3C, machine.DUAL))
    walked = sorted((machine.T3, machine.DUAL))  # the variants with canonical programs

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.set_defaults(handler=handler)
        return sp

    sp = add("enumerate", _cmd_enumerate, "list programs by index in the shortlex bijection")
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="stop", type=int, required=True)

    sp = add("run", _cmd_run, "run one program and report the outcome")
    sp.add_argument("--program", required=True)
    sp.add_argument("--max-steps", type=int, default=1000)
    sp.add_argument("--mode", choices=modes, default=machine.FINITE)
    sp.add_argument("--variant", choices=variants, default=machine.T3)
    sp.add_argument("--aux", default=None)

    sp = add("dovetail", _cmd_dovetail, "share steps across all programs, snapshot the registry")
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--mode", choices=modes, default=machine.FINITE)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("dedup", _cmd_dedup, "group registry entries by output prefix")
    sp.add_argument("--snapshot", required=True)
    sp.add_argument("--prefix-len", dest="prefix_len", type=int, required=True)

    sp = add("census", _cmd_census, "fraction of n-symbol outputs compressible by c")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("kcomp", _cmd_kcomp, "shortest-program upper bound for a target")
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--cond", default=None, help="condition on this string via the aux tape")

    sp = add("mutual", _cmd_mutual, "algorithmic mutual information estimate")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)

    sp = add("prior", _cmd_prior, "Monte Carlo prior mass of a target output")
    sp.add_argument("--target", required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--workers", type=int, default=1)

    sp = add("prior-exact", _cmd_prior_exact, "enumerated prior mass of a target output")
    sp.add_argument("--target", required=True)
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--variant", choices=walked, default=machine.T3)

    sp = add("kraft", _cmd_kraft, "total canonical program mass up to a length cap")
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--variant", choices=walked, default=machine.T3)

    sp = add("coding-gap", _cmd_coding_gap, "compare -log3(prior mass) against shortest witnesses")
    sp.add_argument("--target", action="append", required=True)
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)

    sp = add(
        "demo-compiler", _cmd_demo_compiler, "hosting check for the one-symbol compiler prefix"
    )
    sp.add_argument("--max-len", dest="max_len", type=int, required=True)
    sp.add_argument("--budget", type=int, required=True)

    sp = add("entropy", _cmd_entropy, "fit a bigram model to states and code them")
    sp.add_argument("--x", required=True, help="comma-separated state sequence")

    sp = add("ssa", _cmd_ssa, "run the self-modifying learner")
    sp.add_argument("--period", type=int, required=True)
    sp.add_argument("--lifetime", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", default=None, help="also write a JSONL step trace here")

    return p


def _write(chunks, out: str | None) -> None:
    if out is not None:
        with open(out, "w") as f:
            f.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload: dict, out: str | None) -> None:
    _write([json.dumps({"schema": 1, **payload}, indent=2) + "\n"], out)


def _emit_jsonl(rows, out: str | None) -> None:
    _write(["".join(json.dumps(r) + "\n" for r in rows)], out)


def _seed(args) -> int:
    env = os.environ.get("OMNI_SEED")
    return int(env) if env is not None else args.seed


# one row of the enumerate report as json.dumps(..., indent=2) lays it out;
# program text is only 0, 1 and ',', so it needs no escaping
_ENUMERATE_ROW = '    {\n      "k": %d,\n      "program": "%s"\n    }'
_ROWS_PER_CHUNK = 4096


def _enumerate_text(start: int, stop: int):
    """The _emit_json text of {"from", "to", "programs": [{"k", "program"}, ...]},
    byte for byte, in chunks of rows, so memory stays flat in the row count."""
    yield '{\n  "schema": 1,\n  "from": %d,\n  "to": %d,\n  "programs": [\n' % (start, stop)
    programs = enumeration._program_range(start, stop)
    for lo in range(start, stop + 1, _ROWS_PER_CHUNK):
        rows = range(lo, min(lo + _ROWS_PER_CHUNK, stop + 1))
        text = ",\n".join(map(_ENUMERATE_ROW.__mod__, zip(rows, programs)))
        yield text if lo == start else ",\n" + text
    yield "\n  ]\n}\n"


def _cmd_enumerate(args):
    if args.start < 1 or args.stop < args.start:
        raise ValueError("need 1 <= from <= to")
    _write(_enumerate_text(args.start, args.stop), args.out)


_RUN_OUTPUT_CAP = 2**20  # output symbols a run report may hold


def _cmd_run(args):
    aux = args.aux
    if args.variant == machine.T3C and aux is None:
        aux = ""
    r = machine.run(args.program, args.max_steps, args.mode, args.variant, aux, _RUN_OUTPUT_CAP)
    if r.truncated:
        raise ValueError(f"the run printed more than {_RUN_OUTPUT_CAP} symbols")
    _emit_json(r.to_json(), args.out)


def _cmd_dovetail(args):
    reg = enumeration.dovetail(args.steps, mode=args.mode, workers=args.workers)
    _emit_jsonl(reg.snapshot_rows(), args.out)


def _cmd_dedup(args):
    with open(args.snapshot) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    reg = enumeration.DovetailRegistry.from_rows(rows)
    groups = multiverse.dedup_universes(reg, args.prefix_len)
    _emit_json(
        {
            "kind": "dedup",
            "prefix_len": args.prefix_len,
            "groups": [{"prefix": g.prefix, "members": g.members} for g in groups],
        },
        args.out,
    )


def _cmd_census(args):
    rep = complexity.compressibility_census(
        args.n, args.c, args.max_len, args.budget, workers=args.workers
    )
    _emit_json(rep.to_json(), args.out)


def _cmd_kcomp(args):
    if args.cond is None:
        b = complexity.shortest_program_upper_bound(args.target, args.max_len, args.budget)
    else:
        b = complexity.conditional_upper_bound(args.target, args.cond, args.max_len, args.budget)
    _emit_json(b.to_json(), args.out)


def _cmd_mutual(args):
    m = complexity.mutual_information_estimate(args.x, args.y, args.max_len, args.budget)
    _emit_json(m.to_json(), args.out)


def _cmd_prior(args):
    est = prior.estimate_prior_mc(
        args.target, args.samples, args.budget, _seed(args), workers=args.workers
    )
    _emit_json(est.to_json(), args.out)


def _cmd_prior_exact(args):
    est = prior.enumerate_prior(args.target, args.max_len, args.budget, args.variant)
    _emit_json(est.to_json(), args.out)


def _cmd_kraft(args):
    rep = prior.kraft_sum(args.max_len, args.budget, args.variant)
    _emit_json(rep.to_json(), args.out)


def _cmd_coding_gap(args):
    rep = prior.coding_theorem_gap(args.target, args.max_len, args.budget)
    _emit_json(rep.to_json(), args.out)


def _cmd_demo_compiler(args):
    rep = prior.compiler_prefix_check(args.max_len, args.budget)
    _emit_json(rep.to_json(), args.out)


def _cmd_entropy(args):
    states = args.x.split(",")
    if not states or any(not s for s in states):
        raise ValueError("--x must be a comma-separated list of nonempty state names")
    model = fit_noise_model(states)
    bits = shannon_code_length(states, model)
    encoded, decoded = arithmetic_roundtrip(states, model)
    _emit_json(
        {
            "states": len(states),
            "alphabet": model.alphabet,
            "shannon_bits": bits,
            "encoded_bits": len(encoded),
            "roundtrip_ok": decoded == states,
        },
        args.out,
    )


def _cmd_ssa(args):
    if args.period < 1 or args.lifetime < 1:
        raise ValueError("need period >= 1 and lifetime >= 1")
    seed = _seed(args)
    env = ssa.SwitchingBandit(args.period)
    # the trace file opens before the lifetime runs, so a bad path fails at once
    with open(args.trace, "w") if args.trace is not None else contextlib.nullcontext() as f:
        trace = ssa.run_learner(env, args.lifetime, seed, record_steps=f is not None)
        if f is not None:
            header = {
                "schema": 1,
                "kind": "learner-trace",
                "period": args.period,
                "steps": args.lifetime,
                "seed": seed,
            }
            f.write(json.dumps(header) + "\n")
            f.writelines(trace.jsonl_lines())
    payload = trace.summary_json()
    payload["period"] = args.period
    _emit_json(payload, args.out)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except (ValueError, ZeroProbabilityError, OSError, json.JSONDecodeError, KeyError) as e:
        sys.stderr.write(f"omni: error: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
