"""The report corpus: a fixed list of `omni` invocations and a short digest of
what each one reports, so that a change which moves a report byte names the
rows it moved.

Each row of report_corpus.tsv holds, tab separated, the first 16 hex digits
of the sha256 of (exit code, stdout, the --out or --trace file), the exit
code, and the argv.
"{dir}" in an argv stands for a scratch directory shared by the whole run, so
`dedup` can read the snapshot a `dovetail --out` row wrote before it; no
path enters a digest.  OMNI_SEED is removed from the environment first,
and the limit on printing an int is set to Python's default, 4,300 digits,
which the census rows at n = 9012 and 9013 straddle.

    PYTHONPATH=src python tests/report_corpus.py

rewrites the table and prints the rows that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from itertools import product
from pathlib import Path

from omni import cli

TABLE = Path(__file__).with_name("report_corpus.tsv")

_TARGETS = [""] + ["".join(t) for n in (1, 2, 3) for t in product("01,", repeat=n)]


def _searches():
    for target, L, B in product(_TARGETS, (-1, 0, 3, 6, 9), (1, 3, 300)):
        common = ["--target", target, "--max-len", str(L), "--budget", str(B)]
        yield ["kcomp", *common]
        yield ["prior-exact", *common]
        yield ["prior-exact", *common, "--variant", "dual"]
    for x, y in product(("", "0", "01", "0,1", "0101"), repeat=2):
        yield ["kcomp", "--target", y, "--cond", x, "--max-len", "6", "--budget", "300"]
        yield ["mutual", "--x", x, "--y", y, "--max-len", "6", "--budget", "300"]


def _sweeps():
    for variant, L, B in product(("t3", "dual"), range(-1, 11), (1, 3, 200)):
        yield ["kraft", "--max-len", str(L), "--budget", str(B), "--variant", variant]
    # caps far past the longest program these budgets let halt
    yield ["kraft", "--max-len", "1000000", "--budget", "1"]
    yield ["prior-exact", "--target", "0", "--max-len", "1000000", "--budget", "2"]
    for L, B in product(range(-1, 8), (1, 2, 3, 4, 1000)):
        yield ["demo-compiler", "--max-len", str(L), "--budget", str(B)]
    targets = [a for t in _TARGETS for a in ("--target", t)]
    yield ["coding-gap", *targets, "--max-len", "8", "--budget", "300"]
    for n, c in ((1, 1), (2, 1), (3, 1), (4, 2)):
        yield ["census", "--n", str(n), "--c", str(c), "--max-len", "6", "--budget", "300"]
    yield ["census", "--n", "3", "--c", "1", "--max-len", "6", "--budget", "300", "--workers", "2"]
    # 3^9012 has 4,300 digits, Python's default limit on printing an int
    yield ["census", "--n", "9012", "--c", "1", "--max-len", "2", "--budget", "10"]


def _runs():
    programs = ["".join(t) for n in range(4) for t in product("01,", repeat=n)]
    for mode, variant in product(("finite", "lazy"), ("t3", "dual")):
        for p in programs:
            yield ["run", "--program", p, "--max-steps", "50", "--mode", mode, "--variant", variant]
    for p, aux in product(("", ",,", ",,00", "10,,,,11,0,1", "000,01,1"), (None, "", "01,")):
        extra = [] if aux is None else ["--aux", aux]
        yield ["run", "--program", p, "--variant", "t3c", *extra]
    yield ["run", "--program", "000,01,1"]
    yield ["run", "--program", "10,,00,0", "--max-steps", "2000000"]
    yield ["run", "--program", "10,,00,0", "--max-steps", str(10**30), "--mode", "lazy"]


def _streams():
    yield ["enumerate", "--from", "1", "--to", "5000"]
    yield ["enumerate", "--from", str(10**30), "--to", str(10**30 + 40), "--out", "{dir}/enumerate.json"]
    first = (3**64 + 1) // 2  # the first 64-symbol program
    yield ["enumerate", "--from", str(first - 20), "--to", str(first + 20)]
    yield ["enumerate", "--from", str(10**40), "--to", str(10**40 + 40)]
    yield ["dovetail", "--steps", str(2**14)]
    yield ["dovetail", "--steps", "4096", "--mode", "lazy", "--workers", "2"]
    yield ["dovetail", "--steps", "4096", "--out", "{dir}/reg.jsonl"]
    for n in (0, 1, 2, 4, 64):
        yield ["dedup", "--snapshot", "{dir}/reg.jsonl", "--prefix-len", str(n)]
    for target in ("0", "01", ","):
        yield ["prior", "--target", target, "--samples", "20000", "--budget", "200", "--seed", "7"]
    yield ["prior", "--target", "0", "--samples", "20000", "--budget", "200", "--workers", "2"]
    yield ["prior", "--target", "", "--samples", "100", "--budget", "1", "--out", "{dir}/prior.json"]
    yield ["prior", "--target", "0101010101", "--samples", "100", "--budget", "5"]  # no hit
    for x in ("0", "0,1,0,0,1,0", "a,b,a,c,a,b", "s0,s1,s1,s1,s0,s2,s0,s1"):
        yield ["entropy", "--x", x]
    yield ["ssa", "--period", "50", "--lifetime", "400", "--seed", "3"]
    yield ["ssa", "--period", "20", "--lifetime", "3000", "--trace", "{dir}/trace.jsonl"]
    yield ["ssa", "--period", "7", "--lifetime", "500", "--seed", "1", "--out", "{dir}/ssa.json"]


def _failures():
    # refusals: exit 2 with nothing on stdout
    yield ["run", "--program", "0x1"]
    yield ["run", "--program", "10,,00,0", "--max-steps", "10000000000"]
    yield ["run", "--program", "00", "--max-steps", "0"]
    yield ["enumerate", "--from", "5", "--to", "2"]
    yield ["enumerate", "--from", "0", "--to", "2"]
    yield ["enumerate", "--from", "1", "--to", "4", "--out", ""]
    yield ["kraft", "--max-len", "4", "--budget", "100", "--out", ""]
    yield ["prior", "--target", "0x", "--samples", "10", "--budget", "50"]
    yield ["prior", "--target", "0", "--samples", "10", "--budget", "0"]
    yield ["prior-exact", "--target", "2", "--max-len", "2", "--budget", "10", "--variant", "dual"]
    yield ["kcomp", "--target", "0", "--max-len", "2", "--budget", "0"]
    yield ["kcomp", "--target", "0", "--cond", "x", "--max-len", "2", "--budget", "5"]
    yield ["mutual", "--x", "0", "--y", "2", "--max-len", "2", "--budget", "5"]
    yield ["kraft", "--max-len", "4", "--budget", "0", "--variant", "dual"]
    yield ["coding-gap", "--target", "0", "--target", "x", "--max-len", "2", "--budget", "5"]
    yield ["demo-compiler", "--max-len", "2", "--budget", "0"]
    for workers in ("0", "-1"):
        yield ["census", "--n", "1", "--c", "1", "--max-len", "2", "--budget", "10", "--workers", workers]
        yield ["prior", "--target", "0", "--samples", "10", "--budget", "50", "--workers", workers]
        yield ["dovetail", "--steps", "64", "--workers", workers]
    yield ["dovetail", "--steps", "0"]
    yield ["census", "--n", "9013", "--c", "1", "--max-len", "2", "--budget", "10"]
    yield ["dedup", "--snapshot", "{dir}/reg.jsonl", "--prefix-len", "999999"]
    yield ["dedup", "--snapshot", "{dir}/trace.jsonl", "--prefix-len", "2"]
    yield ["dedup", "--snapshot", "{dir}/missing.jsonl", "--prefix-len", "2"]
    yield ["entropy", "--x", ",,"]
    yield ["ssa", "--period", "0", "--lifetime", "100"]
    yield ["ssa", "--period", "50", "--lifetime", "0"]
    yield ["ssa", "--period", "50", "--lifetime", "100", "--trace", ""]
    yield ["ssa", "--period", "50", "--lifetime", "100", "--trace", "{dir}/no-such-dir/t.jsonl"]
    # usage errors: exit 1
    yield []
    yield ["no-such-command"]
    yield ["run"]
    yield ["run", "--program", "00", "--max-steps", "ten"]
    yield ["run", "--program", "00", "--variant", "t4"]
    yield ["kraft", "--max-len", "4", "--budget", "10", "--variant", "t3c"]
    yield ["prior-exact", "--target", "0", "--max-len", "4", "--budget", "10", "--variant", "t3c"]
    yield ["enumerate", "--from", "1"]
    yield ["dovetail", "--steps", "64", "--mode", "eager"]
    yield ["kcomp", "--target", "0", "--max-len", "4"]
    yield ["census", "--n", "1", "--c", "1", "--max-len", "2", "--budget", "10", "--extra"]


ARGV = [*_searches(), *_sweeps(), *_runs(), *_streams(), *_failures()]


def _file_named(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def row(argv, workdir) -> str:
    """One line of the table: what one invocation reports, as a digest, its
    exit code and its argv."""
    run = [a.replace("{dir}", workdir) for a in argv]
    files = [f for f in (_file_named(run, "--out"), _file_named(run, "--trace")) if f]
    for f in files:
        with contextlib.suppress(FileNotFoundError):
            os.remove(f)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(run)
        except SystemExit as e:
            code = e.code
    written = [Path(f).read_text() if os.path.exists(f) else None for f in files]
    blob = json.dumps([code, out.getvalue(), written]).encode()
    return f"{hashlib.sha256(blob).hexdigest()[:16]}\t{code}\t{shlex.join(argv)}"


def rows() -> list[str]:
    """The table's lines as this tree reports them, in ARGV order."""
    saved = os.environ.pop("OMNI_SEED", None)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            return [row(argv, workdir) for argv in ARGV]
    finally:
        sys.set_int_max_str_digits(digits)
        if saved is not None:
            os.environ["OMNI_SEED"] = saved


def moved(old: list[str], new: list[str]) -> list[str]:
    """The rows of new that old does not hold, as `-`/`+` lines."""
    kept = set(old) & set(new)
    return [f"- {r}" for r in old if r not in kept] + [f"+ {r}" for r in new if r not in kept]


if __name__ == "__main__":
    old = TABLE.read_text().splitlines() if TABLE.exists() else []
    new = rows()
    TABLE.write_text("".join(r + "\n" for r in new))
    changes = moved(old, new)
    print("\n".join(changes) if changes else "no row moved")
    print(f"{len(new)} rows, {TABLE.stat().st_size} bytes", file=sys.stderr)
