"""Shortlex enumeration of programs and a fair dovetailing scheduler.

The enumeration is the 1-based bijection k <-> program under shortlex order
with digit order '0' < '1' < ','.  A_1 is the empty program.

The dovetailer interleaves all programs on one clock: global step t goes to
A_{owner(t)} where owner(t) = (exponent of 2 in t) + 1, so A_1 runs on every
odd step, A_2 on every second remaining step, and so on.  Each A_k therefore
gets N / 2^k steps (within one) out of the first N.  A halted program simply
forfeits its later steps; they are not re-assigned.  Since the interleaved
programs share no state, running each A_k once with its allotted step count
reproduces the interleaving exactly, and makes the result independent of the
worker count by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

from . import machine
from .workers import parallel_map

OUTPUT_CAP = 4096  # registry keeps at most this many output symbols

# the six-digit program text of each v < 3^6, most significant digit first
_SIX_DIGITS = tuple("".join(p) for p in itertools.product(machine.SYMBOLS, repeat=6))
_LOG3 = math.log(3)


def index_to_program(k: int) -> str:
    """Program at 1-based shortlex position k."""
    if k < 1:
        raise ValueError("index is 1-based")
    # the n-symbol programs hold positions (3^n + 1)/2 .. (3^(n+1) - 1)/2,
    # i.e. 3^n <= 2k - 1 < 3^(n+1); the float log can miss n either way
    m = 2 * k - 1
    n = int(math.log(m) / _LOG3)
    p = 3**n
    while p > m:
        p //= 3
        n -= 1
    while 3 * p <= m:
        p *= 3
        n += 1
    v = k - (p + 1) // 2  # offset among the n-symbol programs, n base-3 digits
    text = ""
    while n > 6:
        v, d = divmod(v, 729)
        text = _SIX_DIGITS[d] + text
        n -= 6
    return _SIX_DIGITS[v][6 - n :] + text


def program_to_index(program: str) -> int:
    digits = machine.to_ints(program)
    length = len(digits)
    value = 0
    for d in digits:
        value = value * 3 + d
    return (3**length - 1) // 2 + value + 1


def programs(max_len: int, min_len: int = 0):
    """Yield all programs with min_len <= length <= max_len, shortlex order,
    as int tuples (convert with machine.to_str when needed); none when
    max_len < min_len."""
    for length in range(min_len, max_len + 1):
        yield from itertools.product((0, 1, 2), repeat=length)


def dovetail_step_owner(t: int) -> int:
    """Owner of global step t (1-based): exponent of 2 in t, plus one."""
    if t < 1:
        raise ValueError("steps are 1-based")
    return (t & -t).bit_length()


def steps_offered(total_steps: int, k: int) -> int:
    """How many of the first total_steps global steps go to A_k: the count
    of t <= total_steps with owner(t) == k, which is total_steps/2^k give or
    take rounding."""
    if k < 1:
        return 0
    return (total_steps >> (k - 1)) - (total_steps >> k)


@dataclass
class RegistryEntry:
    program: str
    steps_executed: int
    halted: bool
    output_prefix: str
    truncated: bool


@dataclass
class DovetailRegistry:
    entries: dict[int, RegistryEntry]
    total_steps: int  # steps actually executed (halted programs forfeit)
    requested_steps: int
    output_cap: int
    mode: str

    def snapshot_rows(self) -> list[dict]:
        rows = [
            {
                "schema": 1,
                "kind": "dovetail-registry",
                "cap": self.output_cap,
                "requested_steps": self.requested_steps,
                "executed_steps": self.total_steps,
                "mode": self.mode,
            }
        ]
        for k in sorted(self.entries):
            e = self.entries[k]
            rows.append(
                {
                    "k": k,
                    "program": e.program,
                    "steps": e.steps_executed,
                    "halted": e.halted,
                    "output_prefix": e.output_prefix,
                    "truncated": e.truncated,
                }
            )
        return rows


def _run_entry(mode, out_cap, job):
    k, budget = job
    program = index_to_program(k)
    if budget < 1:  # empty-program edge: index 1 with a 0 budget never occurs
        return k, RegistryEntry(program, 0, False, "", False)
    r = machine.run(program, budget, mode, out_cap=out_cap)
    return k, RegistryEntry(program, r.steps, r.halted, r.output, r.truncated)


def dovetail(
    total_steps: int,
    per_program_budget: int | None = None,
    mode: str = machine.FINITE,
    out_cap: int = OUTPUT_CAP,
    workers: int = 1,
) -> DovetailRegistry:
    """Dovetail the enumeration for total_steps global steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    jobs = []
    k = 1
    while True:
        allot = steps_offered(total_steps, k)
        if allot < 1:
            break
        if per_program_budget is not None:
            allot = min(allot, per_program_budget)
        jobs.append((k, allot))
        k += 1
    results = parallel_map(partial(_run_entry, mode, out_cap), jobs, workers)
    entries = dict(results)
    executed = sum(e.steps_executed for e in entries.values())
    return DovetailRegistry(entries, executed, total_steps, out_cap, mode)
