"""Shortlex enumeration of programs and a fair dovetailing scheduler.

The enumeration is the 1-based bijection k <-> program under shortlex order
with digit order '0' < '1' < ','.  A_1 is the empty program.  A_k is k - 1
written in bijective base 3, whose digits 1, 2, 3 stand for '0', '1', ','.
Its last six digits are (k - 365) mod 729 in plain base 3 once k >= 365, and
the rest is A_{(k - 365)//729 + 1}, so index_to_program peels off six
symbols at a time until at most five are left, and looks those up.
_program_range streams a run of consecutive indices: each block of 729
indices k = 365 + 729 j .. 1093 + 729 j is A_{j+1} followed by every six
symbols in order, so it writes one program per block and appends each row's
six.

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
from dataclasses import dataclass
from functools import partial

from . import machine
from .workers import parallel_map

OUTPUT_CAP = 4096  # registry keeps at most this many output symbols

# the six-digit program text of each v < 3^6, most significant digit first
_SIX_DIGITS = tuple("".join(p) for p in itertools.product(machine.SYMBOLS, repeat=6))
# A_1 .. A_364, the programs of at most five symbols in shortlex order
_SHORT = tuple("".join(p) for n in range(6) for p in itertools.product(machine.SYMBOLS, repeat=n))


def index_to_program(k: int) -> str:
    """Program at 1-based shortlex position k: k - 1 in bijective base 3."""
    if k < 1:
        raise ValueError("index is 1-based")
    m, text = k - 1, ""
    while m >= 364:  # six symbols or more are left
        m, d = divmod(m - 364, 729)
        text = _SIX_DIGITS[d] + text
    return _SHORT[m] + text


def _program_range(start: int, stop: int):
    """Yield index_to_program(k) for k = start..stop (start >= 1).  Row
    k >= 365 is A_{(k - 365)//729 + 1} + _SIX_DIGITS[(k - 365) % 729], so
    each block of 729 rows costs one index_to_program call."""
    yield from _SHORT[start - 1 : stop]
    first = max(start, 365)
    for block in range(first - (first - 365) % 729, stop + 1, 729):
        head = index_to_program((block - 365) // 729 + 1)
        yield from map(head.__add__, _SIX_DIGITS[max(first - block, 0) : stop + 1 - block])


def program_to_index(program: str) -> int:
    """The k with index_to_program(k) == program: the bijective base-3
    digits d + 1 read back, most significant first."""
    k = 1
    for d in machine.to_ints(program):
        k = 3 * k + d - 1
    return k


def programs(max_len: int, min_len: int = 0):
    """Yield all programs with min_len <= length <= max_len as text, in
    shortlex order; none when max_len < min_len."""
    for length in range(min_len, max_len + 1):
        yield from map("".join, itertools.product(machine.SYMBOLS, repeat=length))


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


# A snapshot is a header row, then one row per entry in index order.  Each
# field is (JSON key, attribute, JSON type), in the snapshot's key order; a
# row's "k" (an int) comes first.
_SNAPSHOT_KIND = "dovetail-registry"
_HEAD_FIELDS = (
    ("cap", "output_cap", int),
    ("requested_steps", "requested_steps", int),
    ("executed_steps", "total_steps", int),
    ("mode", "mode", str),
)
_ROW_FIELDS = (
    ("program", "program", str),
    ("steps", "steps_executed", int),
    ("halted", "halted", bool),
    ("output_prefix", "output_prefix", str),
    ("truncated", "truncated", bool),
)


def _has_fields(row, fields) -> bool:
    return isinstance(row, dict) and all(type(row.get(key)) is t for key, _, t in fields)


@dataclass
class DovetailRegistry:
    entries: dict[int, RegistryEntry]
    total_steps: int  # steps actually executed (halted programs forfeit)
    requested_steps: int
    output_cap: int
    mode: str

    def snapshot_rows(self) -> list[dict]:
        head = {"schema": 1, "kind": _SNAPSHOT_KIND}
        rows = [head | {key: getattr(self, attr) for key, attr, _ in _HEAD_FIELDS}]
        for k, e in sorted(self.entries.items()):
            rows.append({"k": k} | {key: getattr(e, attr) for key, attr, _ in _ROW_FIELDS})
        return rows

    @classmethod
    def from_rows(cls, rows: list) -> "DovetailRegistry":
        """The registry whose snapshot_rows() are rows, as read back from
        JSON; ValueError when rows are not such a snapshot: an index given
        twice, an index below 1, a program that is not A_k, or an output
        prefix longer than the header's cap included."""
        if not rows or not isinstance(rows[0], dict) or rows[0].get("kind") != _SNAPSHOT_KIND:
            raise ValueError("snapshot is not a dovetail registry")
        head, body = rows[0], rows[1:]
        if (
            not _has_fields(head, _HEAD_FIELDS)
            or not all(_has_fields(row, _ROW_FIELDS) and type(row.get("k")) is int for row in body)
            or len({row["k"] for row in body}) < len(body)  # an index given twice
            or not all(
                row["k"] >= 1
                and row["program"] == index_to_program(row["k"])
                and len(row["output_prefix"]) <= head["cap"]
                for row in body
            )
        ):
            raise ValueError("malformed dovetail registry snapshot")
        entries = {
            row["k"]: RegistryEntry(**{attr: row[key] for key, attr, _ in _ROW_FIELDS})
            for row in body
        }
        return cls(entries, **{attr: head[key] for key, attr, _ in _HEAD_FIELDS})


def _run_entry(mode, job):
    k, budget = job
    program = index_to_program(k)
    r = machine.run(program, budget, mode, out_cap=OUTPUT_CAP)
    return k, RegistryEntry(program, r.steps, r.halted, r.output, r.truncated)


def dovetail(total_steps: int, mode: str = machine.FINITE, workers: int = 1) -> DovetailRegistry:
    """Dovetail the enumeration for total_steps global steps; each entry
    keeps at most OUTPUT_CAP output symbols."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    # steps_offered(total_steps, k) >= 1 exactly for k <= total_steps.bit_length()
    jobs = [(k, steps_offered(total_steps, k)) for k in range(1, total_steps.bit_length() + 1)]
    results = parallel_map(partial(_run_entry, mode), jobs, workers)
    entries = dict(results)
    executed = sum(e.steps_executed for e in entries.values())
    return DovetailRegistry(entries, executed, total_steps, OUTPUT_CAP, mode)
