"""Program-length upper bounds by exhaustive shortlex search, plus the
compressibility census and a conditional/mutual-information estimate.

All bounds are what a finite search can certify: the length of the first
program (shortlex order) that halts within the step budget with exactly the
target output.  True minimal lengths can only be smaller, so every reported
value is an upper bound and every census fraction is an overestimate of the
truly compressible fraction; the counting bound must hold regardless.

The search runner prunes aggressively but only on proofs:

* output mismatch or overflow cannot be recovered (output never shrinks);
* an exact repeat of (ip, register, anchor, output length) is a cycle;
* revisiting (ip, anchor, output length) with a register that has grown
  and never touched zero in between diverges (the zero tests SKIPZ/LOOP
  and DEC saturation are the only register-sensitive branches, so the
  shifted replay makes the register climb forever).
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import programs
from .machine import check_inputs, to_ints, to_str

_WARMUP = 16  # steps before the loop detector engages


def _matches(prog, target, budget, aux=None) -> bool:
    """FINITE run of prog halts within budget with output exactly target?

    aux switches on T3C semantics (',,' appends the whole aux tape).
    Equivalent to running machine.run and comparing, with sound aborts.
    """
    n = len(prog)
    tlen = len(target)
    ip = 0
    reg = 0
    anchor = 0
    out_len = 0
    steps = 0
    last_zero = 0
    seen = None
    readaux = aux is not None
    while steps < budget:
        if ip >= n - 1:
            return out_len == tlen  # ran off the end: halted
        if steps >= _WARMUP:
            if seen is None:
                seen = {}
            key = (ip, anchor, out_len)
            hit = seen.get(key)
            if hit is None:
                seen[key] = (reg, steps)
            else:
                reg0, step0 = hit
                if reg == reg0:
                    return False  # exact state repeat: cycles forever
                if reg > reg0 and reg0 >= 1 and last_zero < step0:
                    return False  # register climbs without a zero: diverges
                if reg < reg0:
                    seen[key] = (reg, steps)
        op = prog[ip] * 3 + prog[ip + 1]
        ip += 2
        steps += 1
        if op < 3:
            if out_len >= tlen or target[out_len] != op:
                return False
            out_len += 1
        elif op == 3:
            reg += 1
        elif op == 4:
            if reg:
                reg -= 1
                if reg == 0:
                    last_zero = steps
        elif op == 5:
            if reg == 0:
                ip += 2
        elif op == 6:
            if reg:
                ip = anchor
        elif op == 7:
            return out_len == tlen
        elif readaux:
            la = len(aux)
            if la:
                if out_len + la > tlen or target[out_len : out_len + la] != aux:
                    return False
                out_len += la
        else:
            anchor = ip
    return False


def _output_within(prog, budget, max_out):
    """Output of a halting FINITE run, or None (no halt in budget, or more
    than max_out symbols emitted).  Same abort rules as _matches."""
    n = len(prog)
    ip = 0
    reg = 0
    anchor = 0
    steps = 0
    last_zero = 0
    seen = None
    out = []
    while steps < budget:
        if ip >= n - 1:
            return tuple(out)
        if steps >= _WARMUP:
            if seen is None:
                seen = {}
            key = (ip, anchor, len(out))
            hit = seen.get(key)
            if hit is None:
                seen[key] = (reg, steps)
            else:
                reg0, step0 = hit
                if reg == reg0:
                    return None
                if reg > reg0 and reg0 >= 1 and last_zero < step0:
                    return None
                if reg < reg0:
                    seen[key] = (reg, steps)
        op = prog[ip] * 3 + prog[ip + 1]
        ip += 2
        steps += 1
        if op < 3:
            if len(out) >= max_out:
                return None
            out.append(op)
        elif op == 3:
            reg += 1
        elif op == 4:
            if reg:
                reg -= 1
                if reg == 0:
                    last_zero = steps
        elif op == 5:
            if reg == 0:
                ip += 2
        elif op == 6:
            if reg:
                ip = anchor
        elif op == 7:
            return tuple(out)
        else:
            anchor = ip
    return None


@dataclass
class ComplexityBound:
    target: str
    k_hat: int | None
    witness: str | None
    max_len: int
    budget: int
    conditional_on: str | None = None

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "k_hat": self.k_hat,
            "witness": self.witness,
            "L": self.max_len,
            "B": self.budget,
            "conditional_on": self.conditional_on,
        }


def shortest_program_upper_bound(
    s: str, max_len: int, budget: int
) -> ComplexityBound:
    """Length of the first program (shortlex) that outputs exactly s and
    halts within budget; k_hat is None when no program of length <= max_len
    qualifies."""
    check_inputs(budget)
    target = tuple(to_ints(s))
    for prog in programs(max_len):
        if _matches(prog, target, budget):
            return ComplexityBound(s, len(prog), to_str(prog), max_len, budget)
    return ComplexityBound(s, None, None, max_len, budget)


def conditional_upper_bound(
    s: str, cond: str, max_len: int, budget: int
) -> ComplexityBound:
    """Same search under T3C with the conditional string on the aux tape."""
    check_inputs(budget)
    target = tuple(to_ints(s))
    aux = tuple(to_ints(cond))
    for prog in programs(max_len):
        if _matches(prog, target, budget, aux):
            return ComplexityBound(s, len(prog), to_str(prog), max_len, budget, cond)
    return ComplexityBound(s, None, None, max_len, budget, cond)


@dataclass
class MutualInformation:
    x: str
    y: str
    value: int | None
    clamped: bool
    plain: ComplexityBound
    conditional: ComplexityBound

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "value": self.value,
            "clamped": self.clamped,
            "k_y": self.plain.k_hat,
            "k_y_given_x": self.conditional.k_hat,
            "L": self.plain.max_len,
            "B": self.plain.budget,
        }


def mutual_information_estimate(
    x: str, y: str, max_len: int, budget: int
) -> MutualInformation:
    """K_hat(y) - K_hat(y|x), clamped at 0 (a truncated search can make the
    difference spuriously negative).  None propagates from either bound."""
    plain = shortest_program_upper_bound(y, max_len, budget)
    cond = conditional_upper_bound(y, x, max_len, budget)
    if plain.k_hat is None or cond.k_hat is None:
        return MutualInformation(x, y, None, False, plain, cond)
    diff = plain.k_hat - cond.k_hat
    return MutualInformation(x, y, max(diff, 0), diff < 0, plain, cond)


@dataclass
class CensusReport:
    n: int
    c: int
    total: int
    compressible: int
    fraction: float
    max_len: int
    budget: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "total": self.total,
            "compressible": self.compressible,
            "fraction": self.fraction,
            "L": self.max_len,
            "B": self.budget,
        }


def _length_output_map(n, budget, length):
    m = {}
    for prog in programs(length, min_len=length):
        out = _output_within(prog, budget, n)
        if out is not None and len(out) == n and out not in m:
            m[out] = len(prog)
    return m


def compressibility_census(
    n: int, c: int, max_len: int, budget: int, workers: int = 1
) -> CensusReport:
    """Count strings of length n with K_hat < n - c among all 3^n of them.

    The fraction must come out below 3^-c: there are fewer than 3^(n-c)
    programs shorter than n - c, and each accounts for at most one string.
    One shortlex pass over programs up to max_len builds the same
    first-witness table the per-target searches would, shorter lengths
    merged first so ties resolve identically.
    """
    if n < 1 or c < 1:
        raise ValueError("n and c must be >= 1")
    check_inputs(budget)
    from functools import partial

    from .workers import parallel_map

    maps = parallel_map(
        partial(_length_output_map, n, budget), range(max_len + 1), workers
    )
    table: dict[tuple, int] = {}
    for m in maps:
        for out, k in m.items():
            if out not in table:
                table[out] = k
    bar = n - c
    compressible = sum(1 for k in table.values() if k < bar)
    total = 3**n
    return CensusReport(n, c, total, compressible, compressible / total, max_len, budget)
