"""Program-length upper bounds by exhaustive shortlex search, plus the
compressibility census and a conditional/mutual-information estimate.

All bounds are what a finite search can certify: the length of the first
program (shortlex order) that halts within the step budget with exactly the
target output.  True minimal lengths can only be smaller, so every reported
value is an upper bound and every census fraction is an overestimate of the
truly compressible fraction; the counting bound must hold regardless.

Fork-on-read: rather than running each of the 3^L finite-mode strings from
square 0, the searches walk the tape tree depth first, and a node resumes
its parent's suspended run on the squares its next fetch needs, so every
prefix runs once.  A finite-mode program halts when its run reaches the
end of its tape, so each node whose run stops there is a halt to test as a
witness, and its children go on from that state.  A HALT ends the run for
every extension, so it closes the subtree.  A run that dies kills the
subtree, since every extension replays it; the deaths are proofs:

* a wrong or surplus output symbol cannot be recovered (output never
  shrinks);
* the step budget runs out;
* an exact repeat of (ip, register, anchor, output length) is a cycle;
* revisiting (ip, anchor, output length) with a register that has grown
  and never touched zero in between diverges (the zero tests SKIPZ/LOOP
  and DEC saturation are the only register-sensitive branches, so the
  shifted replay makes the register climb forever).

The cycle and divergence records start afresh at every resume: a resume
executes only instructions already on the tape, so what it proves holds on
every extension.  That changes only when a run is abandoned, never a
result.  Visiting children in symbol order meets the nodes of one length
in lexicographic order, and once a witness of length k is found only
shorter nodes are visited, so the last witness found is the shortlex-first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .enumeration import programs
from .machine import check_inputs, to_ints, to_str

_WARMUP = 16  # steps before the loop detector engages
# every string of m symbols in reverse lexicographic order, for m = 1..4: a
# suspended run needs one to four more squares (four after a SKIPZ over the
# tape's end) before its next fetch
_TAILS = {m: tuple(product((0, 1, 2), repeat=m))[::-1] for m in range(1, 5)}


def _resume(tape, budget, cap, target=None, aux=None, state=None):
    """Run a FINITE-mode tape, from square 0 or from a suspended state.

    Output is checked as it grows: at most cap symbols, each agreeing with
    target when one is given.  aux switches on T3C semantics (',,' appends
    the whole aux tape).  Returns (out, state):

    * the run reached the end of the tape, a finite halt: (out, the
      suspended state (ip, reg, anchor, out, steps)), which resumes on the
      tape extended by more squares as a run of that tape from square 0;
    * HALT: (out, None);
    * the run died (see the module docstring): (None, None).
    """
    n = len(tape)
    if state is None:
        ip = reg = anchor = steps = 0
        out = ()
    else:
        ip, reg, anchor, out, steps = state
    k = len(out)
    last_zero = 0
    seen = None
    while steps < budget:
        if ip >= n - 1:
            return out, (ip, reg, anchor, out, steps)
        if steps >= _WARMUP:
            if seen is None:
                seen = {}
            key = (ip, anchor, k)
            hit = seen.get(key)
            if hit is None:
                seen[key] = (reg, steps)
            else:
                reg0, step0 = hit
                if reg == reg0:
                    return None, None  # exact state repeat: cycles forever
                if reg > reg0 and reg0 >= 1 and last_zero < step0:
                    return None, None  # register climbs without a zero: diverges
                if reg < reg0:
                    seen[key] = (reg, steps)
        op = tape[ip] * 3 + tape[ip + 1]
        ip += 2
        steps += 1
        if op < 3:
            if k >= cap or (target is not None and target[k] != op):
                return None, None
            out += (op,)
            k += 1
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
            return out, None
        elif aux is not None:
            if aux:
                j = k + len(aux)
                if j > cap or (target is not None and target[k:j] != aux):
                    return None, None
                out += aux
                k = j
        else:
            anchor = ip
    return None, None


def _witnesses(max_len, budget, cap, target=None, aux=None, prefix=(), shortest=False):
    """Yield (program, output) for the programs of length <= max_len that
    start with prefix and whose FINITE run halts within budget printing
    exactly cap symbols (agreeing with target when one is given), in
    lexicographic order.  A program whose run never fetches from its last
    square halts as the prefix without that square does, so the walk skips
    it: the shortest such prefix, met first, stands for it.  With shortest,
    each witness yielded is shorter than the one before, and the last is
    the shortlex-first."""
    tape = list(prefix)
    depth = len(tape)
    out, state = _resume(tape, budget, cap, target, aux)
    limit = max_len
    # pending nodes as (the squares past the parent, parent state), pushed
    # in reverse so that the lexicographically first comes off the stack
    # first; the suspended fetch reads squares ip and ip+1, so the run moves
    # again only at depth ip+2
    stack = []
    while True:
        if out is not None and depth <= limit:
            if len(out) == cap:
                yield to_str(tape), out
                if shortest:
                    limit = depth - 1
            if state is not None and state[0] + 2 <= limit:
                stack += [(squares, state) for squares in _TAILS[state[0] + 2 - depth]]
        if not stack:
            return
        squares, state = stack.pop()
        depth = state[0] + 2
        if depth > limit:  # a shorter witness was found since the push
            out = None
            continue
        tape[depth - len(squares) :] = squares
        out, state = _resume(tape, budget, cap, target, aux, state)


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


def _first_witness(s, max_len, budget, cond=None) -> ComplexityBound:
    check_inputs(budget)
    target = tuple(to_ints(s))
    aux = None if cond is None else tuple(to_ints(cond))
    witness = None
    for witness, _ in _witnesses(max_len, budget, len(target), target, aux, shortest=True):
        pass
    k_hat = None if witness is None else len(witness)
    return ComplexityBound(s, k_hat, witness, max_len, budget, cond)


def shortest_program_upper_bound(
    s: str, max_len: int, budget: int
) -> ComplexityBound:
    """Length of the first program (shortlex) that outputs exactly s and
    halts within budget; k_hat is None when no program of length <= max_len
    qualifies."""
    return _first_witness(s, max_len, budget)


def conditional_upper_bound(
    s: str, cond: str, max_len: int, budget: int
) -> ComplexityBound:
    """Same search under T3C with the conditional string on the aux tape."""
    return _first_witness(s, max_len, budget, cond)


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


def _census_outputs(n, max_len, budget, prefix):
    """The n-symbol outputs of the programs of length <= max_len that start
    with prefix."""
    return {out for _, out in _witnesses(max_len, budget, n, prefix=prefix)}


def compressibility_census(
    n: int, c: int, max_len: int, budget: int, workers: int = 1
) -> CensusReport:
    """Count strings of length n with K_hat < n - c among all 3^n of them.

    The fraction must come out below 3^-c: there are fewer than 3^(n-c)
    programs shorter than n - c, and each accounts for at most one string.
    So the walk goes no deeper than n - c - 1 (or max_len), and every
    output it finds counts.  Programs of one symbol or none print nothing,
    so the work fans out over the nine two-symbol subtrees.
    """
    if n < 1 or c < 1:
        raise ValueError("n and c must be >= 1")
    check_inputs(budget)
    from functools import partial

    from .workers import parallel_map

    top = min(max_len, n - c - 1)
    subtrees = parallel_map(
        partial(_census_outputs, n, top, budget), programs(2, min_len=2), workers
    )
    compressible = len(set().union(*subtrees))
    total = 3**n
    return CensusReport(n, c, total, compressible, compressible / total, max_len, budget)
