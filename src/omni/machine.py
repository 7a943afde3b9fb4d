"""Interpreter for a tiny prefix machine over the alphabet {'0', '1', ','}.

Programs are strings of those three symbols.  The head fetches two symbols
at a time and decodes them as one instruction:

    00  OUT0    append '0' to the output
    01  OUT1    append '1' to the output
    0,  OUTC    append ',' to the output
    10  INC     register += 1
    11  DEC     register -= 1, saturating at 0
    1,  SKIPZ   if register == 0, skip the next instruction; the skipped
                squares count as consumed because the head moves over them
    ,0  LOOP    if register != 0, jump to the anchor (defaults to square 0)
    ,1  HALT    stop; the output is final
    ,,  MARK    set the anchor to the next instruction's square

Variants:

* T3    -- the table above.
* T3C   -- conditional variant.  ',,' becomes READAUX: append the entire
           auxiliary tape to the output (no-op when the aux tape is empty).
           MARK is unavailable, so the anchor stays at square 0.
* DUAL  -- the first fetched symbol selects a table: '0' runs the rest as
           T3, '1' runs the rest as T3 with the OUT0/OUT1 emissions
           swapped, ',' halts immediately with empty output.  The one
           selector symbol is the whole cost of hosting a T3 program.

Run modes:

* FINITE -- the program is all the tape there is.  Fetching past the end
            (including over a single trailing symbol, which is consumed)
            halts with status 'halted'.
* LAZY   -- the tape is unbounded in principle and symbols come from a
            source on first visit.  Only HALT halts; running out of budget
            (or, for a fixed program string, out of symbols) gives status
            'budget' with the partial output.

Two fetch-decode loops run everything.  _run_ints, the interpreter core,
runs fixed program strings only (run, and through it dovetail and
compiler_prefix_check).  Exhaustive sweeps (prior's exact sums,
complexity's searches and census) do not run each of the 3^L tape strings
from square 0.  _witnesses walks the tape tree depth first, and a node
resumes its parent's suspended run in _resume, the other loop, on the
squares its next fetch reads, so every prefix runs once.  A run that dies
kills the whole subtree, since every extension replays it; the deaths are
proofs:

* a wrong or surplus output symbol cannot be recovered (output never
  shrinks);
* the step budget runs out;
* an exact repeat of (ip, anchor, register) is a cycle;
* revisiting (ip, anchor) with a register that has grown and never touched
  zero in between diverges (the zero tests SKIPZ/LOOP and DEC saturation
  are the only register-sensitive branches, so the shifted replay makes
  the register climb forever).

Both loops look for repeats at two events only, once a run has taken
_WARMUP steps: a taken LOOP, the only backward move, where the key
(ip, anchor) is just the anchor; and a DEC that reaches 0.  Two records,
one entry per key at most, hold what was seen: the keys met at register 0,
and each key's latest visit at a taken LOOP (register >= 1) with its step.
They decide every run on a fixed tape.  A run that neither halts nor
leaves its tape jumps back infinitely often.  If its register is 0
infinitely often, a DEC takes it to 0 infinitely often, and a key recurs
at 0.  Otherwise every branch is fixed after the last zero, so each LOOP
key recurs with the same register or a larger one.

_resume abandons a proven run.  _run_ints fast-forwards it instead: the
two visits of the proof span one period of P steps that moved the
register by d (0 for a cycle) and printed some output, and every later
period repeats it.  For the k whole periods left in the budget, the run
adds k*P steps and k*d to the register, and prints the period's output k
times, stopping at out_cap (and setting truncated when the cap cuts it).
consumed does not change, since a period visits no new square.  The
remainder, under one period, runs step by step.  With no out_cap the
output is built in full, as stepping would build it.

The records' keys leave the output length out (_run_ints keeps it only to
repeat a period's output): no instruction reads the output, so a repeat
loops forever whatever it prints, and keying on the length would let a
printing loop run on until the budget.  The records start afresh at every
resume: a resume executes only instructions already on the tape, so what
it proves holds on every extension.  Neither choice changes a result,
only when a run is abandoned or how many steps it skips.

prior's Monte Carlo sampler runs on _resume too, with a draw that fills the
tape from the sample's splitmix64 stream: a guessed run that reaches the
end of its tape draws a block of squares and runs on, in order, so square j
is symbol j of the stream.
A drawn square never changes, so the same proofs end a guess early; with
the longest target's length as the output cap, a guess dies at its first
symbol past the longest target, at the budget, or on a cycle or
divergence, and none of those could score.

A program is *canonical* when its lazy-mode run halts having consumed
exactly its own length.  Canonical programs are prefix-free by
construction: a halting run never looks at squares past the ones it
consumed, so no proper extension can be canonical.  One LAZY walk to a
length cap yields each once; given a target and its length as the output
cap, only those whose output is a prefix of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

SYMBOLS = "01,"
_IDX = {"0": 0, "1": 1, ",": 2}

FINITE = "finite"
LAZY = "lazy"

T3 = "t3"
T3C = "t3c"
DUAL = "dual"

HALTED = "halted"
BUDGET = "budget"

# opcode ids, laid out as 3 * first_symbol + second_symbol
_OUT0, _OUT1, _OUTC, _INC, _DEC, _SKIPZ, _LOOP, _HALT, _MARK = range(9)


@dataclass
class RunResult:
    """Outcome of one run.

    consumed counts tape squares the head visited (highest index + 1).
    """

    program: str
    output: str
    status: str
    consumed: int
    steps: int
    truncated: bool = False

    @property
    def halted(self) -> bool:
        return self.status == HALTED

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "output": self.output,
            "status": self.status,
            "consumed": self.consumed,
            "steps": self.steps,
        }


def to_ints(s: str) -> list[int]:
    try:
        return [_IDX[c] for c in s]
    except KeyError as e:
        raise ValueError(f"not a machine symbol: {e.args[0]!r}") from None


def to_str(ints) -> str:
    return "".join(map(SYMBOLS.__getitem__, ints))


def check_inputs(max_steps: int, *texts: str) -> None:
    """The input rules every run obeys: a step budget of at least 1, and
    texts (programs, aux tapes, targets) over the machine's symbols."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    for t in texts:
        to_ints(t)


def _run_ints(prog, max_steps, finite, aux, out_cap=None):
    """Core fetch-decode-execute loop on a fixed int symbol sequence.

    Returns (out_ints, halted, consumed, steps, truncated).
    aux switches on T3C semantics (',,' appends the whole aux tape).
    out_cap stops output growth at the cap (execution continues) and flips
    the truncated flag.  A proven loop skips its whole periods left in the
    budget (see the module docstring) and runs the rest step by step.
    """
    n = len(prog)
    ip = reg = anchor = consumed = steps = last_zero = 0
    truncated = False
    out: list[int] = []
    # the loop records, each visit as (register, steps, output length)
    zeros: dict = {}
    last: dict = {}
    while steps < max_steps:
        if ip >= n - 1:
            # off the end of the tape: a halt in finite mode, out of tape
            # (not a real halt) in lazy mode
            if ip == n - 1:
                consumed = n  # the lone trailing symbol is consumed
            return out, finite, consumed, steps, truncated
        op = prog[ip] * 3 + prog[ip + 1]
        ip += 2
        if ip > consumed:
            consumed = ip
        steps += 1
        if op < 3:  # OUT0 / OUT1 / OUTC
            if out_cap is None or len(out) < out_cap:
                out.append(op)
            else:
                truncated = True
        elif op == _INC:
            reg += 1
        elif op == _DEC:
            if reg:
                reg -= 1
                if not reg:
                    last_zero = steps
                    if steps >= _WARMUP:
                        key = (ip, anchor)
                        hit = zeros.get(key)
                        zeros[key] = (0, steps, len(out))
                        if hit is not None:  # exact state repeat at register 0
                            reg, steps, truncated = _skip(
                                hit, reg, steps, max_steps, out, out_cap, truncated
                            )
        elif op == _SKIPZ:
            if reg == 0:
                ip += 2
                c = ip if ip <= n else n
                if c > consumed:
                    consumed = c
        elif op == _LOOP:
            if reg:
                ip = anchor
                if steps >= _WARMUP:
                    hit = last.get(ip)
                    last[ip] = (reg, steps, len(out))
                    if hit is not None and (
                        reg == hit[0] or reg > hit[0] and last_zero < hit[1]
                    ):  # a cycle, or a climb without a zero: diverges
                        reg, steps, truncated = _skip(
                            hit, reg, steps, max_steps, out, out_cap, truncated
                        )
        elif op == _HALT:
            return out, True, consumed, steps, truncated
        elif aux is not None:  # ',,' in T3C
            if aux:
                if out_cap is None:
                    out.extend(aux)
                else:
                    room = out_cap - len(out)
                    if room < len(aux):
                        out.extend(aux[:room])
                        truncated = True
                    else:
                        out.extend(aux)
        else:  # ',,' in T3: MARK
            anchor = ip
    return out, False, consumed, steps, truncated


def _skip(hit, reg, steps, max_steps, out, out_cap, truncated):
    """Fast-forward a proven loop by every whole period left in the budget.

    hit is the loop state's previous visit (register, steps, output
    length): one period took steps - hit[1] steps, moved the register by
    reg - hit[0] and printed out[hit[2]:], and every later period repeats
    it.  out grows in place, capped at out_cap; returns (reg, steps,
    truncated).  At the cap, out[hit[2]:] is empty unless the period
    printed, and an empty one leaves truncated as the period left it.
    """
    reg0, step0, k0 = hit
    periods = (max_steps - steps) // (steps - step0)
    if periods:
        reg += periods * (reg - reg0)
        steps += periods * (steps - step0)
        seg = out[k0:]
        if out_cap is None:
            out += seg * periods
        elif seg:
            room = out_cap - len(out)
            if len(seg) * periods > room:
                out += (seg * (room // len(seg) + 1))[:room]
                truncated = True
            else:
                out += seg * periods
    return reg, steps, truncated


_WARMUP = 16  # steps before the loop records engage
# every string of m symbols in reverse lexicographic order, for m = 1..4: a
# suspended run needs one to four more squares (four after a SKIPZ over the
# tape's end) before its next fetch
_TAILS = {m: tuple(product((0, 1, 2), repeat=m))[::-1] for m in range(1, 5)}


def _resume(tape, budget, cap, target=None, aux=None, state=None, draw=None):
    """Run a tape from square 0 or from a suspended state, pruned.

    Output is checked as it grows: at most cap symbols, each agreeing with
    target when one is given.  aux switches on T3C semantics (',,' appends
    the whole aux tape).  With draw, tape is a list that grows by draw()
    blocks whenever a fetch needs a square past its end, so the run never
    reaches the end.  Returns (out, state):

    * the run reached the end of the tape: (out, the suspended state
      (ip, reg, anchor, out, steps)), which resumes on the tape extended by
      more squares as a run of that tape from square 0;
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
    zeros = last = None  # the loop records; see the module docstring
    while steps < budget:
        if ip >= n - 1:
            if draw is None:
                return out, (ip, reg, anchor, out, steps)
            while n < ip + 2:
                tape += draw()
                n = len(tape)
        op = tape[ip] * 3 + tape[ip + 1]
        ip += 2
        steps += 1
        if op < 3:  # OUT0 / OUT1 / OUTC
            if k >= cap or (target is not None and target[k] != op):
                return None, None
            out += (op,)
            k += 1
        elif op == _INC:
            reg += 1
        elif op == _DEC:
            if reg:
                reg -= 1
                if reg == 0:
                    last_zero = steps
                    if steps >= _WARMUP:
                        if zeros is None:
                            zeros, last = set(), {}
                        key = (ip, anchor)
                        if key in zeros:
                            return None, None  # exact state repeat at register 0
                        zeros.add(key)
        elif op == _SKIPZ:
            if reg == 0:
                ip += 2
        elif op == _LOOP:
            if reg:
                ip = anchor
                if steps >= _WARMUP:
                    if last is None:
                        zeros, last = set(), {}
                    hit = last.get(ip)
                    if hit is not None:
                        reg0, step0 = hit
                        if reg == reg0:
                            return None, None  # exact state repeat: cycles forever
                        if reg > reg0 and last_zero < step0:
                            return None, None  # register climbs without a zero: diverges
                    last[ip] = (reg, steps)
        elif op == _HALT:
            return out, None
        elif aux is not None:  # ',,' in T3C
            if aux:
                j = k + len(aux)
                if j > cap or (target is not None and target[k:j] != aux):
                    return None, None
                out += aux
                k = j
        else:  # ',,' in T3: MARK
            anchor = ip
    return None, None


def _witnesses(
    max_len, budget, cap, target=None, aux=None, prefix=(), shortest=False, mode=FINITE
):
    """Walk the tape tree of the programs of length <= max_len that start
    with prefix, and yield (program, output) for each halt in
    lexicographic order.

    * FINITE: a node halts when its run reaches the end of its tape or runs
      HALT, and it is yielded when it printed exactly cap symbols
      (agreeing with target when one is given).  A program whose run never
      fetches from its last square halts as the prefix without that square
      does, so the walk skips it: the shortest such prefix, met first,
      stands for it.
    * LAZY: only a HALT node halts, and each is yielded: it is canonical,
      since a node resumes its parent's run only at the depth where the
      next fetch reads the last square.  cap = budget leaves T3 output
      unlimited; with a target, each halt printed a prefix of it.

    With shortest, each node yielded is shorter than the one before, and
    the last is the shortlex-first.
    """
    finite = mode == FINITE
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
            if (len(out) == cap) if finite else (state is None):
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


def run(
    program: str,
    max_steps: int,
    mode: str = FINITE,
    variant: str = T3,
    aux: str | None = None,
    out_cap: int | None = None,
) -> RunResult:
    """Run a fixed program string.

    pre: max_steps >= 1; aux is given exactly for variant T3C.
    """
    check_inputs(max_steps)
    if mode not in (FINITE, LAZY):
        raise ValueError(f"unknown mode: {mode!r}")
    if variant == T3C:
        if aux is None:
            raise ValueError("variant t3c requires an aux tape")
    elif aux is not None:
        raise ValueError(f"variant {variant} takes no aux tape")
    prog = to_ints(program)
    finite = mode == FINITE

    if variant == DUAL:
        return _run_dual(program, prog, max_steps, finite, out_cap)

    aux_ints = to_ints(aux) if aux is not None else None
    out, halted, consumed, steps, truncated = _run_ints(prog, max_steps, finite, aux_ints, out_cap)
    return RunResult(
        program, to_str(out), HALTED if halted else BUDGET, consumed, steps, truncated
    )


def _run_dual(program, prog, max_steps, finite, out_cap):
    if not prog:
        status = HALTED if finite else BUDGET
        return RunResult(program, "", status, 0, 0)
    sel = prog[0]
    if sel == 2:  # ',' selector: halt with empty output
        return RunResult(program, "", HALTED, 1, 1)
    out, halted, consumed, steps, truncated = _run_ints(
        prog[1:], max_steps - 1, finite, None, out_cap
    )
    if sel == 1:  # swapped table: OUT0 emits '1', OUT1 emits '0'
        out = [1 - v if v < 2 else v for v in out]
    return RunResult(
        program,
        to_str(out),
        HALTED if halted else BUDGET,
        consumed + 1,
        steps + 1,
        truncated,
    )
