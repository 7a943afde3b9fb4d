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
           swapped, ',' halts immediately with empty output.  The '1'
           table has one encoding, _sigma, which swaps 00 and 01 in each
           pair aligned to a string's first square.  Every fetch reads a
           pair aligned to the run's first square (ip moves by 2 or 4 and
           jumps only to an anchor, an earlier ip), and OUT0 and OUT1
           differ only in what they print, so _sigma(p) runs as p does with
           the two swapped.  run hosts the rest, or _sigma(rest) after a
           '1', on the one loop below, from _SELECTED (square 1, anchor 1,
           one step spent): the selector, one fetch of one square, is the
           whole cost of hosting T3.  An empty program runs as in T3.

Run modes:

* FINITE -- the program is all the tape there is.  Fetching past the end
            (including over a single trailing symbol, which is consumed)
            halts with status 'halted'.
* LAZY   -- the tape is unbounded in principle and symbols come from a
            source on first visit.  Only HALT halts; running out of budget
            (or, for a fixed program string, out of symbols) gives status
            'budget' with the partial output.

One fetch-decode loop, _resume, runs everything, and it is the only code
that reads a tape square; callers hand the machine program text.  It
resumes a state, by default _START (square 0, register 0, anchor 0, nothing
printed), and says why it stopped: the next fetch reads past the tape,
HALT, a wrong or surplus output symbol, the budget, or a proven loop.
Exhaustive sweeps (prior's exact sums and hosting check, complexity's
searches and census) do not run each of the 3^L tape strings from square
0.  _witnesses walks the tape tree depth first, and a node resumes its
parent's suspended run on the squares its next fetch reads, so every prefix
runs once.  A run that stops for any other reason than the tape's end kills
the whole subtree, since every extension replays it; the deaths are proofs:

* a wrong or surplus output symbol cannot be recovered (output never
  shrinks);
* the step budget runs out;
* an exact repeat of (ip, anchor, register) is a cycle;
* revisiting (ip, anchor) with a register that has grown and never touched
  zero in between diverges (the zero tests SKIPZ/LOOP and DEC saturation
  are the only register-sensitive branches, so the shifted replay makes
  the register climb forever).

The FINITE walk also skips leaves that cannot be yielded: the cut.  A
node waiting at its tape's end at ip resumes in each child by one
instruction, at ip, on a tape that ends at ip + 2.  Unless that instruction
is a taken LOOP, the child stops right after it, at the tape's end or at
HALT, having printed at most grow = max(1, len(aux)) more symbols: one for
an OUT, the aux tape for a T3C READAUX.  At register 0 no LOOP is taken
(and a SKIPZ only moves further past the end); with ip + 4 > max_len the
children are leaves; and a FINITE halt is yielded only when it printed
exactly the cap.  So a node at register 0 with ip + 2 <= max_len < ip + 4
that is more than grow symbols short of the cap gets no children.  max_len
is the walk's current limit, which shrinks only when a witness is found,
so the cut holds under shortest too.  A search with no witness at L = 10
resumes 5,761 nodes of the tree's 13,591.

A caller's list gets every node the walk resumes, with its stop and state:
classes of programs that run alike, which prior's hosting check pairs up.
Such a walk is not cut, so its classes cover every program.

The loop looks for repeats at two events only, from the first step: a
taken LOOP, the only backward move, where the key (ip, anchor) is just the
anchor, an int; and a DEC that reaches 0, keyed by the tuple (ip, anchor).
An int never equals a tuple, so one record, one entry per key at most,
holds both kinds of visit as (register, steps, output length): each
anchor's latest visit at a taken LOOP (register >= 1), and each tuple's
visit at register 0.  A repeat at register 0 is a cycle; at a LOOP, an
equal register is a cycle and a larger one with no zero since diverges.
The record decides every run on a fixed tape.  A run that neither halts
nor leaves its tape jumps back infinitely often.  If its register is 0
infinitely often, a DEC takes it to 0 infinitely often, and a key recurs
at 0.  Otherwise every branch is fixed after the last zero, so each LOOP
key recurs with the same register or a larger one.

The record's keys leave the output length out: no instruction reads the
output, so a repeat loops forever whatever it prints, and keying on the
length would let a printing loop run on until the budget.  The record
starts afresh at every resume: a resume executes only instructions already
on the tape, so what it proves holds on every extension.

run drives the same loop on a fixed program string, with out_cap as the
cap and a list for the output, and fast-forwards a proven loop: the
proof's two visits span one period of P steps that moved the register by
d (0 for a cycle) and printed some output, and every later period repeats
it.  For the k whole periods left in the budget, run adds k*P steps and k*d
to the register, and the period's output k times, stored up to out_cap.
It then resumes the remainder, under one period, which replays the start
of a period in which the record never fired, so it runs step by step to the
budget.  A run that prints past out_cap, in a step or a fast-forward, sets
truncated and keeps what was stored: the loop stops at _BAD_OUTPUT with
the first out_cap symbols printed in out, from an OUT or from a READAUX
copy cut at the cap.  It runs on with no cap, a T3C aux tape emptied and
a fresh list each resume, so it stores nothing more: no branch reads the
output.  consumed is the highest square read: a period visits no new
square, and ip only moves back at a taken LOOP, where the loop keeps the
highest ip before the jump.

prior's Monte Carlo sampler runs on _resume too.  A guess's tape starts as
the first block of its splitmix64 stream; at _AT_END the sampler appends
the next block and resumes, so square j is symbol j of the stream.  A
square never changes once read, so the same proofs end a guess early; with
the longest target's length as the output cap, a guess dies at its first
symbol past the longest target, at the budget, or on a cycle or
divergence, and none of those could score.  Most guesses never run:
_resume reads a head memo on entry, which maps a tape's first _HEAD_DEPTH
squares to the verdict of this loop's run on them alone, run the first
time a guess reads them.  A run waiting at _AT_END resumes on a longer
tape as a run of that tape from square 0, so the memo changes no hit:
only the point where a guess's loop record starts moves, and a proven
loop scores nothing wherever it is proven.

A program is *canonical* when its lazy-mode run halts having consumed
exactly its own length.  Canonical programs are prefix-free by
construction: a halting run never looks at squares past the ones it
consumed, so no proper extension can be canonical.  One LAZY walk to a
length cap yields each once; given a target and its length as the output
cap, only those whose output is a prefix of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat

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


_TO_SYMBOL = bytes.maketrans(b"\0\1\2", SYMBOLS.encode())


def to_str(ints) -> str:
    return bytes(ints).translate(_TO_SYMBOL).decode()


def check_inputs(max_steps: int, *texts: str) -> None:
    """The input rules every run obeys: a step budget of at least 1, and
    texts (programs, aux tapes, targets) over the machine's symbols."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    for t in texts:
        to_ints(t)


# every string of m symbols in reverse lexicographic order, for m = 2 and 4:
# a walk's tape and a suspended run's ip are even, so its next fetch needs
# two more squares (four after a SKIPZ over the tape's end)
_TAILS = {m: tuple(product((0, 1, 2), repeat=m))[::-1] for m in (2, 4)}

# why _resume stopped
_AT_END = "end"  # the next fetch reads past the end of the tape
_AT_HALT = "halt"
_BAD_OUTPUT = "output"  # a wrong or surplus output symbol
_AT_BUDGET = "budget"
_IN_LOOP = "loop"  # a proven cycle or divergence

_BY_HEAD = "head"  # a head memo decided the run from its first squares

_NO_CAP = 1 << 63  # an output cap no run reaches

# The squares a head memo keys on.  prior's sampler fills one memo per
# chunk of samples, running each head its samples read: at most 3^8 =
# 6,561 heads, about 5.5 ms if all are read.  For the targets "", "0" and
# "1," at B = 200 (2-core host, Python 3.11, medians of 5 in one process)
# depth 8 decides 71% of samples.  Depth 6 decides 58%: a call of 20,000
# samples takes 12% less, but one of the 150,000 of the benchmark's sample
# workload 6-7% more.  Depth 9 decides no more than depth 8 and depth 10
# 80%, but they fill 3 and 8 times as many heads, and take 11% and 31%
# longer on 150,000 samples, 25% and 37% on 20,000.  At 1,000 samples all
# four take 1.5-1.8 ms.
_HEAD_DEPTH = 8

# _sigma on each string of up to four symbols (it keeps any other chunk as is)
_SIGMA4 = {
    q: "".join({"00": "01", "01": "00"}.get(q[i : i + 2], q[i : i + 2]) for i in (0, 2))
    for n in range(5)
    for q in map("".join, product(SYMBOLS, repeat=n))
}


def _sigma(p: str) -> str:
    """DUAL's '1' table (see the module docstring)."""
    chunks = [p[i : i + 4] for i in range(0, len(p), 4)]
    return "".join(map(_SIGMA4.get, chunks, chunks))


_START = (0, 0, 0, (), 0, 0, None)  # square 0, register 0, nothing printed
_SELECTED = (1, 0, 1, (), 1, 0, None)  # after a DUAL selector: square 1, one step


def _resume(tape, budget, cap, target=None, aux=None, state=_START, head=None):
    """Run a tape from a state, _START or a suspended one, pruned; the only
    code that reads a tape square.

    Output is checked as it grows: at most cap symbols, each agreeing with
    target when one is given.  aux switches on T3C semantics (',,' appends
    the whole aux tape).  A state's out is a tuple, which the runs resumed
    from it share, or a list, which grows in place.  At _BAD_OUTPUT with no
    target, out holds the first cap symbols printed: a READAUX copy that
    passes the cap is stored up to it.

    Returns (why, state): why the run stopped (_AT_END, _AT_HALT,
    _BAD_OUTPUT, _AT_BUDGET or _IN_LOOP) and the state it stopped in,
    (ip, reg, anchor, out, steps, top, hit).  top is the highest ip before
    a jump back; hit, for _IN_LOOP only, is the proof's earlier visit as
    (register, steps, output length).  At _AT_END the state resumes on the
    tape extended by more squares as a run of that tape from square 0.

    head, a mapping from _HEAD_DEPTH squares to a verdict, is read once on
    entry, with state _START, when the tape has that many squares: a
    suspended state (a tuple) is resumed in place of state, and any other
    verdict, a target's slot or None, is returned as (_BY_HEAD, verdict).
    prior's sampler passes a memo that fills a missing key from this
    loop's run on the key alone.
    """
    n = len(tape)
    if head is not None and n >= _HEAD_DEPTH:
        state = head[tape[:_HEAD_DEPTH]]
        if state.__class__ is not tuple:
            return _BY_HEAD, state
    ip, reg, anchor, out, steps, top, _ = state
    k = len(out)
    last_zero = 0
    seen = None  # the loop record; see the module docstring
    while steps < budget:
        if ip >= n - 1:
            return _AT_END, (ip, reg, anchor, out, steps, top, None)
        op = tape[ip] * 3 + tape[ip + 1]
        ip += 2
        steps += 1
        if op < 3:  # OUT0 / OUT1 / OUTC
            if k >= cap or (target is not None and target[k] != op):
                return _BAD_OUTPUT, (ip, reg, anchor, out, steps, top, None)
            out += (op,)
            k += 1
        elif op == _INC:
            reg += 1
        elif op == _DEC:
            if reg:
                reg -= 1
                if reg == 0:
                    last_zero = steps
                    if seen is None:
                        seen = {}
                    key = (ip, anchor)
                    hit = seen.get(key)
                    if hit is not None:  # exact state repeat at register 0
                        return _IN_LOOP, (ip, reg, anchor, out, steps, top, hit)
                    seen[key] = (0, steps, k)
        elif op == _SKIPZ:
            if reg == 0:
                ip += 2
        elif op == _LOOP:
            if reg:
                if ip > top:
                    top = ip
                ip = anchor
                if seen is None:
                    seen = {}
                hit = seen.get(ip)
                if hit is not None and (
                    reg == hit[0] or reg > hit[0] and last_zero < hit[1]
                ):  # a cycle, or a climb without a zero: diverges
                    return _IN_LOOP, (ip, reg, anchor, out, steps, top, hit)
                seen[ip] = (reg, steps, k)
        elif op == _HALT:
            return _AT_HALT, (ip, reg, anchor, out, steps, top, None)
        elif aux is not None:  # ',,' in T3C
            if aux:
                j = k + len(aux)
                if j > cap or (target is not None and target[k:j] != aux):
                    out += aux[: cap - k]  # what fits under the cap
                    return _BAD_OUTPUT, (ip, reg, anchor, out, steps, top, None)
                out += aux
                k = j
        else:  # ',,' in T3: MARK
            anchor = ip
    return _AT_BUDGET, (ip, reg, anchor, out, steps, top, None)


def _witnesses(
    max_len,
    budget,
    cap,
    target=None,
    aux=None,
    prefix="",
    shortest=False,
    mode=FINITE,
    start=_START,
    nodes=None,
):
    """Walk the tape tree of the programs of length <= max_len that start
    with prefix, program text, from start (_START, or _SELECTED after a
    DUAL selector: an ip of the prefix's parity), and yield (program,
    output) for each halt in lexicographic order.

    * FINITE: a node halts when its run reaches the end of its tape or runs
      HALT, and it is yielded when it printed exactly cap symbols
      (agreeing with target when one is given).  A program whose run never
      fetches from its last square halts as the prefix without that square
      does, so the walk skips it: the shortest such prefix, met first,
      stands for it.  Without nodes, the walk skips the leaves under a
      node at register 0 that cannot reach cap (the cut, in the module
      docstring); a walk with nodes resumes every node.
    * LAZY: only a HALT node halts, and each is yielded: it is canonical,
      since a node resumes its parent's run only at the depth where the
      next fetch reads the last square.  cap = budget leaves T3 output
      unlimited; with a target, each halt printed a prefix of it.

    With shortest, each node yielded is shorter than the one before, and
    the last is the shortlex-first.  Without it, a list as nodes gets
    (program, why, state) for each node the walk resumes.  A node waiting
    at its tape's end (_AT_END) with ip + 2 <= max_len has children; the
    rest are leaves.  Every program under a node, up to max_len symbols
    (up to ip + 1 if it waits), runs as the node's run; in LAZY mode so
    does every tape that starts with a leaf.  A waiting leaf can be up to
    three squares short of max_len: a fetch reads two squares, and a SKIPZ
    over the tape's end moves two more.
    """
    finite = mode == FINITE
    # the cut (module docstring): a node at register 0 keeps its leaves
    # only if it printed at least cap - grow symbols; None keeps every node
    cut = cap - max(1, len(aux or ())) if finite and nodes is None else None
    tape = to_ints(prefix)
    depth = len(tape)
    if depth > max_len:
        return
    why, state = _resume(tape, budget, cap, target, aux, start)
    limit = max_len
    # pending nodes as (the squares past the parent, parent state), pushed
    # in reverse so that the lexicographically first comes off the stack
    # first; the suspended fetch reads squares ip and ip+1, so the run moves
    # again only at depth ip+2
    stack = []
    end, halt = _AT_END, _AT_HALT  # _resume returns these very objects
    while True:
        if nodes is not None:
            nodes.append((to_str(tape), why, state))
        if why is end or why is halt:
            if (len(state[3]) == cap) if finite else (why is halt):
                yield to_str(tape), state[3]
                if shortest:
                    limit = depth - 1
            ip = state[0]
            if why is end and ip + 2 <= limit and (
                cut is None or state[1] or len(state[3]) >= cut or limit >= ip + 4
            ):
                stack += zip(_TAILS[ip + 2 - depth], repeat(state))
        if not stack:
            return
        squares, state = stack.pop()
        depth = state[0] + 2
        if depth > limit:  # a shorter witness was found since the push
            why = None
        else:
            tape[depth - len(squares) :] = squares
            why, state = _resume(tape, budget, cap, target, aux, state)


def run(
    program: str,
    max_steps: int,
    mode: str = FINITE,
    variant: str = T3,
    aux: str | None = None,
    out_cap: int | None = None,
) -> RunResult:
    """Run a fixed program string.

    pre: max_steps >= 1, out_cap >= 0 when given, and aux is given
    exactly for variant T3C.  out_cap keeps the first out_cap output
    symbols and sets truncated when the run printed more.  A proven loop
    skips every whole period left in the budget, and a DUAL program runs
    on the same loop from square 1 (see the module docstring).
    """
    check_inputs(max_steps)
    if out_cap is not None and out_cap < 0:
        raise ValueError("out_cap must be >= 0")
    if mode not in (FINITE, LAZY):
        raise ValueError(f"unknown mode: {mode!r}")
    if variant not in (T3, T3C, DUAL):
        raise ValueError(f"unknown variant: {variant!r}")
    if variant == T3C:
        if aux is None:
            raise ValueError("variant t3c requires an aux tape")
    elif aux is not None:
        raise ValueError(f"variant {variant} takes no aux tape")
    hosted = variant == DUAL and program != ""  # a selector, then the T3 tape it hosts
    tape = to_ints("1" + _sigma(program[1:]) if hosted and program[0] == "1" else program)
    if hosted and program[0] == ",":  # ',' selector: halt with empty output
        return RunResult(program, "", HALTED, 1, 1)
    aux_ints = to_ints(aux) if aux is not None else None
    cap = _NO_CAP if out_cap is None else out_cap
    kept = None  # the output stored, once the run printed more than out_cap
    ip, reg, anchor, out, steps, top, _ = _SELECTED if hosted else _START
    state = (ip, reg, anchor, list(out), steps, top, None)
    while True:
        why, (ip, reg, anchor, out, steps, top, hit) = _resume(
            tape, max_steps, cap, None, aux_ints, state
        )
        if why == _IN_LOOP:
            # fast-forward: one period ran from the visit hit to here
            reg0, step0, k0 = hit
            periods = (max_steps - steps) // (steps - step0)
            reg += periods * (reg - reg0)
            steps += periods * (steps - step0)
            seg = out[k0:]
            if seg and kept is None:
                printed = periods * len(seg)
                room = min(printed, cap - len(out))
                whole, part = divmod(room, len(seg))
                out += seg * whole
                out += seg[:part]
                if room < printed:
                    why = _BAD_OUTPUT
        elif why != _BAD_OUTPUT:
            break
        if why == _BAD_OUTPUT:  # store nothing more: no cap, and READAUX prints nothing
            kept, cap, aux_ints = out, _NO_CAP, aux_ints and ()
        state = (ip, reg, anchor, out if kept is None else [], steps, top, None)
    truncated = kept is not None
    n = len(tape)
    high = ip if ip > top else top  # past the highest square read
    consumed = n if why == _AT_END or high > n else high
    halted = why == _AT_HALT or why == _AT_END and mode == FINITE
    output = to_str(kept if truncated else out)
    return RunResult(program, output, HALTED if halted else BUDGET, consumed, steps, truncated)
