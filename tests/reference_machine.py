"""Plain reference interpreter for the omni machine, for differential tests.

Written for reading, not speed: symbols stay characters, every step decodes
an Instruction by name, and the output grows one symbol at a time.  It
covers FINITE and LAZY mode, the T3, T3C and DUAL variants, the output cap,
and lazy tapes fed square by square from a symbol source, plus the
per-string definitions of the canonical programs and of the shortlex-first
witness for each output, the per-digit program at each shortlex index,
the canonical form of a witness found by trial runs, and the hosting
check's output half program by program.
It shares no code with omni, so agreement between the two is evidence, not
tautology.
"""

import enum
import itertools

SYMBOLS = "01,"


class Instruction(enum.Enum):
    OUT0 = "00"
    OUT1 = "01"
    OUTC = "0,"
    INC = "10"
    DEC = "11"
    SKIPZ = "1,"
    LOOP = ",0"
    HALT = ",1"
    MARK = ",,"


_INSTRUCTION_BY_ID = [
    Instruction.OUT0,
    Instruction.OUT1,
    Instruction.OUTC,
    Instruction.INC,
    Instruction.DEC,
    Instruction.SKIPZ,
    Instruction.LOOP,
    Instruction.HALT,
    Instruction.MARK,
]


def decode_instruction(first: str, second: str) -> Instruction:
    """Decode a symbol pair.  Total: every pair maps to an instruction."""
    if first not in SYMBOLS or second not in SYMBOLS:
        raise ValueError(f"not a symbol: {first!r}/{second!r}")
    return _INSTRUCTION_BY_ID[3 * SYMBOLS.index(first) + SYMBOLS.index(second)]


def slot_symbols(block: int, slots: int) -> list[int]:
    """The per-slot reading of stream bits: 2-bit slices from the low bits
    up, the fourth pattern (3) rejected."""
    symbols = []
    for _ in range(slots):
        v = block & 3
        block >>= 2
        if v != 3:
            symbols.append(v)
    return symbols


WORD = 2**64
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalizer(z):
    """Steele, Lea & Flood's mixing function on a 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % WORD
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % WORD
    return z ^ (z >> 31)


def stream_block(seed, index, b):
    """Block b = 1, 2, ... of Monte Carlo sample `index` under master
    `seed`: the sample's key is the finalizer of its seed (seed * GAMMA +
    (index + 1) * 0xBF58476D1CE4E5B9 mod 2^64), and block b is the
    finalizer of key + b * GAMMA mod 2^64."""
    sample = (seed * GAMMA + (index + 1) * 0xBF58476D1CE4E5B9) % WORD
    key = splitmix64_finalizer(sample)
    return splitmix64_finalizer((key + b * GAMMA) % WORD)


def trinary_source(seed, index):
    """Uniform symbols of Monte Carlo sample `index` under master `seed`,
    read slot by slot: each block of its stream (stream_block) read as 32
    slots.  Yields '0', '1', ','."""
    b = 0
    while True:
        b += 1
        block = stream_block(seed, index, b)
        for v in slot_symbols(block, 32):
            yield SYMBOLS[v]


def index_to_program(k):
    """Program at 1-based shortlex position k, digit '0' < '1' < ',': skip
    whole lengths, then write the offset in base 3 one digit at a time."""
    if k < 1:
        raise ValueError("index is 1-based")
    m, length, block = k - 1, 0, 1
    while m >= block:
        m -= block
        block *= 3
        length += 1
    program = ""
    for _ in range(length):
        m, d = divmod(m, 3)
        program = SYMBOLS[d] + program
    return program


class _Tape:
    """Tape squares: a fixed program string, or squares read from a source
    one at a time on first visit."""

    def __init__(self, program, source):
        self.squares = list(program)
        self.source = source

    def reach(self, upto):
        """Try to make squares [0, upto) exist; report how many do."""
        while self.source is not None and len(self.squares) < upto:
            try:
                self.squares.append(next(self.source))
            except StopIteration:
                self.source = None
        return len(self.squares)


def reference_run(
    program="",
    max_steps=100,
    mode="finite",
    variant="t3",
    aux="",
    out_cap=None,
    source=None,
):
    """Run the machine; returns (tape, output, status, consumed, steps,
    truncated) where tape is every square the run filled, as a string."""
    tape = _Tape(program, source)
    finite = mode == "finite"
    output = []
    truncated = False
    register = 0
    consumed = 0
    steps = 0
    swap = False
    start = 0

    def emit(symbol):
        nonlocal truncated
        if swap and symbol in "01":
            symbol = "1" if symbol == "0" else "0"
        if out_cap is None or len(output) < out_cap:
            output.append(symbol)
        else:
            truncated = True

    def finish(status):
        return "".join(tape.squares), "".join(output), status, consumed, steps, truncated

    def off_the_end():
        return finish("halted" if finite else "budget")

    if variant == "dual":
        # the first square picks the table and costs one step
        if tape.reach(1) < 1:
            return off_the_end()
        selector = tape.squares[0]
        consumed = 1
        steps = 1
        if selector == ",":
            return finish("halted")
        swap = selector == "1"
        start = 1

    head = start
    anchor = start
    while steps < max_steps:
        available = tape.reach(head + 2)
        if head >= available:
            return off_the_end()
        if head == available - 1:
            consumed = available  # a lone trailing square is consumed
            return off_the_end()
        instruction = decode_instruction(tape.squares[head], tape.squares[head + 1])
        head += 2
        consumed = max(consumed, head)
        steps += 1
        if instruction is Instruction.OUT0:
            emit("0")
        elif instruction is Instruction.OUT1:
            emit("1")
        elif instruction is Instruction.OUTC:
            emit(",")
        elif instruction is Instruction.INC:
            register += 1
        elif instruction is Instruction.DEC:
            register = max(register - 1, 0)
        elif instruction is Instruction.SKIPZ:
            if register == 0:
                head += 2
                # the skipped squares count as visited, as far as they exist
                consumed = max(consumed, min(head, tape.reach(head)))
        elif instruction is Instruction.LOOP:
            if register != 0:
                head = anchor
        elif instruction is Instruction.HALT:
            return finish("halted")
        elif variant == "t3c":  # READAUX
            for symbol in aux:
                emit(symbol)
        else:  # MARK
            anchor = head
    return finish("budget")


def canonical_by_string(max_len, budget, variant="t3"):
    """(program, output) of the canonical programs up to max_len, by the
    definition: every string in shortlex order whose lazy run halts having
    consumed exactly its own length."""
    for length in range(max_len + 1):
        for symbols in itertools.product(SYMBOLS, repeat=length):
            program = "".join(symbols)
            _, output, status, consumed, _, _ = reference_run(
                program, budget, "lazy", variant
            )
            if status == "halted" and consumed == length:
                yield program, output


def first_witnesses_by_string(max_len, budget, aux=None, prefix=""):
    """{output: the shortlex-first program up to max_len printing it}, by
    the definition: every string in shortlex order run alone in finite
    mode, keeping the first that halts within the budget with each output.
    aux=None runs T3; a string runs T3C with it on the aux tape.  With a
    prefix, only the programs that start with it are run."""
    variant = "t3" if aux is None else "t3c"
    first = {}
    for length in range(max_len - len(prefix) + 1):
        for symbols in itertools.product(SYMBOLS, repeat=length):
            program = prefix + "".join(symbols)
            _, output, status, *_ = reference_run(
                program, budget, "finite", variant, aux or ""
            )
            if status == "halted":
                first.setdefault(output, program)
    return first


def canonicalize_witness(witness, budget):
    """Shortest self-delimiting form of a finite-mode witness, by trial:
    the witness itself if its lazy run already halts cleanly, its consumed
    prefix if it halts early, else the witness with a HALT (or a padding
    instruction plus HALT, when a pending skip would eat the HALT) appended
    and confirmed by a lazy run; None when no form is found."""
    _, _, status, consumed, _, _ = reference_run(witness, budget, "lazy")
    if status == "halted":
        return witness[:consumed]
    for suffix in (",1", ",,,1"):
        candidate = witness + suffix
        _, _, status, consumed, _, _ = reference_run(candidate, budget, "lazy")
        if status == "halted" and consumed == len(candidate):
            return candidate
    return None


def _reference_output(program, budget, variant):
    return reference_run(program, budget, "finite", variant)[1]


def hosting_counterexamples(max_len, budget, output=_reference_output):
    """(programs checked, the programs p whose finite run prints otherwise
    than "0" + p under DUAL, given one more step for the selector), by the
    definition: every string up to max_len in shortlex order, each run
    alone on both machines.  output(program, budget, variant) runs one;
    reference_run's by default."""
    checked, bad = 0, []
    for length in range(max_len + 1):
        for symbols in itertools.product(SYMBOLS, repeat=length):
            program = "".join(symbols)
            checked += 1
            if output(program, budget, "t3") != output("0" + program, budget + 1, "dual"):
                bad.append(program)
    return checked, bad
