"""Algorithmic prior mass of an output string, by two independent routes.

Monte Carlo route: run the machine lazily while filling each tape square on
first visit with a uniformly random symbol (probability 1/3 each).  The
fraction of runs that halt within the budget and print the target estimates
its prior mass from below (runs that would need more steps count as misses).
Sample i reads a counter-based splitmix64 stream keyed by (seed, i): block
b is a pure function of the key and b, so no generator is built per sample
and no sample depends on another.  That holds however the stream is
computed: _first_blocks mixes and decodes block 1 of a whole batch of
samples at once, a lane each in one int.  Each guess runs on the walk's
pruned loop, machine._resume, on a tape that starts as block 1 and gains
the next block each time the run reaches its end.  It dies at its first
output symbol past the longest target, at the budget, or on a proven
cycle or divergence: such a run cannot score, and every sample reads its
own stream, so stopping one early changes no hit.

Most samples are decided by their first 8 squares (machine._HEAD_DEPTH says
why 8).  Each chunk of samples keeps a head memo (_Heads), a dict from
those squares to the verdict of the lazy run on them alone, with the call's
budget and cap, that runs a head the first time a sample reads it.  A head
whose run halts printing a target gives the target's slot, one whose run
waits at the tape's end having printed a prefix of a target gives that
suspended state, and any other head gives None, since its run halted
printing a non-target, printed past the cap or off every target, was
proven to loop or ran out of budget, and output never shrinks.  Every
entry is the loop's own run on its key, so the hits are those of running
every guess from square 0.  A call of 1,000 samples runs about 900 heads;
one of 150,000 runs all 6,561, in about 5.5 ms.  For the targets "", "0"
and "1," at B = 200 the memo decides 71% of samples, and a sample costs
about 0.9 us in all at 150,000 samples, 0.33-0.35 us of it stream (block
1, mixed and decoded a batch at a time; 0.6 us decoding each alone; 2-core
host, Python 3.11).

Enumeration route: sum (1/3)^|p| over every canonical program p up to a
length cap whose output is the target, in one tape-tree walk (_walk) that
kills a program at its first wrong or surplus output symbol.  Canonical
means the lazy run halts consuming exactly |p|, which makes the counted set
prefix-free, so the full sum over all lengths can never exceed 1 (Kraft).
Both routes are lower bounds on the same quantity and must agree within
sampling noise plus the mass the enumeration truncates away.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import machine
from .enumeration import program_to_index, programs
from .machine import DUAL, LAZY, T3, _report, run, to_str
from .workers import parallel_map

_MIX1 = 0x9E3779B97F4A7C15  # splitmix64's increment (the golden gamma)
_MIX2 = 0xBF58476D1CE4E5B9
_MIX3 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1
_RNG = "splitmix64"  # the sample stream, named in every Monte Carlo report

# Samples whose block 1 _first_blocks mixes and decodes in one int of 64 KB.
# Over 150,000 samples (2-core host, Python 3.11) that costs 0.32 us per
# sample at 1,024-4,096, 0.33 at 256 and 16,384, 0.38-0.40 at 64 and 65,536:
# small batches repeat the per-batch work, large ones outgrow cache.
_BATCH = 4096


def sample_seed(seed: int, index: int) -> int:
    """Per-sample seed; depends only on (master seed, index), so worker
    partitioning cannot change any sample."""
    return (seed * _MIX1 + (index + 1) * _MIX2) & _U64


def mix64(z: int) -> int:
    """splitmix64's finalizer (Steele, Lea & Flood, OOPSLA 2014) on z mod
    2^64."""
    z &= _U64
    z = (z ^ z >> 30) * _MIX2 & _U64
    z = (z ^ z >> 27) * _MIX3 & _U64
    return z ^ z >> 31


# Symbols in one byte of stream bits, read as four 2-bit slices from the
# low bits up, with the fourth pattern (3) rejected.  bytes, not tuples: the
# table is smaller and a block's symbols join into one bytes object.
_BYTE_SYMBOLS = [
    bytes(v for v in (i & 3, i >> 2 & 3, i >> 4 & 3, i >> 6) if v != 3)
    for i in range(256)
]


def _block_symbols(block: int) -> bytes:
    """Symbols in a 64-bit block: its 32 2-bit slices, low bits first,
    with pattern 3 rejected."""
    return b"".join(map(_BYTE_SYMBOLS.__getitem__, block.to_bytes(8, "little")))


def _wilson_upper(hits: int, n: int) -> float:
    """Upper end of the 95% Wilson (1927) score interval for hits in n
    trials; unlike the Wald stderr it is not 0 at zero hits, where it
    equals z^2 / (n + z^2)."""
    p = hits / n
    z = 1.96
    z2 = z * z
    centre = p + z2 / (2 * n)
    spread = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (centre + spread) / (1 + z2 / n)


@dataclass
class PriorEstimate:
    target: str
    method: str  # "mc" or "enum"
    p_hat: float
    stderr: float | None
    samples: int | None
    max_len: int | None
    budget: int
    hits: int
    exact: Fraction | None = None
    p_upper: float | None = None  # Monte Carlo only: 95% Wilson upper bound

    def to_json(self) -> dict:
        report = _report(self, "exact", "p_upper")
        if self.method == "mc":
            report["p_upper"] = self.p_upper
            report["rng"] = _RNG
        return report


class _Heads(dict):
    """{the first _HEAD_DEPTH squares of a tape, as bytes: the verdict of
    the lazy run on those squares alone}, filled on first read (a memo
    function, Michie 1968), with the longest target's length as the cap.  A
    run that halts printing a target gives the target's slot; one that
    waits at the tape's end having printed a prefix of a target gives its
    suspended state.  Any other run cannot score, and gives None.
    """

    def __init__(self, targets, budget):
        super().__init__()
        goals = [tuple(machine.to_ints(t)) for t in targets]
        self.slot_of = {g: s for s, g in enumerate(goals)}
        self.prefixes = {g[:j] for g in goals for j in range(len(g) + 1)}
        self.budget, self.cap = budget, max(map(len, goals), default=0)

    def __missing__(self, key):
        why, state = machine._resume(key, self.budget, self.cap)
        if why is machine._AT_HALT:
            verdict = self.slot_of.get(state[3])
        elif why is machine._AT_END and state[3] in self.prefixes:
            verdict = state
        else:
            verdict = None
        self[key] = verdict
        return verdict


def _first_blocks(seed, lo, hi):
    """Yield the tape of block 1, mix64(mix64(sample_seed(seed, i)) +
    gamma), as _block_symbols gives it, of samples i = lo..hi-1, up to
    _BATCH at a time in one int (a short last batch in only as many lanes
    as it has samples): sample start + j holds sample_seed(seed,
    start) + j * _MIX2 mod 2^64 in the lane at bit 128 j, masked to 64 bits
    before each multiply, so each product stays in its lane.  Byte b of
    every lane, little-endian on any host, is one strided slice of the
    int's bytes; each lane's eight bytes decode and join in C-level maps."""
    ones, index, n = 1, 0, 1  # lane j of ones holds 1, lane j of index j
    while n < min(_BATCH, hi - lo):
        index |= (index + n * ones) << 128 * n
        ones |= ones << 128 * n
        n *= 2
    mask = ones * _U64
    step, gamma = index * _MIX2 & mask, ones * _MIX1
    symbols = _BYTE_SYMBOLS.__getitem__
    for start in range(lo, hi, n):
        if hi - start < n:  # the last batch is short: mix only its lanes
            n = hi - start
            keep = (1 << 128 * n) - 1
            ones, step, gamma, mask = ones & keep, step & keep, gamma & keep, mask & keep
        z = sample_seed(seed, start) * ones + step
        for add in (0, gamma):
            z = (z + add) & mask
            z = ((z ^ z >> 30) & mask) * _MIX2 & mask
            z = ((z ^ z >> 27) & mask) * _MIX3 & mask
            z ^= z >> 31
        raw = z.to_bytes(16 * n, "little")
        yield from map(b"".join, zip(*(map(symbols, raw[b::16]) for b in range(8))))


def _mc_chunk(targets, budget, seed, bounds):
    """Hits per target among samples lo..hi-1 (targets distinct).

    Sample i is a lazy machine run whose tape squares are the uniform
    symbols of the stream keyed mix64(sample_seed(seed, i)): block b =
    mix64(key + b * gamma mod 2^64), b >= 1, is output b of splitmix64
    started at key.  Block 1 comes from _first_blocks, which mixes and
    decodes it for a whole batch of samples at once; later blocks, which
    few samples read, go one at a time.  The tape starts as block 1, and
    machine._resume decides the run from its first squares by the chunk's
    head memo (_Heads) or resumes the state it gives.  Each time the run
    reaches the tape's end the next block is appended and the run resumed.
    """
    lo, hi = bounds
    head = _Heads(targets, budget)
    hits = [0] * len(targets)
    cap = head.cap
    resume, by_head, at_end = machine._resume, machine._BY_HEAD, machine._AT_END
    start = machine._START
    for i, tape in enumerate(_first_blocks(seed, lo, hi), lo):
        # all positional: a keyword argument costs each sample about 10 ns
        why, state = resume(tape, budget, cap, None, None, start, head)
        if why is by_head:  # state is the head's verdict: a slot, or None
            if state is not None:
                hits[state] += 1
            continue
        if why is at_end:
            block = mix64(sample_seed(seed, i)) + _MIX1
        while why is at_end:
            block += _MIX1
            tape += _block_symbols(mix64(block))
            why, state = resume(tape, budget, cap, state=state)
        if why is machine._AT_HALT:
            slot = head.slot_of.get(state[3])
            if slot is not None:
                hits[slot] += 1
    return hits


def estimate_prior_mc_batch(
    targets: list[str],
    samples: int,
    budget: int,
    seed: int,
    workers: int = 1,
) -> dict[str, PriorEstimate]:
    """One sampling sweep scored against several targets at once.  Sample i
    is fully determined by sample_seed(seed, i), so this equals running
    estimate_prior_mc per target with the same arguments."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    machine.check_inputs(budget, *targets)
    uniq = list(dict.fromkeys(targets))
    # one contiguous range of samples for each process parallel_map starts
    # (at most one per CPU; a worker count below 1 is its to refuse), so
    # each process fills one head memo
    procs = max(1, min(workers, samples, len(os.sched_getaffinity(0))))
    cuts = [samples * j // procs for j in range(procs + 1)]
    fn = partial(_mc_chunk, uniq, budget, seed)
    parts = parallel_map(fn, list(zip(cuts, cuts[1:])), workers)
    totals = [sum(col) for col in zip(*parts)]
    result = {}
    for t, hits in zip(uniq, totals):
        p = hits / samples
        err = math.sqrt(p * (1.0 - p) / samples)
        result[t] = PriorEstimate(
            t, "mc", p, err, samples, None, budget, hits, p_upper=_wilson_upper(hits, samples)
        )
    return result


def estimate_prior_mc(
    target: str, samples: int, budget: int, seed: int, workers: int = 1
) -> PriorEstimate:
    return estimate_prior_mc_batch([target], samples, budget, seed, workers)[target]


def _walk(max_len: int, budget: int, variant: str, target: tuple | None = None):
    """Yield (program, output ints) of the canonical programs up to max_len
    whose output is a prefix of target (all of them without one), in one
    lazy-mode walk (machine._witnesses), lexicographic for T3.  The walk
    resumes only the HALT children of a node at register 0 one instruction
    short of max_len, since no other child can halt (the cut, in machine's
    docstring).  The DUAL ones are ',' alone, then each p of a walk of
    DUAL's '0' table from machine._SELECTED, the state run hosts it in,
    and beside it '1' + sigma(p[1:]), which prints what p prints: run
    hosts sigma(sigma(p[1:])) = p[1:].
    """
    machine.check_inputs(budget)
    cap = budget if target is None else len(target)
    if variant == T3:
        yield from machine._witnesses(max_len, budget, cap, target, mode=LAZY)
    elif variant == DUAL:
        if max_len >= 1:
            yield ",", ()
        for p, out in machine._witnesses(
            max_len, budget, cap, target, prefix="0", start=machine._SELECTED, mode=LAZY
        ):
            yield p, out
            yield "1" + machine._sigma(p[1:]), out
    else:
        raise ValueError(f"no canonical programs for variant {variant!r}")


def canonical_programs(max_len: int, budget: int, variant: str = T3):
    """Yield (program, output) over canonical programs up to max_len,
    shortlex order: one walk (_walk), sorted by enumeration index.

    Raises ValueError for a budget below 1 and for variants other than T3
    and DUAL.
    """
    walked = [(p, to_str(out)) for p, out in _walk(max_len, budget, variant)]
    yield from sorted(walked, key=lambda item: program_to_index(item[0]))


def _mass(lengths: Counter) -> Fraction:
    """Sum of 3^-n over programs counted by length n, weighed exactly as an
    integer in units of 3^-top, top the longest length counted."""
    top = max(lengths, default=0)
    return Fraction(sum(c * 3 ** (top - n) for n, c in lengths.items()), 3**top)


def enumerate_prior(
    target: str, max_len: int, budget: int, variant: str = T3
) -> PriorEstimate:
    """Exact truncated prior mass: sum of 3^-|p| over canonical programs of
    length <= max_len printing the target."""
    machine.check_inputs(budget, target)
    goal = tuple(machine.to_ints(target))
    walked = _walk(max_len, budget, variant, goal)
    lengths = Counter(len(p) for p, out in walked if len(out) == len(goal))
    mass = _mass(lengths)
    return PriorEstimate(
        target, "enum", float(mass), None, None, max_len, budget, lengths.total(), mass
    )


@dataclass
class KraftReport:
    total_mass: Fraction
    program_count: int
    max_len: int
    budget: int

    def to_json(self) -> dict:
        return _report(self) | {"total_mass": float(self.total_mass)}


def kraft_sum(max_len: int, budget: int, variant: str = T3) -> KraftReport:
    """Sum of 3^-|p| over all canonical programs up to max_len.  Bounded by
    1 at every truncation because the canonical set is prefix-free."""
    lengths = Counter(len(p) for p, _ in _walk(max_len, budget, variant))
    return KraftReport(_mass(lengths), lengths.total(), max_len, budget)


@dataclass
class GapEntry:
    target: str
    k_hat: int | None
    k_canonical: int | None
    mass: float
    gap: float | None

    def to_json(self) -> dict:
        return _report(self)


@dataclass
class GapReport:
    entries: list[GapEntry]
    max_len: int
    budget: int

    @property
    def gaps(self) -> list[float]:
        return [e.gap for e in self.entries if e.gap is not None]

    def to_json(self) -> dict:
        gaps = self.gaps
        return _report(self, "entries") | {
            "targets": [e.to_json() for e in self.entries],
            "min_gap": min(gaps) if gaps else None,
            "max_gap": max(gaps) if gaps else None,
            "spread": (max(gaps) - min(gaps)) if gaps else None,
        }


def coding_theorem_gap(targets: list[str], max_len: int, budget: int) -> GapReport:
    """Per target: gap = -log3(enumerated mass) - k_canonical, the length of
    the shortest canonical form of the shortest finite witness w.

    That form is w itself when w's lazy run halts, else w + ",1", so
    k_canonical is k_hat or k_hat + 2.  Proof: w's node resumes its parent
    by one instruction, w's last pair, and any instruction but an OUT or a
    taken LOOP ends the run right after it with the parent's output (the
    proof of the cut in the machine module docstring), so the parent, a
    shorter witness, would have been found first.  So w's last pair is no
    SKIPZ that could jump past it, and w either runs HALT having read that
    pair (consuming exactly |w| squares: canonical) or stops at the tape's
    end with ip = |w| below the budget, where one HALT makes it canonical.

    The canonical form sits in the enumeration (its length is covered by
    construction), so mass >= 3^-k_canonical and the gap cannot be
    positive; how negative it goes shows how much mass short programs share.
    """
    from .complexity import shortest_program_upper_bound

    entries = []
    for t in targets:
        bound = shortest_program_upper_bound(t, max_len, budget)
        if bound.k_hat is None:
            entries.append(GapEntry(t, None, None, 0.0, None))
            continue
        k = bound.k_hat if run(bound.witness, budget, LAZY).halted else bound.k_hat + 2
        est = enumerate_prior(t, max(max_len, k), budget)
        gap = -math.log(est.exact, 3) - k
        entries.append(GapEntry(t, bound.k_hat, k, est.p_hat, gap))
    return GapReport(entries, max_len, budget)


@dataclass
class CompilerCheckReport:
    max_len: int
    budget: int
    outputs_checked: int
    output_counterexamples: list[str]
    targets_checked: int
    mass_counterexamples: list[str]

    @property
    def ok(self) -> bool:
        return not self.output_counterexamples and not self.mass_counterexamples

    def to_json(self) -> dict:
        return _report(self) | {"ok": self.ok}


def compiler_prefix_check(max_len: int, budget: int) -> CompilerCheckReport:
    """Hosting inequality for the one-symbol compiler prefix "0".

    Output equality: DUAL on "0"+p matches T3 on p for every |p| <= max_len
    in finite mode (DUAL gets one extra step for the selector fetch).  Each
    node of a FINITE walk, of T3 or of DUAL from machine._SELECTED, is a
    class: the programs under it run as it does (machine._witnesses).  The
    classes at p and "0"+p agree when both runs stopped for the same reason
    in the same state, a loop's proof included, one square and one step
    apart; any other class runs each program alone on both machines.
    outputs_checked counts every program, class by class.

    Mass dominance: each target with T3 mass at max_len keeps at least a
    third of it under DUAL at max_len+1, since "0"+p costs exactly one more
    symbol; DUAL again gets one extra step for the selector.
    """
    # the nodes of a FINITE walk of DUAL's "0" selector, then of T3; no run
    # prints _NO_CAP symbols, so neither walk yields
    nodes = []
    list(machine._witnesses(
        max_len + 1, budget + 1, machine._NO_CAP, prefix="0", start=machine._SELECTED, nodes=nodes
    ))
    twins = {p: (why, state[:5], state[6]) for p, why, state in nodes}
    nodes = []
    list(machine._witnesses(max_len, budget, machine._NO_CAP, nodes=nodes))
    out_bad: list[str] = []
    checked = 0
    for p, why, (ip, reg, anchor, out, steps, _, hit) in nodes:
        # the twin's stop one square and one step on (top only moves consumed)
        hit = hit and (hit[0], hit[1] + 1, hit[2])
        agree = twins.get("0" + p) == (why, (ip + 1, reg, anchor + 1, out, steps + 1), hit)
        hi = min(ip + 1, max_len) if why is machine._AT_END else max_len
        for tail in programs(hi - len(p)):
            checked += 1
            q = p + tail
            if not agree and run(q, budget).output != run("0" + q, budget + 1, variant=DUAL).output:
                out_bad.append(q)
    out_bad.sort(key=program_to_index)

    # masses per output as integers: T3 in units of 3^-top, DUAL in units
    # of 3^-(top+1), so a third of the T3 mass is t3_w in DUAL units
    top = max(max_len, 0)
    t3_w: dict[str, int] = {}
    for p, out in canonical_programs(max_len, budget, T3):
        t3_w[out] = t3_w.get(out, 0) + 3 ** (top - len(p))
    dual_w: dict[str, int] = {}
    for p, out in canonical_programs(max_len + 1, budget + 1, DUAL):
        dual_w[out] = dual_w.get(out, 0) + 3 ** (top + 1 - len(p))
    mass_bad = [t for t, w in sorted(t3_w.items()) if dual_w.get(t, 0) < w]
    return CompilerCheckReport(max_len, budget, checked, out_bad, len(t3_w), mass_bad)
