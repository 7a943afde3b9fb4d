"""Differential tests: every surviving fetch-decode loop against the plain
reference interpreter in reference_machine."""

import functools
import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from reference_machine import (
    SYMBOLS,
    canonical_by_string,
    canonicalize_witness,
    decode_instruction,
    first_witnesses_by_string,
    hosting_counterexamples,
    reference_run,
    slot_symbols,
    stream_block,
    trinary_source,
)

from omni import complexity, machine, prior
from omni.enumeration import program_to_index, programs
from omni.machine import DUAL, FINITE, LAZY, T3, T3C

ALL_UP_TO_6 = list(programs(6))
BUDGETS = (1, 2, 5, 17, 60)
AUX_TAPES = ("", "0", "1,0")
INSTRUCTIONS = ["".join(pair) for pair in itertools.product(SYMBOLS, repeat=2)]


def test_decoded_instruction_names():
    # opcode = 3*first + second over the fixed table
    names = [
        decode_instruction(a, b).name
        for a, b in itertools.product(SYMBOLS, repeat=2)
    ]
    assert names == [
        "OUT0", "OUT1", "OUTC", "INC", "DEC", "SKIPZ", "LOOP", "HALT", "MARK",
    ]


def _fields(r):
    return r.output, r.status, r.consumed, r.steps, r.truncated


@pytest.mark.parametrize("budget", BUDGETS)
def test_run_matches_reference_on_all_short_programs(budget):
    configs = [(T3, None), (DUAL, None)] + [(T3C, a) for a in AUX_TAPES]
    for p in ALL_UP_TO_6:
        for mode, (variant, aux), cap in itertools.product(
            (FINITE, LAZY), configs, (None, 1)
        ):
            got = machine.run(p, budget, mode, variant, aux, cap)
            _, *want = reference_run(p, budget, mode, variant, aux or "", cap)
            assert _fields(got) == tuple(want), (p, budget, mode, variant, aux, cap)


def _fields_by_cap(reference, caps):
    """{cap: the fields run returns under it} from one uncapped reference
    run: a cap keeps the first out_cap symbols, truncated when there are
    more."""
    _, out, status, consumed, steps, _ = reference
    return {
        cap: (out[:cap], status, consumed, steps, len(out) > cap)
        if cap is not None
        else (out, status, consumed, steps, False)
        for cap in caps
    }


@pytest.mark.parametrize("budget, max_len", [(17, 8), (333, 8), (1_001, 7), (20_000, 6)])
def test_fast_forwarded_runs_match_reference(budget, max_len):
    # every loop among these programs is proven within a few periods, so
    # run skips the rest of the budget in whole periods and steps through
    # the remainder; the budgets leave remainders of every size, 1,001 is
    # the budget compiler_prefix_check(6, 1000) gives its DUAL runs, and
    # the caps bind before, during and (at 20,000) long after the skip; the
    # five-symbol aux tape under caps 0-12 cuts a READAUX copy at each of
    # its squares
    usual = (None, 1, 2, 99, 4096)
    configs = (
        (T3, None, usual),
        (T3C, "01", usual),
        (T3C, "01,10", (None, *range(13))),
        (DUAL, None, usual),
    )
    for p in programs(max_len):
        for mode, (variant, aux, caps) in itertools.product((FINITE, LAZY), configs):
            reference = reference_run(p, budget, mode, variant, aux or "")
            for cap, want in _fields_by_cap(reference, caps).items():
                got = machine.run(p, budget, mode, variant, aux, cap)
                assert _fields(got) == want, (p, budget, mode, variant, cap)


@pytest.mark.parametrize("budget", BUDGETS)
def test_source_fed_run_matches_reference_on_all_short_programs(budget):
    # the program as a source that runs dry after its last symbol, one
    # square appended per _AT_END: the fed run halts when the reference
    # does, with its output and its squares, and otherwise dies or runs the
    # source dry
    for p in ALL_UP_TO_6:
        source = iter(machine.to_ints(p))
        tape = []
        why, state = machine._resume(tape, budget, budget)
        try:
            while why == machine._AT_END:
                tape.append(next(source))
                why, state = machine._resume(tape, budget, budget, state=state)
        except StopIteration:
            why = state = None
        want = reference_run(max_steps=budget, mode=LAZY, source=iter(p))
        if want[2] == machine.HALTED:
            got = (machine.to_str(tape), why, state[3])
            assert got == (want[0], machine._AT_HALT, tuple(machine.to_ints(want[1]))), p
        elif why is None:  # the source ran dry, where the reference stopped short
            assert want[4] < budget, (p, budget)
        else:
            assert why in (machine._AT_BUDGET, machine._IN_LOOP), (p, budget)
            assert want[4] == budget, (p, budget)
        fixed = reference_run(p, budget, LAZY)
        assert want[1:4] == fixed[1:4], p  # same run as the fixed string


def _printed(ints, budget, cap, target=None, aux=None):
    """What the pruned loop printed on a whole program when it halts
    there in finite mode (a HALT or the end of the tape), else None."""
    why, state = machine._resume(ints, budget, cap, target, aux)
    return state[3] if why in (machine._AT_END, machine._AT_HALT) else None


@functools.cache
def _loops_forever(p, variant, aux):
    """Whether the reference, at 20,000 steps, neither halts nor leaves
    its tape."""
    _, _, status, _, steps, _ = reference_run(p, 20_000, LAZY, variant, aux)
    return status == machine.BUDGET and steps == 20_000


@pytest.mark.parametrize("budget", BUDGETS + (300,))
def test_pruned_searchers_match_reference_on_all_short_programs(budget):
    # the search loop, run on whole programs, aborts on cycle and divergence
    # proofs, which need two visits, so each budget of 4 steps or more
    # exercises the pruning
    for p in ALL_UP_TO_6:
        ints = machine.to_ints(p)
        for aux in (None,) + AUX_TAPES:
            variant = T3 if aux is None else T3C
            _, out, status, *_ = reference_run(p, budget, FINITE, variant, aux or "")
            halted = status == machine.HALTED
            aux_ints = None if aux is None else tuple(machine.to_ints(aux))
            for target in {out, out + "0", out[:-1], "", "0", "1,0"}:
                t = tuple(machine.to_ints(target))
                got = _printed(ints, budget, len(t), t, aux_ints) == t
                assert got == (halted and out == target), (p, budget, aux, target)
            if aux is None:
                for max_out in (0, 1, 3):
                    want = tuple(machine.to_ints(out)) if halted and len(out) <= max_out else None
                    assert _printed(ints, budget, max_out) == want, (p, budget)
            # why the run stopped, against the reference in lazy mode, where
            # only a HALT halts: the reference's own output as the target
            # leaves no wrong or surplus symbol
            t = tuple(machine.to_ints(out))
            why = machine._resume(ints, budget, len(t), t, aux_ints)[0]
            _, _, lazy, _, steps, _ = reference_run(p, budget, LAZY, variant, aux or "")
            case = (p, budget, aux, why)
            assert (why == machine._AT_HALT) == (lazy == machine.HALTED), case
            assert (why == machine._AT_END) == (lazy == machine.BUDGET and steps < budget), case
            if why == machine._AT_BUDGET:
                assert steps == budget, case
            elif why == machine._IN_LOOP:
                assert steps == budget and _loops_forever(p, variant, aux or ""), case
            else:
                assert why in (machine._AT_HALT, machine._AT_END), case


@pytest.mark.parametrize("variant", (T3, DUAL))
@pytest.mark.parametrize("budget", (1, 2, 3, 5, 17, 200, 1000))
def test_canonical_walk_matches_per_string_definition(budget, variant):
    # the fork-on-read tape-tree walk against every string run alone,
    # order included
    got = list(prior.canonical_programs(8, budget, variant))
    assert got == list(canonical_by_string(8, budget, variant))


@pytest.mark.parametrize("variant", (T3, DUAL))
@pytest.mark.parametrize("budget", (1, 2, 3, 17, 200))
def test_exact_sums_match_per_string_definition(budget, variant):
    # the target-pruned walk and its exact sums against every string run
    # alone, at every length cap: the targets are every string of up to
    # three symbols and every output seen with one symbol more.  T3 is
    # symmetric in 0 and 1, so only the programs walked, not the sums, show
    # a DUAL '1' branch walked against the unswapped target
    canonical = list(canonical_by_string(8, budget, variant))
    targets = {"".join(s) for n in range(4) for s in itertools.product(SYMBOLS, repeat=n)}
    targets |= {out + s for _, out in canonical for s in SYMBOLS}
    for max_len in range(-1, 9):
        kept = [(p, out) for p, out in canonical if len(p) <= max_len]
        hits = Counter(out for _, out in kept)
        mass = Counter()
        for p, out in kept:
            mass[out] += Fraction(1, 3 ** len(p))
        kraft = prior.kraft_sum(max_len, budget, variant)
        assert (kraft.total_mass, kraft.program_count) == (sum(mass.values()), len(kept))
        for t in sorted(targets):
            est = prior.enumerate_prior(t, max_len, budget, variant)
            assert (est.exact, est.hits) == (mass[t], hits[t]), (t, max_len)
            walked = prior._walk(max_len, budget, variant, tuple(machine.to_ints(t)))
            want = [(p, out) for p, out in kept if t.startswith(out)]
            assert sorted((p, machine.to_str(out)) for p, out in walked) == sorted(want), (t, max_len)


@pytest.mark.parametrize("aux", (None,) + AUX_TAPES)
@pytest.mark.parametrize("budget", (1, 2, 3, 5, 17, 300))
def test_first_witness_walk_matches_per_program_definition(budget, aux):
    # the fork-on-read search against every program run alone, at every
    # length cap: targets are the programs' own outputs, one symbol more
    # (mostly no witness, so the whole tree is walked) and three fixed ones
    first = first_witnesses_by_string(7, budget, aux)
    targets = set(first) | {out + s for out in first for s in SYMBOLS}
    for target in sorted(targets | {"", "0", "1,0"}):
        for max_len in range(8):
            if aux is None:
                got = complexity.shortest_program_upper_bound(target, max_len, budget)
            else:
                got = complexity.conditional_upper_bound(target, aux, max_len, budget)
            want = first.get(target)
            if want is None or len(want) > max_len:
                assert (got.witness, got.k_hat) == (None, None), (target, max_len)
            else:
                assert (got.witness, got.k_hat) == (want, len(want)), (target, max_len)


@pytest.mark.parametrize("budget", (1, 2, 3, 7, 200))
def test_coding_gap_canonical_length_matches_trial_canonicalization(budget):
    # coding_theorem_gap prices the shortest witness w at k_hat + 2 unless
    # w's lazy run halts; the reference appends a HALT (or a padding
    # instruction plus HALT) by trial runs instead, at every length cap
    first = first_witnesses_by_string(8, budget)
    targets = ["".join(s) for n in range(5) for s in itertools.product(SYMBOLS, repeat=n)]
    for max_len in (-1, 0, 1, 2, 3, 5, 6, 8):
        for entry in prior.coding_theorem_gap(targets, max_len, budget).entries:
            w = first.get(entry.target)
            if w is None or len(w) > max_len:
                assert (entry.k_hat, entry.k_canonical) == (None, None), (entry, max_len)
            else:
                want = len(canonicalize_witness(w, budget))
                assert (entry.k_hat, entry.k_canonical) == (len(w), want), (entry, max_len)
                assert entry.gap <= 1e-12, (entry, max_len)


@pytest.mark.parametrize("prefix", ("10" * 8, "10" * 8 + "11" * 8 + ",,"))
def test_first_witness_walk_from_a_prefix_resumes_each_subtree_afresh(prefix):
    # the prefix leaves the run suspended after 8 or 17 steps (the second
    # one with a visit at register 0 in its loop record at the fork), so
    # sibling subtrees resume the same state: a loop record shared between
    # them would kill all but the first
    max_len = len(prefix) + 6
    first = first_witnesses_by_string(max_len, 300, prefix=prefix)
    targets = set(first) | {out + s for out in first for s in SYMBOLS}
    for target in sorted(targets):
        t = tuple(machine.to_ints(target))
        witness = None
        for witness, _ in machine._witnesses(
            max_len, 300, len(t), t, prefix=prefix, shortest=True
        ):
            pass
        assert witness == first.get(target), target


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_census_matches_per_length_table(workers):
    # the shortest program printing each n-symbol output, from every
    # program run alone; the census counts those shorter than n - c
    for budget in (5, 300):
        first = first_witnesses_by_string(7, budget)
        for n in (1, 2, 3, 4):
            subtrees = [
                complexity._census_outputs(n, 7, budget, p) for p in programs(2, min_len=2)
            ]
            want = {out for out in first if len(out) == n}
            assert set().union(*subtrees) == {tuple(machine.to_ints(o)) for o in want}
            for c in (1, 2):
                k = sum(len(first[out]) < n - c for out in want)
                rep = complexity.compressibility_census(n, c, 7, budget, workers)
                assert (rep.compressible, rep.total) == (k, 3**n), (budget, n, c)


# every string of up to two symbols: a batch of targets that the outputs a
# test expects are added to, so a sample scoring any of them shows
SHORT = ["".join(s) for n in range(3) for s in itertools.product(SYMBOLS, repeat=n)]


def _scored(batch, budget, seed, index):
    """The target in batch (a tuple) that Monte Carlo sample index scores,
    or None: the sampler as estimate_prior_mc_batch runs it, head memo
    included."""
    hits = prior._mc_chunk(list(batch), budget, seed, (index, index + 1))
    assert sum(hits) <= 1, hits
    return batch[hits.index(1)] if 1 in hits else None


def _batch(*outputs):
    """SHORT and the outputs given, None left out, as a sorted tuple."""
    return tuple(sorted(set(SHORT).union(outputs) - {None}))


@pytest.mark.parametrize("budget", (7, 200))
def test_guess_runner_matches_reference_on_seeded_samples(budget):
    # the reference reads the same stream one slot at a time; the batch
    # holds every output it halts with, so a sample the sampler scores
    # wrongly shows, and so does one it misses
    halts = []
    for i in range(1500):
        _, out, status, *_ = reference_run(
            max_steps=budget, mode=LAZY, source=trinary_source(77, i)
        )
        halts.append(out if status == machine.HALTED else None)
    batch = _batch(*halts)
    for i, want in enumerate(halts):
        assert _scored(batch, budget, 77, i) == want, (i, budget)


def _scripted_guess(monkeypatch, blocks, budget):
    """(sampler, reference) outputs, None where a run does not halt, on a
    stream of the given blocks and then ',' one square per block: the
    reference reads the same symbols one at a time, and the sampler's
    output is the target it scores in a batch that holds the reference's.
    Block 1 comes from _first_blocks and later ones from _block_symbols,
    both from one script."""
    script = map(bytes, itertools.chain(map(machine.to_ints, blocks), itertools.repeat([2])))
    monkeypatch.setattr(prior, "_first_blocks", lambda seed, lo, hi: itertools.islice(script, hi - lo))
    monkeypatch.setattr(prior, "_block_symbols", lambda block: next(script))
    source = itertools.chain("".join(blocks), itertools.repeat(","))
    _, out, status, *_ = reference_run(max_steps=budget, mode=LAZY, source=source)
    want = out if status == machine.HALTED else None
    return _scored(_batch(want), budget, 0, 0), want


def _cut(p, sizes):
    """p cut into blocks of the sizes, cycled."""
    blocks, at = [], 0
    for size in itertools.cycle(sizes):
        if at >= len(p):
            return blocks
        blocks.append(p[at : at + size])
        at += size


def test_guess_runner_matches_reference_across_scripted_blocks(monkeypatch):
    # the sampler appends the next block at each _AT_END, so no block
    # boundary may show: not an empty block (a block can reject all 32
    # slots), not a one-symbol block, not a SKIPZ whose skipped pair
    # straddles a boundary, not a first block too short for the head table
    assert prior._block_symbols(2**64 - 1) == b""
    # SKIPZ at register 0 skips the 00 split over ",0" | "0", then OUT1 HALT
    straddle = ["", "1", "", ",0", "0", "", "01", ",1"]
    assert _scripted_guess(monkeypatch, straddle, 60) == ("1", "1")
    for p in ALL_UP_TO_6:
        for sizes, budget in itertools.product(((0, 1, 2), (1, 0, 0, 3), (2, 0, 1)), (5, 60)):
            got, want = _scripted_guess(monkeypatch, _cut(p, sizes), budget)
            assert got == want, (p, sizes, budget)


def test_guess_runner_matches_reference_on_a_three_block_sample(monkeypatch):
    # sample 15,468 of seed 0 reads three blocks before it halts printing
    # ",1", one of the few at B = 200 and cap 2 that need more than two;
    # the tapes read are the stream's first three blocks
    blocks = []
    first_blocks, block_symbols = prior._first_blocks, prior._block_symbols
    monkeypatch.setattr(
        prior, "_first_blocks", lambda *args: [blocks.append(t) or t for t in first_blocks(*args)]
    )
    monkeypatch.setattr(
        prior, "_block_symbols", lambda block: blocks.append(block_symbols(block)) or blocks[-1]
    )
    got = _scored(_batch(), 200, 0, 15468)
    _, out, status, *_ = reference_run(max_steps=200, mode=LAZY, source=trinary_source(0, 15468))
    assert (status, out) == (machine.HALTED, ",1")
    assert got == out
    assert len(blocks) == 3
    assert blocks == [bytes(slot_symbols(stream_block(0, 15468, b), 32)) for b in (1, 2, 3)]


@pytest.mark.parametrize(
    "blocks, want",
    [
        (["00,1"], "0"),  # OUT0 HALT on four squares, fewer than a key
        (["1,0", "00", "001,1"], "01"),  # SKIPZ over a split pair, OUT0 OUT1 HALT
        (["10,,1", "1,0"], None),  # INC MARK DEC LOOP at 0, then MARK to the budget
    ],
)
def test_guess_runner_matches_reference_on_a_short_first_block(monkeypatch, blocks, want):
    # block 1 holds fewer squares than the head table's keys, so the run
    # starts from square 0 and meets the table's depth only in a later block
    assert len(blocks[0]) < machine._HEAD_DEPTH
    for budget in (7, 200):
        assert _scripted_guess(monkeypatch, blocks, budget) == (want, want), budget


MC_BATCHES = ([], [""], ["0", "00", "000"], ["", "0", "1,"], [",", "0,", "1,0", "0000"])


@pytest.mark.parametrize("budget", (7, 200))
def test_mc_scorer_matches_reference_on_seeded_samples(budget):
    # hits per target of the pruned scorer against the reference's halting
    # outputs on the same streams; batches of 0 to 4 targets of 0 to 4
    # symbols, shared prefixes among them, then the four commonest outputs
    n = 2000
    halts = Counter()
    for i in range(n):
        source = trinary_source(31, i)
        _, out, status, *_ = reference_run(max_steps=budget, mode=LAZY, source=source)
        if status == machine.HALTED:
            halts[out] += 1
    common = [out for out, _ in halts.most_common(4)]
    for targets in MC_BATCHES + (common,):
        want = [halts[t] for t in targets]
        assert prior._mc_chunk(targets, budget, 31, (0, n)) == want, targets
        parts = [prior._mc_chunk(targets, budget, 31, b) for b in ((0, 700), (700, n))]
        assert [a + b for a, b in zip(*parts)] == want, targets


@pytest.mark.parametrize("seed", (0, 77, 2**64 - 1, -1, 10**30))
def test_packed_first_blocks_match_reference(seed):
    # _first_blocks mixes block 1 of a batch of samples in one int, one
    # 128-bit lane per sample, and decodes all lanes in passes over that
    # int: each tape must be the symbols of the reference's block 1 of its
    # sample, for one sample, across a batch edge, and over two full
    # batches and a partial third
    n = prior._BATCH
    for lo, hi in ((0, 1), (n - 1, n + 1), (5, 2 * n + 7)):
        want = [bytes(slot_symbols(stream_block(seed, i, 1), 32)) for i in range(lo, hi)]
        assert list(prior._first_blocks(seed, lo, hi)) == want, (lo, hi)


@pytest.mark.parametrize("seed", (0, 2**64 - 1))
def test_first_blocks_short_last_batch_matches_reference(seed):
    # a range that ends in a short batch mixes only that batch's lanes:
    # _BATCH + 5 samples, and fewer samples than one batch of 8 lanes
    n = prior._BATCH
    for lo, hi in ((0, n + 5), (3, 8)):
        want = [bytes(slot_symbols(stream_block(seed, i, 1), 32)) for i in range(lo, hi)]
        assert list(prior._first_blocks(seed, lo, hi)) == want, (lo, hi)


@pytest.mark.parametrize("budget", (1, 7, 200))
def test_walk_frontier_matches_reference_tapes(budget):
    # the LAZY walk's halts and frontier against every tape of L squares
    # run alone: a tape reaches its end exactly when a frontier program is
    # a prefix of it, with that program's output, and the halts and the
    # frontier together carry the mass of the tapes that halt or reach
    # their end
    for max_len in range(9):
        nodes = []
        halts = list(machine._witnesses(max_len, budget, budget, mode=LAZY, nodes=nodes))
        frontier = [
            (p, state)
            for p, why, state in nodes
            if why is machine._AT_END and state[0] + 2 > max_len
        ]
        printed = {p: machine.to_str(state[3]) for p, state in frontier}
        decided = 0
        for symbols in itertools.product(SYMBOLS, repeat=max_len):
            tape = "".join(symbols)
            _, out, status, _, steps, _ = reference_run(tape, budget, LAZY)
            at_end = status == machine.BUDGET and steps < budget
            entries = [tape[:j] for j in range(max_len + 1) if tape[:j] in printed]
            assert len(entries) == at_end, (tape, budget)
            if at_end:
                assert printed[entries[0]] == out, (tape, budget)
            decided += at_end or status == machine.HALTED
        mass = sum(3 ** (max_len - len(p)) for p, _ in halts + frontier)
        assert mass == decided, (max_len, budget)


def test_lazy_walk_leaves_split_every_tape():
    # the leaves (every node but one with children) carry the mass of every
    # tape of L squares: halted, proven loop, budget or frontier, as in
    # ROADMAP item 1's table at L = 8, B = 200; the halted leaves are the
    # canonical programs
    canonical = sorted(canonical_by_string(8, 200))
    whys = (machine._AT_HALT, machine._IN_LOOP, machine._AT_BUDGET, machine._AT_END)
    for max_len in range(11):
        nodes = []
        list(machine._witnesses(max_len, 200, 200, mode=LAZY, nodes=nodes))
        mass = Counter()
        for p, why, state in nodes:
            if why is not machine._AT_END or state[0] + 2 > max_len:
                mass[why] += 3 ** (max_len - len(p))
        assert sum(mass.values()) == 3**max_len, max_len
        if max_len <= 8:
            halted = [(p, machine.to_str(s[3])) for p, why, s in nodes if why is machine._AT_HALT]
            assert sorted(halted) == [c for c in canonical if len(c[0]) <= max_len], max_len
        if max_len == 8:
            shares = [round(mass[why] / 3**8, 5) for why in whys]
            assert shares == [0.34736, 0.04679, 0, 0.60585]


@pytest.mark.parametrize("budget", (7, 200))
def test_dual_walk_leaves_split_every_tape(budget):
    # the hook on DUAL's "0" table: a LAZY walk behind that selector, from
    # machine._SELECTED.  Its leaves carry the mass of every tape of L
    # squares that starts with "0", 3^(L-1) in units of 3^-L, at L <= 10;
    # at L <= 8 the halted leaves are the canonical programs that start with
    # "0", and each leaf's verdict is the reference's DUAL run of every tape
    # of L squares under it
    canonical = sorted(c for c in canonical_by_string(8, budget, DUAL) if c[0].startswith("0"))
    for max_len in range(1, 11):
        nodes = []
        walk = machine._witnesses(
            max_len, budget, budget, prefix="0", mode=LAZY, start=machine._SELECTED, nodes=nodes
        )
        list(walk)
        leaves = {
            p: (why, state)
            for p, why, state in nodes
            if why is not machine._AT_END or state[0] + 2 > max_len
        }
        assert sum(3 ** (max_len - len(p)) for p in leaves) == 3 ** (max_len - 1), max_len
        if max_len > 8:
            continue
        halted = [(p, machine.to_str(s[3])) for p, (why, s) in leaves.items() if why is machine._AT_HALT]
        assert sorted(halted) == [c for c in canonical if len(c[0]) <= max_len], max_len
        for symbols in itertools.product(SYMBOLS, repeat=max_len - 1):
            tape = "0" + "".join(symbols)
            (leaf,) = [tape[:j] for j in range(1, max_len + 1) if tape[:j] in leaves]
            why, state = leaves[leaf]
            printed = machine.to_str(state[3])
            _, out, status, _, steps, _ = reference_run(tape, budget, LAZY, DUAL)
            if why is machine._AT_HALT:
                assert (status, out) == (machine.HALTED, printed), tape
            elif why is machine._AT_END:  # the tape ends before the next fetch
                assert (status, out) == (machine.BUDGET, printed) and steps < budget, tape
            elif why is machine._AT_BUDGET:
                assert (status, out, steps) == (machine.BUDGET, printed, budget), tape
            else:  # a proven loop runs on to the budget
                assert why is machine._IN_LOOP, (tape, why)
                assert status == machine.BUDGET and steps == budget, tape
                assert out.startswith(printed), tape


@pytest.mark.parametrize("budget", (1, 2, 3, 7, 1000))
def test_finite_walk_classes_partition_programs(budget):
    # a FINITE walk's node stands for every program under it of lengths
    # len(node)..hi, hi = min(ip + 1, L) when its run waits at the tape's
    # end and L otherwise: each program of up to 8 symbols lies in exactly
    # one class and prints what the class printed, on T3 and hosted behind
    # DUAL's "0" selector (a proven loop's class prints on to the budget)
    for prefix, start, variant in (("", machine._START, T3), ("0", machine._SELECTED, DUAL)):
        max_len, b = 8 + len(prefix), budget + len(prefix)
        nodes = []
        walk = machine._witnesses(max_len, b, machine._NO_CAP, prefix=prefix, start=start, nodes=nodes)
        assert list(walk) == []
        members = Counter()
        for p, why, state in nodes:
            hi = min(state[0] + 1, max_len) if why is machine._AT_END else max_len
            qs = [p + tail for tail in programs(hi - len(p))]
            members.update(qs)
            printed = {reference_run(q, b, FINITE, variant)[1] for q in qs}
            assert len(printed) == 1, (p, why)
            if why is machine._IN_LOOP:
                assert printed.pop().startswith(machine.to_str(state[3])), p
            else:
                assert printed == {machine.to_str(state[3])}, (p, why)
        assert members == Counter(prefix + q for q in programs(8)), prefix


@pytest.mark.parametrize("budget", (1, 2, 3, 4, 7, 1000))
def test_compiler_output_half_matches_per_program_runs(budget):
    # the class walks against every program run alone on both machines,
    # at every length cap; the report's bytes are those the reference's
    # counts give
    _, bad = hosting_counterexamples(8, budget)
    for max_len in range(-2, 9):
        rep = prior.compiler_prefix_check(max_len, budget)
        want = prior.CompilerCheckReport(
            max_len,
            budget,
            sum(3**n for n in range(max_len + 1)),
            [q for q in bad if len(q) <= max_len],
            rep.targets_checked,
            rep.mass_counterexamples,
        )
        assert json.dumps(rep.to_json()) == json.dumps(want.to_json()), max_len


def _run_output(program, budget, variant):
    return machine.run(program, budget, variant=variant).output


@pytest.mark.parametrize("budget", (7, 1000))
@pytest.mark.parametrize(
    "selected",
    [(1, 0, 1, (), 0, 0, None), (1, 1, 1, (), 1, 0, None)],
    ids=["selector-costs-no-step", "hosted-register-starts-at-1"],
)
def test_compiler_output_half_falls_back_when_the_hosted_start_moves(
    monkeypatch, selected, budget
):
    # run and the hosted walk share DUAL's start: moved, the classes whose
    # pair stops apart run their programs alone on run, and the report is
    # the per-program reference's under the same start
    monkeypatch.setattr(machine, "_SELECTED", selected)
    rep = prior.compiler_prefix_check(6, budget)
    want = hosting_counterexamples(6, budget, _run_output)
    assert (rep.outputs_checked, rep.output_counterexamples) == want
    assert rep.output_counterexamples
    assert rep.output_counterexamples == sorted(rep.output_counterexamples, key=program_to_index)


@pytest.mark.parametrize("budget", (1, 7, 200))
def test_head_table_matches_each_tape_run_alone(budget):
    # every 8-square tape run alone from _START against its entry in the
    # head memo: a slot halts printing that target, a state is where the
    # run waits at the tape's end, and None cannot score
    for targets in MC_BATCHES:
        head = prior._Heads(targets, budget)
        goals = [tuple(machine.to_ints(t)) for t in targets]
        cap = max(map(len, goals), default=0)
        for symbols in itertools.product((0, 1, 2), repeat=machine._HEAD_DEPTH):
            tape = bytes(symbols)
            why, state = machine._resume(tape, budget, cap)
            verdict = head[tape]
            case = (targets, budget, machine.to_str(tape))
            if isinstance(verdict, int):
                assert (why, state[3]) == (machine._AT_HALT, goals[verdict]), case
            elif verdict is not None:
                assert (why, state) == (machine._AT_END, verdict), case
                assert any(g[: len(state[3])] == state[3] for g in goals), case
            elif why is machine._AT_HALT:
                assert state[3] not in goals, case
            elif why is machine._AT_END:
                assert all(g[: len(state[3])] != state[3] for g in goals), case
            else:
                assert why in (machine._BAD_OUTPUT, machine._IN_LOOP, machine._AT_BUDGET), case


def _check_searchers_on_bodies(prefix, budget=300):
    # prefix, then every body of up to four instructions
    bodies = itertools.chain.from_iterable(
        itertools.product(INSTRUCTIONS, repeat=j) for j in range(5)
    )
    for body in bodies:
        p = prefix + "".join(body)
        _, out, status, *_ = reference_run(p, budget)
        halted = status == machine.HALTED
        ints = machine.to_ints(p)
        t = tuple(machine.to_ints(out))
        assert (_printed(ints, budget, len(t), t) == t) == halted, p
        want = t if halted else None
        assert _printed(ints, budget, len(out)) == want, p


def test_fast_forwarded_runs_match_reference_from_register_8():
    # eight INCs, then every body of up to four instructions: the loops the
    # bodies build start at register 8, and a cap of 2 is first reached
    # inside the period a proof spans
    bodies = itertools.chain.from_iterable(
        itertools.product(INSTRUCTIONS, repeat=j) for j in range(5)
    )
    for p in ("10" * 8 + "".join(body) for body in bodies):
        for cap, want in _fields_by_cap(reference_run(p, 333), (None, 1, 2, 99)).items():
            assert _fields(machine.run(p, 333, out_cap=cap)) == want, (p, cap)


@pytest.mark.parametrize("budget", (333, 20_001))
def test_fast_forward_needs_no_zero_between_the_visits(budget):
    # DEC OUT0 LOOP INC INC LOOP cycles through register 0, and its LOOP
    # meets anchor 0 at registers 2, 1, 2, ...: the climb from 1 to 2 passed
    # a zero, so it proves nothing, and a skip on it would stop the output
    p = "1100,01010,0"
    for cap, want in _fields_by_cap(reference_run(p, budget), (None, 4096)).items():
        assert _fields(machine.run(p, budget, out_cap=cap)) == want, cap


def test_pruned_searchers_match_reference_from_register_8():
    # eight INCs, then the bodies: the loops these build start at register
    # 8, so the cycle and divergence checks compare registers far from zero,
    # which short programs rarely reach
    _check_searchers_on_bodies("10" * 8)


def test_pruned_searchers_match_reference_after_the_register_returns_to_zero():
    # eight INCs and eight DECs bring the register back to zero at step
    # 16, then a MARK and the bodies: a loop state seen at register zero
    # and met again with a higher register proves nothing, since a zero
    # test there branched the other way
    _check_searchers_on_bodies("10" * 8 + "11" * 8 + ",,")


class _StepLimit(int):
    """A step budget that fails the test once a run has checked it more
    than `limit` times; a run checks it once per step."""

    def __new__(cls, budget, limit):
        self = super().__new__(cls, budget)
        self.limit = limit
        self.checks = 0
        return self

    def __gt__(self, steps):  # `steps < budget` asks the budget first
        self.checks += 1
        assert self.checks <= self.limit, f"still running after {self.limit} steps"
        return int.__gt__(self, steps)


@pytest.mark.parametrize("start", (3, 5, 7))
def test_pruned_searchers_see_a_cycle_entered_below_its_first_register(start):
    # after eight INCs, eight DECs and `start` INCs, the loop DEC DEC INC
    # LOOP takes the register down by one a pass until it cycles at 1; the
    # searchers see the cycle only because each visit's register replaces
    # the one stored for the loop state, and without that they run to the
    # budget
    p = "10" * 8 + "11" * 8 + "10" * start + ",," + "1111" + "10" + ",0"
    _, _, status, *_ = reference_run(p, 300)
    assert status == machine.BUDGET
    ints = machine.to_ints(p)
    budget = _StepLimit(10**6, limit=100)
    assert machine._resume(ints, budget, 0, ())[0] == machine._IN_LOOP
    assert 0 < budget.checks
    budget = _StepLimit(10**6, limit=100)
    assert machine._resume(ints, budget, 3)[0] == machine._IN_LOOP
    assert 0 < budget.checks


def test_pruned_runs_see_a_loop_state_first_met_at_register_zero():
    # INC x4 MARK DEC LOOP counts down to 0; then OUT0 OUT0 MARK LOOP INC
    # LOOP spins on the last LOOP at register 1, a loop state first stored
    # at register 0
    tape = machine.to_ints("10101010,,11,00000,,,010,0")
    budget = _StepLimit(10**6, limit=100)
    why, state = machine._resume(tape, budget, 2)
    assert (why, state[3]) == (machine._IN_LOOP, (0, 0))
    assert 0 < budget.checks


@pytest.mark.parametrize(
    "program, variant, symbol",
    [
        ("10,,00,0", T3, "0"),  # INC MARK OUT0 LOOP: a printing cycle
        (",,100000,0", T3, "0"),  # MARK INC OUT0 OUT0 LOOP: the register climbs
        ("0,,100000,0", DUAL, "0"),
        ("1,,100000,0", DUAL, "1"),  # the '1' table prints 1 for each OUT0
    ],
)
@pytest.mark.parametrize("mode", (FINITE, LAZY))
def test_run_skips_a_proven_loop_to_a_2_to_200_step_budget(program, variant, symbol, mode):
    budget = _StepLimit(2**200, limit=100)
    r = machine.run(program, budget, mode, variant, out_cap=4096)
    want = (symbol * 4096, machine.BUDGET, 2**200, True)
    assert (r.output, r.status, r.steps, r.truncated) == want
    assert r.consumed == len(program)


def test_run_skips_a_loop_first_met_at_register_zero():
    # INC x4 MARK DEC LOOP counts down to 0, OUT0 OUT0 prints, then the last
    # LOOP spins on itself at register 1
    for cap in (4096, None):  # the loop prints nothing, so no cap is needed
        budget = _StepLimit(2**200, limit=100)
        r = machine.run("10101010,,11,00000,,,010,0", budget, out_cap=cap)
        assert (r.output, r.status, r.steps, r.truncated) == ("00", machine.BUDGET, 2**200, False)
        assert 0 < budget.checks


def test_run_skips_a_cycle_through_register_zero():
    # DEC OUT0 LOOP INC INC LOOP: only the record of register-0 states
    # proves this cycle, and the run then skips to the end of its budget
    budget = _StepLimit(2**200, limit=100)
    r = machine.run("1100,01010,0", budget, out_cap=4096)
    assert (r.output, r.steps, r.truncated) == ("0" * 4096, 2**200, True)
    assert 0 < budget.checks


@pytest.mark.parametrize(
    "program, steps, hit",
    [
        ("10,,,0", 4, (1, 3, 0)),  # INC MARK LOOP: the LOOP repeats at step 4
        ("10,,00,0", 6, (1, 4, 1)),  # INC MARK OUT0 LOOP: a printing cycle
    ],
)
def test_pruned_runs_prove_a_loop_from_the_first_step(program, steps, hit):
    # the loop record is kept from step 1, so the second visit to the LOOP
    # proves the cycle; hit is the first visit as (register, steps, output
    # length)
    why, state = machine._resume(machine.to_ints(program), 10**6, machine._NO_CAP)
    assert (why, state[4], state[6]) == (machine._IN_LOOP, steps, hit)


def test_pruned_runs_decide_every_countdown_tape():
    # INC^a MARK DEC LOOP, then every body of up to four instructions: each
    # run halts, reaches the end of its tape or is proven to loop, and none
    # runs to the budget (3,000 checks in all)
    bodies = ["".join(b) for n in range(5) for b in itertools.product(INSTRUCTIONS, repeat=n)]
    assert len(bodies) == 7381
    for a in range(1, 9):
        for body in bodies:
            budget = _StepLimit(3000, limit=3000)
            why, _ = machine._resume(machine.to_ints("10" * a + ",,11,0" + body), budget, 3000)
            assert why in (machine._AT_HALT, machine._AT_END, machine._IN_LOOP), (a, body)


def test_pruned_searchers_abandon_a_printing_loop():
    # INC MARK OUT0 LOOP prints forever: no instruction reads the output, so
    # the loop record leaves its length out and sees the repeat at once
    budget = _StepLimit(10**6, limit=100)
    assert machine._resume(machine.to_ints("10,,00,0"), budget, 10**6)[0] == machine._IN_LOOP
    assert 0 < budget.checks


def test_mc_scorer_abandons_a_guess_past_the_longest_target(monkeypatch):
    # every tape is OUT0 forever, which no loop record sees: each guess must
    # die at its third symbol, the first past the longest target.  The head
    # memo runs the all-OUT0 head once with that cap, and kills it there
    # after 3 checks, so the samples' own runs take no step
    monkeypatch.setattr(prior, "_first_blocks", lambda seed, lo, hi: [bytes(62)] * (hi - lo))
    monkeypatch.setattr(prior, "_block_symbols", lambda block: bytes(62))
    budget = _StepLimit(10**6, limit=3)
    assert prior._Heads(["0", "00"], budget)[bytes(8)] is None
    assert budget.checks == 3
    budget = _StepLimit(10**6, limit=3)
    assert prior._mc_chunk(["0", "00"], budget, 0, (0, 5)) == [0, 0]
    assert budget.checks == 3  # the fill's, none of the samples'


def test_mc_scorer_abandons_a_guess_its_head_left_live(monkeypatch):
    # MARK INC OUT0 OUT0 fills the first 8 squares and waits at their end
    # having printed "00", so each sample resumes the memo's state; then
    # OUT0 forever, which no loop record sees: the resume must stop at its
    # first check, on the third symbol.  The memo's one fill checks 5 times:
    # four steps, then the fetch past the end
    tape = bytes(machine.to_ints(",,100000")) + bytes(54)
    monkeypatch.setattr(prior, "_first_blocks", lambda seed, lo, hi: [tape] * (hi - lo))
    monkeypatch.setattr(prior, "_block_symbols", lambda block: tape)
    budget = _StepLimit(10**6, limit=5)
    assert prior._Heads(["0", "00"], budget)[tape[:8]][:5] == (8, 1, 2, (0, 0), 4)
    assert budget.checks == 5
    budget = _StepLimit(10**6, limit=5 + 1 * 5)
    assert prior._mc_chunk(["0", "00"], budget, 0, (0, 5)) == [0, 0]
    assert budget.checks == 5 + 1 * 5


def test_canonical_walk_abandons_printing_loops():
    # the printing loops among the programs of up to 8 symbols die as
    # cycles instead of running to the budget; the mass is the one at B = 1000
    budget = _StepLimit(10**6, limit=50_000)
    assert prior.kraft_sum(8, budget).total_mass == Fraction(2279, 6561)
    assert 0 < budget.checks
