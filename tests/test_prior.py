import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_machine import (
    canonicalize_witness,
    reference_run,
    slot_symbols,
    stream_block,
    trinary_source,
)

from omni import complexity, machine, prior
from omni.prior import (
    canonical_programs,
    coding_theorem_gap,
    compiler_prefix_check,
    enumerate_prior,
    estimate_prior_mc,
    estimate_prior_mc_batch,
    kraft_sum,
)


def test_kraft_frozen_values():
    assert kraft_sum(0, 100).total_mass == 0
    assert kraft_sum(2, 100).total_mass == Fraction(1, 9)
    assert kraft_sum(4, 100).total_mass == Fraction(16, 81)
    assert kraft_sum(2, 100).program_count == 1  # just ",1"


def test_kraft_frozen_at_twelve():
    # computed by running each of the 3^12 strings alone
    rep = kraft_sum(12, 200)
    assert rep.total_mass == Fraction(246091, 531441)
    assert rep.program_count == 32835


@pytest.mark.parametrize("variant", (machine.T3, machine.DUAL))
def test_exact_sums_match_one_canonical_pass_at_ten(variant):
    # the benchmark's scale: each target-pruned sum and the Kraft sum equal
    # the per-output sums of one shortlex pass
    mass: dict[str, Fraction] = {}
    hits: Counter = Counter()
    for p, out in canonical_programs(10, 200, variant):
        mass[out] = mass.get(out, 0) + Fraction(1, 3 ** len(p))
        hits[out] += 1
    targets = ["".join(s) for n in (1, 2, 3) for s in itertools.product("01,", repeat=n)]
    assert len(targets) == 39
    for t in targets:
        est = enumerate_prior(t, 10, 200, variant)
        assert (est.exact, est.hits) == (mass.get(t, 0), hits[t]), t
    rep = kraft_sum(10, 200, variant)
    assert (rep.total_mass, rep.program_count) == (sum(mass.values()), hits.total())


def test_exact_sums_past_the_longest_program_cost_nothing():
    # at B = 1 and 2 no canonical program is longer than 4 symbols, so a cap
    # of 10^7 sums what a cap of 4 does; weighing each program in units of
    # 3^-L would make the sum's integers 10^7 digits long and take seconds
    start = time.perf_counter()
    kraft = kraft_sum(10**7, 1)
    exact = enumerate_prior("0", 10**7, 2)
    assert time.perf_counter() - start < 1
    want = kraft_sum(4, 1)
    assert (kraft.total_mass, kraft.program_count) == (want.total_mass, want.program_count)
    want = enumerate_prior("0", 4, 2)
    assert (exact.exact, exact.hits) == (want.exact, want.hits) == (Fraction(1, 81), 1)


@pytest.mark.parametrize(
    "max_len, budget, mass, count, short",
    ((8, 5, Fraction(2279, 6561), 527, 526), (10, 7, Fraction(8053, 19683), 4175, 4172)),
)
def test_kraft_sums_are_whole_from_a_small_budget(max_len, budget, mass, count, short):
    # a program canonical at B is canonical at every larger B, so the sum
    # grows with B: whole from B = 5 at L = 8 and from B = 7 at L = 10
    for b in (budget, 10**18):
        rep = kraft_sum(max_len, b)
        assert (rep.total_mass, rep.program_count) == (mass, count), b
    rep = kraft_sum(max_len, budget - 1)
    assert rep.total_mass < mass and rep.program_count == short


@pytest.mark.parametrize(
    "max_len, programs, longest", ((6, 66, 3), (8, 527, 5), (10, 4175, 7), (12, 32835, 9))
)
def test_longest_halting_canonical_run(max_len, programs, longest):
    # the measured maxima of ROADMAP item 12 (L = 14 is left out for
    # time): every canonical program halts, having read all of itself
    runs = [(p, machine.run(p, 200, machine.LAZY)) for p, _ in prior._walk(max_len, 200, prior.T3)]
    assert len(runs) == programs
    assert all(r.halted and r.consumed == len(p) for p, r in runs)
    assert max(r.steps for _, r in runs) == longest


# every string of up to four symbols, as the lazy walk's targets
UP_TO_4 = [t for n in range(5) for t in itertools.product((0, 1, 2), repeat=n)]


def test_lazy_cut_walk_yields_what_the_uncut_walk_yields():
    # a nodes list turns the cut off: the uncut walk resumes every child
    # of a node at register 0 one instruction short of the length cap,
    # where the cut one resumes only the HALT children
    for budget in (1, 2, 3, 7, 200):
        walks = [(max_len, len(t), t) for t in UP_TO_4 for max_len in range(9)]
        walks += [(max_len, budget, None) for max_len in range(11)]
        for max_len, cap, t in walks:
            args = (max_len, budget, cap, t)
            cut = list(machine._witnesses(*args, mode=machine.LAZY))
            uncut = list(machine._witnesses(*args, mode=machine.LAZY, nodes=[]))
            assert cut == uncut, args


def test_lazy_cut_halves_the_resumes_of_an_exact_sum(monkeypatch):
    # at L = 10 and B = 200 a nodes list, which turns the cut off, resumes
    # more than twice as many nodes
    calls = []
    resume = machine._resume
    monkeypatch.setattr(machine, "_resume", lambda *a: calls.append(1) or resume(*a))
    kraft_sum(10, 200)
    assert len(calls) == 16945
    calls.clear()
    list(machine._witnesses(10, 200, 200, mode=machine.LAZY, nodes=[]))
    assert len(calls) == 37441
    calls.clear()
    enumerate_prior("01", 10, 200)
    assert len(calls) == 6573
    calls.clear()
    list(machine._witnesses(10, 200, 2, (0, 1), mode=machine.LAZY, nodes=[]))
    assert len(calls) == 13429


def test_kraft_monotone_and_bounded():
    masses = [kraft_sum(level, 500).total_mass for level in range(0, 9, 2)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    assert masses[-1] < 1


def test_enumerate_prior_frozen():
    assert enumerate_prior("", 2, 100).exact == Fraction(1, 9)
    est = enumerate_prior("0", 4, 100)
    assert est.exact == Fraction(1, 81) and est.hits == 1
    assert enumerate_prior("0", 2, 100).exact == 0


def test_canonical_programs_refuse_t3c():
    # only the T3 and DUAL walks define canonical programs
    with pytest.raises(ValueError):
        list(canonical_programs(3, 10, machine.T3C))


def test_canonical_set_is_prefix_free_small():
    progs = [p for p, _ in canonical_programs(5, 500)]
    seen = set(progs)
    for p in progs:
        for cut in range(len(p)):
            assert p[:cut] not in seen


def test_sample_seed_spreads():
    seeds = {prior.sample_seed(0, i) for i in range(4096)}
    assert len(seeds) == 4096
    assert prior.sample_seed(1, 0) != prior.sample_seed(0, 1)


def test_trinary_source_draws_all_symbols():
    src = trinary_source(0, 0)
    draws = [next(src) for _ in range(3000)]
    counts = {s: draws.count(s) for s in "01,"}
    assert all(800 < c < 1200 for c in counts.values())


def test_mc_deterministic_and_worker_invariant():
    a = estimate_prior_mc("0", 5000, 100, seed=9)
    b = estimate_prior_mc("0", 5000, 100, seed=9, workers=3)
    assert (a.p_hat, a.hits) == (b.p_hat, b.hits)
    c = estimate_prior_mc("0", 5000, 100, seed=10)
    assert a.hits != c.hits  # different seed, different sweep


def test_mc_batch_equals_individual():
    batch = estimate_prior_mc_batch(["", "0"], 3000, 100, seed=4)
    solo = estimate_prior_mc("0", 3000, 100, seed=4)
    assert batch["0"].hits == solo.hits


def test_mc_tracks_enumeration():
    # the sampler realizes exactly the canonical programs, so its estimate
    # sits above the truncated enumeration and below 1 - everything-else
    est = estimate_prior_mc("", 40_000, 100, seed=0)
    low = float(enumerate_prior("", 8, 100).exact)
    assert low - 4 * est.stderr <= est.p_hat <= 1.0


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_guess_runner_equals_sampled_reference(seed):
    # the sampler scores sample seed against every string of up to two
    # symbols and the reference's output: it hits that output when the
    # reference halts, and nothing otherwise
    _, out, status, *_ = reference_run(
        max_steps=40, mode=machine.LAZY, source=trinary_source(123, seed)
    )
    want = out if status == machine.HALTED else None
    short = {"".join(s) for n in range(3) for s in itertools.product("01,", repeat=n)}
    batch = sorted(short | {out})
    hits = prior._mc_chunk(batch, 40, 123, (seed, seed + 1))
    assert hits == [int(t == want) for t in batch]


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_mc_hits_frozen(workers):
    # the exact hits pin the sample stream and the scoring: criterion 04's
    # tolerance is too wide to notice either changing
    est = estimate_prior_mc_batch(["", "0", "1,"], 20_000, 200, seed=5, workers=workers)
    assert [est[t].hits for t in ("", "0", "1,")] == [4937, 1181, 257]


def test_mc_chunk_splits_across_batch_edges():
    # a range over two batch edges scores as its two halves, cut inside a
    # batch, and as its samples one at a time, which mix no batch
    n = prior._BATCH
    targets = ["", "0", "1,"]
    lo, cut, hi = n - 3, n + 1000, 2 * n + 5
    whole = prior._mc_chunk(targets, 200, 3, (lo, hi))
    halves = [prior._mc_chunk(targets, 200, 3, b) for b in ((lo, cut), (cut, hi))]
    assert whole == [a + b for a, b in zip(*halves)]
    singles = [prior._mc_chunk(targets, 200, 3, (i, i + 1)) for i in range(lo, hi)]
    assert whole == [sum(col) for col in zip(*singles)]


def test_mc_worker_invariant_past_two_batches():
    samples = 2 * prior._BATCH + 1
    hits = [
        [e.hits for e in estimate_prior_mc_batch(["", "0", "1,"], samples, 200, 8, w).values()]
        for w in (1, 2)
    ]
    assert hits[0] == hits[1]


def test_mc_runs_only_the_heads_its_samples_read(monkeypatch):
    # the head memo runs a key when a sample first reads it: one sample
    # runs its 8-square head, and resumes it at most once more, not a walk
    # of every tape of 8 squares (3,440 runs)
    calls = []
    resume = machine._resume
    monkeypatch.setattr(machine, "_resume", lambda *a, **k: calls.append(a) or resume(*a, **k))
    estimate_prior_mc_batch(["0"], 1, 200, 0)
    assert 1 <= len(calls) <= 3


def test_mc_stream_head_matches_exact_mass():
    # criterion 04's tolerance carries the 0.653 of mass past L = 8, so it
    # cannot see a biased stream; this check has no residual term.  The
    # first L squares of a sample's stream, run alone in lazy mode, halt
    # printing t exactly when the sample's canonical program is at most L
    # long and prints t, so the hit rate's expectation is the exact mass
    n, L, B = 100_000, 10, 200
    hits = Counter()
    for i in range(n):
        key = prior.mix64(prior.sample_seed(0, i))
        squares, b = b"", 0
        while len(squares) < L:  # blocks b = 1, 2, ..., as _mc_chunk reads them
            b += 1
            squares += prior._block_symbols(prior.mix64(key + b * prior._MIX1))
        r = machine.run(machine.to_str(squares[:L]), B, machine.LAZY)
        if r.status == machine.HALTED:
            hits[r.output] += 1
    for t in ("", "0", "0,", "1,"):
        p = float(enumerate_prior(t, L, B).exact)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits[t] / n - p) <= 4 * sigma, (t, hits[t] / n, p)


def test_mc_reports_a_wilson_upper_bound():
    # zero hits: the Wald stderr is 0, the Wilson bound z^2 / (n + z^2)
    est = estimate_prior_mc("0000000000", 500, 50, seed=0)
    assert (est.hits, est.stderr) == (0, 0.0)
    assert est.p_upper == pytest.approx(1.96**2 / (500 + 1.96**2), rel=1e-12)
    est = estimate_prior_mc("", 2000, 100, seed=1)
    assert est.p_hat + est.stderr < est.p_upper < est.p_hat + 3 * est.stderr
    assert est.to_json()["rng"] == "splitmix64"


def test_block_symbols_read_every_byte_at_every_position():
    # each byte value alone at each of a block's 8 byte positions, and in
    # all of them at once
    for b in range(8):
        for i in range(256):
            for block in (i << 8 * b, i * 0x0101010101010101):
                assert list(prior._block_symbols(block)) == slot_symbols(block, 32), block


def test_packed_decode_ignores_the_lane_above_each_block():
    # chosen blocks, one per 128-bit lane, beside all-ones and all-zeros
    # neighbours, in an int as _first_blocks' last xor-shift leaves it: z ^=
    # z >> 31 on lanes that each held the block's inverse under that shift
    # puts each block in its lane's low 64 bits, and lane j + 1's low bits
    # in lane j's bits 97-127.  _tapes must mask them off before it spreads
    # the slices, and must ignore upper halves that are all ones as well
    full = (1 << 64) - 1
    for v in (0, full, 1 << 62, 3 << 62, 0b111111 << 58):
        for blocks in ([full, v, 0], [0, v, full], [full, v, full, v], [v, 0, v, full]):
            n = len(blocks)
            ones = sum(1 << 128 * j for j in range(n))
            pre = sum((x ^ x >> 31 ^ x >> 62) << 128 * j for j, x in enumerate(blocks))
            want = [bytes(slot_symbols(x, 32)) for x in blocks]
            masks = [ones * m for m in prior._MASKS]
            for z in (pre ^ pre >> 31, (pre ^ pre >> 31) & ones * full | ones * (full << 64)):
                assert prior._tapes(z, n, masks) == want, (blocks, hex(z))


@pytest.mark.parametrize("batch", (1, 3, 64, 1024, 4096))
def test_tapes_and_hits_do_not_depend_on_the_batch_size(monkeypatch, batch):
    # a batch of 3 mixes 4 lanes (batches grow in powers of two); every
    # range crosses a batch edge at some size, and the tapes are those of
    # the reference's stream whatever the size
    monkeypatch.setattr(prior, "_BATCH", batch)
    targets = ["", "0", "1,"]
    for lo, hi in ((0, 1), (1023, 1026), (3, 4100), (4095, 8200)):
        want = [bytes(slot_symbols(stream_block(7, i, 1), 32)) for i in range(lo, hi)]
        assert list(prior._first_blocks(7, lo, hi)) == want, (lo, hi)
    # samples 3..4099 score the same at every batch size
    assert prior._mc_chunk(targets, 200, 7, (3, 4100)) == [962, 243, 52]


def test_draining_first_blocks_holds_one_batch():
    # the tapes of one batch live at a time: draining 8 batches and 64
    # batches peaks the same, and below 512 KiB at this _BATCH, so the
    # decode does not raise a run's resident memory
    def peak(samples):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in prior._first_blocks(3, 0, samples):
                pass
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    few, many = peak(8 * prior._BATCH), peak(64 * prior._BATCH)
    assert abs(many - few) <= 4096, (few, many)
    assert many < 512 * 1024, many


def test_block_split_equals_per_slot_reading():
    rng = random.Random(2024)
    # all-zero, all-one and top-slice-only blocks, then seeded draws
    edges = [0, (1 << 64) - 1, 1 << 62, 2 << 62, 3 << 62, 0b111111 << 58]
    for block in edges + [rng.getrandbits(64) for _ in range(20_000)]:
        assert list(prior._block_symbols(block)) == slot_symbols(block, 32), block


def test_samples_validation():
    with pytest.raises(ValueError):
        estimate_prior_mc("0", 0, 100, seed=0)


def test_coding_gap_is_never_positive():
    rep = coding_theorem_gap(["", "0", "0,1"], 8, 1000)
    gaps = rep.gaps
    assert len(gaps) == 3
    assert max(gaps) <= 1e-12
    for entry in rep.entries:
        assert entry.k_canonical >= entry.k_hat
        assert entry.k_canonical - entry.k_hat in (0, 2)


def test_coding_gap_prices_a_halting_witness_as_its_own_canonical_form(monkeypatch):
    # the shortest witness of this target, 00010,01001,,110,0 (print
    # 01,10, SKIPZ, HALT, INC, LOOP), skips HALT on its first pass and runs
    # it on its second, having read its last pair, so it is canonical as it
    # stands: k_canonical is k_hat, not k_hat + 2.  The mass is stubbed
    # out; only the level it would be priced at is recorded.
    searched, levels = [], []
    search = complexity.shortest_program_upper_bound

    def record_search(*args):
        searched.append(search(*args))
        return searched[-1]

    def record_level(target, level, budget):
        levels.append(level)
        return prior.PriorEstimate(target, "enum", 1.0, None, None, level, budget, 1, Fraction(1))

    monkeypatch.setattr(complexity, "shortest_program_upper_bound", record_search)
    monkeypatch.setattr(prior, "enumerate_prior", record_level)
    (entry,) = coding_theorem_gap(["01,1001,10"], 18, 1000).entries
    assert (entry.k_hat, entry.k_canonical, levels) == (18, 18, [18])
    witness = searched[0].witness
    assert witness == "00010,01001,,110,0"
    assert canonicalize_witness(witness, 1000) == witness


def test_coding_gap_unreachable_target_skipped():
    rep = coding_theorem_gap(["000000"], 4, 200)
    assert rep.entries[0].gap is None
    assert rep.to_json()["max_gap"] is None


def test_coding_gap_at_negative_length_cap_prices_nothing():
    rep = coding_theorem_gap([""], -1, 10)
    assert rep.to_json()["targets"] == [
        {"target": "", "k_hat": None, "k_canonical": None, "mass": 0.0, "gap": None}
    ]


def test_compiler_check_small():
    rep = compiler_prefix_check(4, 300)
    assert rep.ok
    assert rep.outputs_checked == (3**5 - 1) // 2
    assert rep.output_counterexamples == [] and rep.mass_counterexamples == []
    assert compiler_prefix_check(-2, 10).outputs_checked == 0


def test_compiler_check_memory_is_flat_in_the_budget():
    # the output half compares the states its walks stopped in, so no
    # output grows past what a walk printed: run alone, a printing loop
    # among these programs would store about 10**6 symbols at this budget
    tracemalloc.start()
    try:
        rep = compiler_prefix_check(7, 2 * 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.outputs_checked == (3**8 - 1) // 2
    assert peak < 2**20


def test_compiler_mass_half_needs_a_step_for_the_selector():
    # the mass half gives DUAL B + 1 steps, as the output half does, so
    # "0"+p runs p in B steps and even the targets whose programs need all
    # B steps keep their hosted twins
    for max_len in range(8):
        for budget in range(1, 6):
            rep = compiler_prefix_check(max_len, budget)
            assert rep.mass_counterexamples == [], (max_len, budget)
            assert rep.output_counterexamples == [], (max_len, budget)
    assert compiler_prefix_check(7, 3).targets_checked == 13


def test_dual_canonical_mass_construction():
    # hosted programs "0"+p put at least a third of each target's mass one
    # level up; spot-check the empty output
    t3 = enumerate_prior("", 4, 200).exact
    dual = enumerate_prior("", 5, 200, variant=machine.DUAL).exact
    assert dual >= Fraction(t3, 3)


def test_dual_mass_is_selectors_plus_two_thirds_of_t3():
    # DUAL's canonical programs are "," and then "0"+p and "1"+p for each
    # T3 canonical p of length <= L-1 at budget B-1, and "1"+p prints p's
    # output with 0 and 1 swapped.  T3 is symmetric in 0 and 1, so both
    # tables carry a third of the T3 mass each; "," adds 1/3 to the empty
    # output once L >= 1.
    targets = ["".join(p) for n in range(4) for p in itertools.product("01,", repeat=n)]
    for t in targets:
        for budget in (2, 3, 17, 200):
            for max_len in range(9):
                s = int(t == "" and max_len >= 1)
                t3 = enumerate_prior(t, max_len - 1, budget - 1)
                dual = enumerate_prior(t, max_len, budget, variant=machine.DUAL)
                case = (t, max_len, budget)
                assert dual.exact == Fraction(s, 3) + Fraction(2, 3) * t3.exact, case
                assert dual.hits == s + 2 * t3.hits, case


def test_hosting_check_weights_are_twice_t3_plus_the_selector():
    # compiler_prefix_check's weight tables, T3's in units of 3^-L and
    # DUAL's in units of 3^-(L+1), are tied by the equality above for every
    # output, where the check asks only DUAL >= T3: "0"+p and "1"+p carry
    # p's weight each, and "," adds 3^L to the empty output
    for max_len in range(9):
        for budget in (1, 2, 3, 5, 7, 200):
            t3_w = Counter()
            for p, out in canonical_programs(max_len, budget):
                t3_w[out] += 3 ** (max_len - len(p))
            dual_w = Counter()
            for p, out in canonical_programs(max_len + 1, budget + 1, machine.DUAL):
                dual_w[out] += 3 ** (max_len + 1 - len(p))
            expected = Counter({out: 2 * w for out, w in t3_w.items()})
            expected[""] += 3**max_len
            assert dual_w == expected, (max_len, budget)


def test_dual_sums_start_from_the_selected_state(monkeypatch):
    # the exact sums host DUAL's tables from machine._SELECTED, as run does:
    # a selector that costs no step leaves the hosted T3 all B steps
    monkeypatch.setattr(machine, "_SELECTED", (1, 0, 1, (), 0, 0, None))
    for max_len, budget in ((6, 2), (8, 3)):
        t3 = kraft_sum(max_len - 1, budget).total_mass
        dual = kraft_sum(max_len, budget, machine.DUAL).total_mass
        assert dual == Fraction(1, 3) + Fraction(2, 3) * t3, (max_len, budget)
