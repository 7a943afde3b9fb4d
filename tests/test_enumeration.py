import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_machine import index_to_program as index_to_program_by_digits
from reference_machine import reference_run

from omni import enumeration, machine
from omni.enumeration import (
    OUTPUT_CAP,
    DovetailRegistry,
    dovetail,
    index_to_program,
    program_to_index,
    programs,
    steps_offered,
)

FIRST_FOURTEEN = [
    "", "0", "1", ",", "00", "01", "0,", "10", "11", "1,", ",0", ",1", ",,", "000",
]


def test_first_indices_frozen():
    assert [index_to_program(k) for k in range(1, 15)] == FIRST_FOURTEEN


def test_shortlex_order():
    # length first, then '0' < '1' < ',' within a length
    seen = [index_to_program(k) for k in range(1, 500)]
    assert seen == sorted(seen, key=lambda p: (len(p), machine.to_ints(p)))


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=300)
def test_bijection_roundtrip_index(k):
    assert program_to_index(index_to_program(k)) == k


@given(st.text(alphabet="01,", max_size=12))
@settings(max_examples=300)
def test_bijection_roundtrip_program(p):
    assert index_to_program(program_to_index(p)) == p


def test_index_to_program_matches_programs_up_to_nine_symbols():
    listed = list(programs(9))
    assert len(listed) == (3**10 - 1) // 2
    assert [index_to_program(k) for k in range(1, len(listed) + 1)] == listed


def test_index_to_program_at_every_length_boundary():
    # the first n-symbol program sits at (3^n + 1)/2: there k - 1 is n ones
    # in bijective base 3, "0" * n, and one index before, n - 1 threes
    for n in range(201):
        first = (3**n + 1) // 2
        for k in (first - 1, first, first + 1):
            if k >= 1:
                assert index_to_program(k) == index_to_program_by_digits(k)
                assert program_to_index(index_to_program(k)) == k
        assert len(index_to_program(first)) == n
        assert first == 1 or len(index_to_program(first - 1)) == n - 1


def test_program_range_matches_index_to_program():
    # _program_range writes one program per block of 729 indices and
    # appends each row's last six symbols; ranges start and stop inside a
    # block, span several, cross a length, or reach hundreds of symbols
    rng = random.Random(24)
    for _ in range(50):
        start = rng.choice(
            [rng.randrange(1, 2000), rng.randrange(1, 10**8), rng.randrange(1, 3**70), rng.randrange(1, 3**300)]
        )
        stop = start + rng.randrange(0, 2500)
        want = [index_to_program(k) for k in range(start, stop + 1)]
        assert want == [index_to_program_by_digits(k) for k in range(start, stop + 1)], (start, stop)
        assert list(enumeration._program_range(start, stop)) == want, (start, stop)


def test_index_to_program_at_a_5000_digit_index():
    k = 3**5000
    program = index_to_program(k)
    assert program == index_to_program_by_digits(k)
    assert len(program) == 5000 and program_to_index(program) == k


@pytest.mark.parametrize("k", [0, -1, -(3**40)])
def test_index_to_program_rejects_non_positive(k):
    with pytest.raises(ValueError):
        index_to_program(k)


def test_programs_generator_matches_bijection():
    gen = list(programs(3))
    assert gen == [index_to_program(k) for k in range(1, len(gen) + 1)]
    assert len(gen) == (3**4 - 1) // 2


def test_programs_below_min_len_are_none():
    assert list(programs(-1)) == list(programs(1, min_len=2)) == []
    assert list(programs(0)) == [""]
    assert len(list(programs(2, min_len=2))) == 9


def _owner_by_definition(t):
    # A_1 takes every second step; A_k takes every second remaining step
    k = 1
    while t % 2 == 0:
        t //= 2
        k += 1
    return k


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=300)
def test_step_owner_closed_form(t):
    # step t raises exactly its owner's offered count by one
    gained = [k for k in range(1, 22) if steps_offered(t, k) != steps_offered(t - 1, k)]
    assert gained == [_owner_by_definition(t)]
    assert steps_offered(t, gained[0]) - steps_offered(t - 1, gained[0]) == 1


@given(st.integers(min_value=1, max_value=4096))
@settings(max_examples=60)
def test_steps_offered_counts_owners(n):
    counts = {}
    for t in range(1, n + 1):
        k = _owner_by_definition(t)
        counts[k] = counts.get(k, 0) + 1
    for k in range(-1, 16):  # no step goes to an index below 1
        assert steps_offered(n, k) == counts.get(k, 0)
    assert sum(counts.values()) == n


def test_dovetail_small_frozen():
    reg = dovetail(8)
    assert sorted(reg.entries) == [1, 2, 3, 4]
    # offered: 4, 2, 1, 1; halting forfeits the rest
    assert steps_offered(8, 1) == 4 and steps_offered(8, 4) == 1
    assert reg.requested_steps == 8
    assert reg.total_steps == sum(e.steps_executed for e in reg.entries.values())
    assert reg.entries[1].halted  # the empty program halts at once
    # A_k is offered a step exactly for k <= n.bit_length()
    for n in (2**10 - 1, 2**10, 2**10 + 1):
        assert sorted(dovetail(n).entries) == list(range(1, n.bit_length() + 1))


def test_snapshot_rows_schema():
    rows = dovetail(64).snapshot_rows()
    head = rows[0]
    assert head["schema"] == 1 and head["kind"] == "dovetail-registry"
    assert set(head) == {
        "schema", "kind", "cap", "requested_steps", "executed_steps", "mode",
    }
    for row in rows[1:]:
        assert set(row) == {
            "k", "program", "steps", "halted", "output_prefix", "truncated",
        }
    # rows are sorted by index
    ks = [r["k"] for r in rows[1:]]
    assert ks == sorted(ks)


def test_dovetail_worker_count_invisible():
    a = dovetail(2**10, workers=1).snapshot_rows()
    b = dovetail(2**10, workers=3).snapshot_rows()
    assert json.dumps(a) == json.dumps(b)


def test_dovetail_lazy_mode():
    # 2^12 slots so A_12 gets at least one step: offered(k) = N/2^k rounded
    reg = dovetail(2**12, mode=machine.LAZY)
    assert reg.mode == machine.LAZY
    # under lazy rules nothing halts except via the HALT instruction
    assert not reg.entries[2].halted  # "0" starves instead of halting
    assert reg.entries[12].halted  # ",1" executes HALT


@pytest.mark.parametrize("mode", (machine.FINITE, machine.LAZY))
def test_dovetail_at_a_3280_bit_clock(mode):
    # A_k is offered 2^(3280 - k) steps, A_3281 one: every looping entry
    # skips its proven loop's periods, and the entries offered 2^14 steps or
    # fewer agree with the reference interpreter stepping them one by one
    n = 2**3280
    reg = dovetail(n, mode)
    assert sorted(reg.entries) == list(range(1, 3282))
    assert reg.total_steps == sum(e.steps_executed for e in reg.entries.values())
    checked = 0
    for k, e in reg.entries.items():
        offered = steps_offered(n, k)
        if offered <= 2**14:
            _, out, status, _, steps, truncated = reference_run(e.program, offered, mode, out_cap=OUTPUT_CAP)
            got = (e.output_prefix, e.halted, e.steps_executed, e.truncated)
            assert got == (out, status == machine.HALTED, steps, truncated), k
            checked += 1
    assert checked == 16
    # INC OUT0 LOOP prints and climbs forever: it uses its whole allotment
    k = program_to_index("1000,0")
    e = reg.entries[k]
    assert (e.steps_executed, e.output_prefix, e.truncated) == (steps_offered(n, k), "0" * OUTPUT_CAP, True)


def test_snapshot_rows_round_trip():
    reg = dovetail(2**12, mode=machine.LAZY)
    assert DovetailRegistry.from_rows(reg.snapshot_rows()) == reg
    # and through JSON, as omni dedup reads a snapshot file
    rows = [json.loads(json.dumps(row)) for row in reg.snapshot_rows()]
    assert DovetailRegistry.from_rows(rows) == reg
