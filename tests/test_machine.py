import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omni import machine
from omni.enumeration import programs
from omni.machine import BUDGET, DUAL, HALTED, LAZY, T3, T3C, run

programs_st = st.text(alphabet="01,", max_size=8)


def test_symbol_table_roundtrip():
    assert machine.to_str(machine.to_ints("01,")) == "01,"
    with pytest.raises(ValueError):
        machine.to_ints("01x")


def test_frozen_full_run():
    # worked by hand: OUT0 OUTC OUT1 HALT
    r = run("000,01,1", 50)
    assert (r.output, r.status, r.consumed, r.steps) == ("0,1", HALTED, 8, 4)
    assert r.halted and not r.truncated


def test_finite_mode_halts_off_end():
    r = run("00", 50)
    assert (r.output, r.status, r.consumed, r.steps) == ("0", HALTED, 2, 1)


def test_finite_lone_trailing_symbol_is_consumed():
    r = run("000", 50)
    assert (r.output, r.status, r.consumed) == ("0", HALTED, 3)


def test_lazy_mode_only_halt_instruction_halts():
    r = run("000,01", 50, LAZY)
    assert (r.output, r.status) == ("0,1", BUDGET)
    assert run("000,01,1", 50, LAZY).status == HALTED


def test_empty_program():
    assert run("", 10).status == HALTED
    assert run("", 10).consumed == 0
    assert run("", 10, LAZY).status == BUDGET


def test_skipz_consumes_skipped_squares():
    # reg starts 0, so SKIPZ jumps over the OUT0 that follows
    r = run("1,00", 50)
    assert (r.output, r.consumed, r.status) == ("", 4, HALTED)
    # with reg 1 the skip does not fire
    r = run("101,00", 50)
    assert (r.output, r.status) == ("0", HALTED)


def test_dec_saturates_at_zero():
    r = run("1111", 50)
    assert r.status == HALTED  # no underflow, no error


def test_mark_loop_counts_down():
    # INC INC MARK OUT0*5 DEC LOOP prints 5 zeros twice
    r = run("1010,,000000000011,0", 10_000)
    assert (r.output, r.status) == ("0" * 10, HALTED)


def test_loop_without_mark_jumps_to_program_start():
    # INC then LOOP: anchor still 0, so it re-runs INC forever
    r = run("10,0", 100, LAZY)
    assert r.status == BUDGET and r.steps == 100


def test_output_cap_truncates():
    r = run("1010,,000000000011,0", 10_000, out_cap=4)
    assert r.output == "0000" and r.truncated
    # its report leaves the flag out; no report corpus row reaches this,
    # since omni run refuses a truncated run
    assert list(r.to_json()) == ["program", "output", "status", "consumed", "steps"]


def test_output_cap_bounds_the_stored_output():
    # 200 READAUX of a 100,000-symbol aux tape print 2*10^7 symbols; the run
    # stores the first 4,096 and no more
    tracemalloc.start()
    try:
        r = run(",," * 200, 1000, variant=T3C, aux="0" * 100_000, out_cap=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.output, r.status, r.consumed, r.steps, r.truncated) == ("0" * 4096, HALTED, 400, 200, True)
    assert peak < 8 * 2**20


def test_t3c_mark_becomes_copy_all():
    r = run(",,", 50, variant=T3C, aux="01")
    assert (r.output, r.status) == ("01", HALTED)
    # empty aux: the instruction is a no-op
    r = run(",,", 50, variant=T3C, aux="")
    assert (r.output, r.status) == ("", HALTED)
    # two copies then a literal
    r = run(",,,,01", 50, variant=T3C, aux="0,")
    assert r.output == "0,0,1"


def test_aux_only_valid_for_t3c():
    with pytest.raises(ValueError):
        run("00", 10, aux="0")
    with pytest.raises(ValueError):
        run("00", 10, variant=T3C)  # aux required


def test_dual_selector():
    # '0' hosts the base machine on the rest
    assert run("000", 50, variant=DUAL).output == "0"
    # '1' hosts it with OUT0/OUT1 swapped
    assert run("101", 50, variant=DUAL).output == "0"
    assert run("100", 50, variant=DUAL).output == "1"
    assert run("10,", 50, variant=DUAL).output == ","  # OUTC unaffected
    # ',' halts immediately, selector consumed
    r = run(",", 50, variant=DUAL)
    assert (r.output, r.status, r.consumed, r.steps) == ("", HALTED, 1, 1)
    assert run("", 50, variant=DUAL).status == HALTED
    assert run("", 50, LAZY, DUAL).status == BUDGET


def test_dual_accounting_adds_selector():
    base = run("000,01,1", 50)
    hosted = run("0" + "000,01,1", 51, variant=DUAL)
    assert hosted.output == base.output
    assert hosted.consumed == base.consumed + 1
    assert hosted.steps == base.steps + 1


def test_max_steps_validation():
    with pytest.raises(ValueError):
        run("00", 0)


def test_negative_out_cap_is_refused():
    # a cap below 0 keeps nothing and would mark every run truncated
    with pytest.raises(ValueError, match="out_cap"):
        run("00,1", 10, out_cap=-1)
    assert run("00,1", 10, out_cap=0).truncated


@pytest.mark.parametrize("mode, variant", [("eager", T3), (LAZY, "bogus"), (LAZY, "DUAL")])
def test_unknown_mode_or_variant_is_refused(mode, variant):
    with pytest.raises(ValueError, match="unknown"):
        run("00,1", 10, mode, variant)


def test_is_canonical():
    # canonical: the lazy run halts having consumed exactly the program
    def canonical(p):
        r = run(p, 10, LAZY)
        return r.halted and r.consumed == len(p)

    assert canonical(",1")
    assert canonical("00,1")
    assert not canonical("00")  # lazy run starves
    assert not canonical("00,10")  # trailing symbol unread
    assert not canonical("")


@pytest.mark.parametrize("targeted", (True, False))
@pytest.mark.parametrize(
    "readaux, aux, out_cap", [(False, None, None), (True, [0, 2], None), (False, None, 1)]
)
def test_resumed_run_equals_a_fresh_run(targeted, readaux, aux, out_cap):
    # start on a prefix, then resume each suspended state the way the
    # tape-tree walk does, on the tape grown to the square its next fetch
    # reads: the last result, suspended state included, equals one run of
    # the whole program from square 0
    aux = tuple(aux) if readaux else None
    cap = 100 if out_cap is None else out_cap
    target = ((0, 2) * 50)[:cap] if targeted else None
    for prog in map(machine.to_ints, programs(6)):
        want = machine._resume(prog, 40, cap, target, aux)
        for cut in range(len(prog)):
            got = machine._resume(prog[:cut], 40, cap, target, aux)
            while got[0] == machine._AT_END and got[1][0] + 2 <= len(prog):
                state = got[1]
                got = machine._resume(prog[: state[0] + 2], 40, cap, target, aux, state)
            assert got == want, (prog, cut)


def _fed(source, budget, cap):
    """Run a tape that starts empty and gains one square from a symbol
    iterator each time the run reaches its end, as prior's sampler gains a
    block; returns (why, state, tape)."""
    tape = []
    why, state = machine._resume(tape, budget, cap)
    while why == machine._AT_END:
        tape += machine.to_ints(next(source))
        why, state = machine._resume(tape, budget, cap, state=state)
    return why, state, tape


def test_walk_refuses_a_prefix_with_a_non_symbol():
    # the walk takes its prefix as program text and converts it
    with pytest.raises(ValueError, match="not a machine symbol"):
        list(machine._witnesses(6, 10, 1, prefix="0x"))


def test_drawn_tape_scripted_source():
    why, state, tape = _fed(iter("000,01,1" + ",,,,,,"), 50, 50)
    assert (why, machine.to_str(state[3]), state[4]) == (machine._AT_HALT, "0,1", 4)
    assert machine.to_str(tape) == "000,01,1"  # squares are appended only when a fetch needs them
    # fed nothing more, a run out of symbols suspends instead of halting
    why, state = machine._resume(machine.to_ints("00"), 50, 50)
    assert (why, state[0], machine.to_str(state[3])) == (machine._AT_END, 2, "0")


@given(programs_st)
@settings(max_examples=200)
def test_sampled_run_agrees_with_fixed_lazy_run(p):
    source = itertools.chain(iter(p), itertools.repeat(","))
    why, state, _ = _fed(source, 64, 64)
    fixed = run(p + "," * 130, 64, LAZY)
    assert why != machine._AT_END  # a fed tape never ends
    assert (why == machine._AT_HALT) == fixed.halted
    if fixed.halted:
        assert state[3] == tuple(machine.to_ints(fixed.output))


@given(programs_st, st.integers(min_value=1, max_value=30))
@settings(max_examples=200)
def test_budget_monotone(p, b):
    # once halted, a bigger budget returns the identical result
    r1 = run(p, b)
    r2 = run(p, b + 17)
    if r1.status == HALTED:
        assert (r2.output, r2.consumed, r2.steps) == (r1.output, r1.consumed, r1.steps)
    else:
        assert r1.output == r2.output[: len(r1.output)]


@given(programs_st)
@settings(max_examples=200)
def test_canonical_programs_halt_in_finite_mode_identically(p):
    lazy = run(p, 64, LAZY)
    if lazy.status == HALTED and lazy.consumed == len(p):
        finite = run(p, 64)
        assert (finite.output, finite.status) == (lazy.output, HALTED)
