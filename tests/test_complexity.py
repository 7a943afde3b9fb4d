import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omni import machine
from omni.complexity import (
    compressibility_census,
    conditional_upper_bound,
    mutual_information_estimate,
    shortest_program_upper_bound,
)


def test_frozen_upper_bounds():
    assert shortest_program_upper_bound("", 4, 100).k_hat == 0
    b = shortest_program_upper_bound("0", 4, 100)
    assert (b.k_hat, b.witness) == (2, "00")
    b = shortest_program_upper_bound("0,1", 8, 500)
    assert (b.k_hat, b.witness) == (6, "000,01")


def test_search_miss_returns_none():
    b = shortest_program_upper_bound("0101", 6, 500)
    assert b.k_hat is None and b.witness is None


def test_ten_zeros_needs_the_full_literal():
    # a counted loop costs 2k+2m+6 >= 20 symbols for k*m = 10 zeros, as
    # much as the literal; the 18-symbol program of the next test is shorter
    assert shortest_program_upper_bound("0" * 10, 10, 1000).k_hat is None
    lit = machine.run("00" * 10, 100)
    loop = machine.run("1010,,000000000011,0", 1000)
    assert lit.output == loop.output == "0" * 10


def test_ten_zeros_within_fourteen_symbols_has_no_witness():
    assert shortest_program_upper_bound("0" * 10, 14, 1000).k_hat is None


def test_ten_zeros_in_eighteen_symbols():
    # OUT0 x5, SKIPZ over HALT, INC, LOOP back to square 0, OUT0 x5, and
    # with the register now 1 the SKIPZ falls through to HALT
    r = machine.run("00000000001,,110,0", 1000)
    assert (r.status, r.output, r.consumed) == (machine.HALTED, "0" * 10, 18)


def test_negative_length_cap_means_no_programs():
    assert shortest_program_upper_bound("", -3, 10).to_json()["k_hat"] is None
    b = conditional_upper_bound("", "0", -1, 10)
    assert (b.k_hat, b.witness) == (None, None)
    assert shortest_program_upper_bound("", 0, 10).k_hat == 0


def test_conditional_uses_aux_copies():
    b = conditional_upper_bound("0101", "0101", 6, 100)
    assert (b.k_hat, b.witness, b.conditional_on) == (2, ",,", "0101")
    b = conditional_upper_bound("0101", "01", 6, 100)
    assert (b.k_hat, b.witness) == (4, ",,,,")


def test_conditional_never_worse_than_plain_for_unconditional_witness():
    # the plain literal contains no ',,' block, so it runs unchanged on aux
    plain = shortest_program_upper_bound("0,", 6, 100)
    cond = conditional_upper_bound("0,", "111", 6, 100)
    assert cond.k_hat <= plain.k_hat


def test_mutual_information_frozen():
    m = mutual_information_estimate("0101", "0101", 8, 500)
    assert (m.value, m.clamped) == (6, False)
    assert m.plain.k_hat == 8 and m.conditional.k_hat == 2


def test_mutual_information_none_propagates():
    m = mutual_information_estimate("0", "000000", 4, 100)
    assert m.value is None


def test_mutual_information_clamps_at_zero():
    # y is easy, conditioning on junk cannot push the estimate negative
    m = mutual_information_estimate("111", "0", 4, 100)
    assert m.value == 0 and not m.clamped


def test_census_frozen_small():
    rep = compressibility_census(2, 1, 6, 200)
    assert (rep.total, rep.compressible, rep.fraction) == (9, 0, 0.0)
    assert rep.to_json()["L"] == 6


def test_census_counting_bound_small():
    # fewer than 3^(n-c) programs are short enough, so the fraction of
    # n-symbol strings compressible by c symbols stays below 3^-c
    for n in (1, 2, 3):
        for c in (1, 2):
            rep = compressibility_census(n, c, n + 2, 500)
            assert rep.total == 3**n
            assert rep.fraction < 3.0**-c


def test_census_worker_count_invisible():
    a = compressibility_census(2, 1, 5, 200, workers=1)
    b = compressibility_census(2, 1, 5, 200, workers=3)
    assert a.to_json() == b.to_json()


def test_census_validation():
    with pytest.raises(ValueError):
        compressibility_census(0, 1, 4, 100)
    with pytest.raises(ValueError):
        compressibility_census(2, 0, 4, 100)


@given(
    st.text(alphabet="01,", max_size=5),
    st.text(alphabet="01,", max_size=3),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=300, deadline=None)
def test_match_search_agrees_with_plain_runner(p, target, budget):
    # the pruned matcher must answer exactly "halts in budget with output ==
    # target"; its aborts may only skip programs that cannot match
    r = machine.run(p, budget)
    expected = r.halted and r.output == target
    t = tuple(machine.to_ints(target))
    why, state = machine._resume(machine.to_ints(p), budget, len(t), t)
    matched = why in (machine._AT_END, machine._AT_HALT) and state[3] == t
    assert matched == expected
    if not r.halted:  # a run the plain runner leaves unfinished never halts here
        assert why not in (machine._AT_END, machine._AT_HALT)


# every string of up to five symbols, as the walk's targets
UP_TO_5 = [
    tuple(machine.to_ints("".join(s)))
    for n in range(6)
    for s in itertools.product("01,", repeat=n)
]


def _cut_and_uncut(*args, shortest=False):
    # a nodes list turns the cut off, so the second walk resumes every node
    cut = list(machine._witnesses(*args, shortest=shortest))
    return cut, list(machine._witnesses(*args, shortest=shortest, nodes=[]))


@pytest.mark.parametrize("shortest", (False, True))
def test_cut_walk_yields_what_the_uncut_walk_yields(shortest):
    # the cut skips the last level under a node at register 0 that has
    # printed too little for one more instruction to reach the cap
    for t in UP_TO_5:
        for max_len in range(10):
            cut, uncut = _cut_and_uncut(max_len, 300, len(t), t, shortest=shortest)
            assert cut == uncut, (t, max_len)


@pytest.mark.parametrize("aux", ("", "0", "1,", "0,1"))
def test_cut_walk_under_t3c_counts_the_aux_copy(aux):
    # a READAUX leaf prints the whole aux tape, so the cut keeps the
    # children of a node len(aux) symbols short of the cap
    a = tuple(machine.to_ints(aux))
    for shortest in (False, True):
        for t in [t for t in UP_TO_5 if len(t) < 5]:
            for max_len in range(9):
                cut, uncut = _cut_and_uncut(max_len, 7, len(t), t, a, shortest=shortest)
                assert cut == uncut, (t, max_len, shortest)


def test_cut_census_walk_yields_what_the_uncut_walk_yields():
    for budget in (3, 300):
        for cap in range(6):
            for max_len in range(10):
                cut, uncut = _cut_and_uncut(max_len, budget, cap)
                assert cut == uncut, (budget, cap, max_len)


@pytest.mark.parametrize("target", ("0000", "0101", "0,0,", "1010"))
def test_cut_keeps_leaves_under_a_node_with_a_register(target):
    # 00001,,110,0 prints 00 and leaves the register at 1 before its last
    # pair, a LOOP that prints 00 again: a cut blind to the register loses
    # this witness and its kind at L = 12
    t = tuple(machine.to_ints(target))
    cut, uncut = _cut_and_uncut(12, 1000, len(t), t)
    assert cut == uncut
    looped = "".join("0" + c for c in target[:2]) + "1,,110,0"
    assert looped in {p for p, _ in cut}


def test_cut_halves_the_resumes_of_a_whole_tree_search(monkeypatch):
    # the L = 10 tree at B = 10^4: 13,591 nodes, of which the cut skips
    # 7,830 leaves; L = 11 adds no node, since a FINITE node's children sit
    # at even depths
    calls = []
    resume = machine._resume
    monkeypatch.setattr(machine, "_resume", lambda *a: calls.append(1) or resume(*a))
    assert shortest_program_upper_bound("101,00", 10, 10**4).k_hat is None
    assert len(calls) == 5761
    calls.clear()
    assert shortest_program_upper_bound("0" * 10, 11, 1000).k_hat is None
    assert len(calls) == 5761
    calls.clear()
    t = tuple(machine.to_ints("101,00"))
    assert list(machine._witnesses(10, 10**4, len(t), t, shortest=True, nodes=[])) == []
    assert len(calls) == 13591


_STOPS = {
    machine._AT_END,
    machine._AT_HALT,
    machine._BAD_OUTPUT,
    machine._AT_BUDGET,
    machine._IN_LOOP,
}


@pytest.mark.parametrize(
    "target, aux", (("0", None), ("00000", None), ("101,00", None), ("0", "0"))
)
def test_shortest_walk_records_only_the_nodes_it_resumes(target, aux):
    # a witness lowers the limit and the pending nodes past it leave the
    # stack, so each record is a node that ran, once, and each witness is
    # shorter than the last: under T3C with aux "0", ",," prints the target
    # as "00" does; "101,00" has no witness at L = 10
    t = tuple(machine.to_ints(target))
    a = None if aux is None else tuple(machine.to_ints(aux))
    nodes = []
    walked = list(machine._witnesses(10, 1000, len(t), t, a, shortest=True, nodes=nodes))
    assert walked == list(machine._witnesses(10, 1000, len(t), t, a, shortest=True))
    lengths = [len(p) for p, _ in walked]
    assert lengths == sorted(set(lengths), reverse=True)
    assert {why for _, why, _ in nodes} <= _STOPS
    programs = [p for p, _, _ in nodes]
    assert len(set(programs)) == len(programs)
    if target == "0":
        assert programs == ["", "00"]
