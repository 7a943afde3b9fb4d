from collections import Counter
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omni import ssa
from omni.ssa import (
    ACTIONS,
    StackEntry,
    SwitchingBandit,
    apply_pla,
    floor_renormalize,
    run_learner,
    ssc_evaluate,
    ssc_holds,
    uniform_baseline,
)


def test_action_set_is_closed_and_ordered():
    assert len(ACTIONS) == 15
    assert ACTIONS[:5] == ["arm0", "arm1", "begin_pmp", "end_pmp", "wait"]
    assert ACTIONS[5] == "up:arm0" and ACTIONS[10] == "down:arm0"


def _uniform():
    """The policy run_learner starts from: one uniform vector, in state B."""
    return {"B": [1.0 / 15] * 15}


def test_uniform_policy():
    start = uniform_baseline(SwitchingBandit(10), 1, seed=0).final_policy
    assert start == _uniform()
    assert sum(start["B"]) == pytest.approx(1.0, abs=1e-12)


def test_floor_renormalize_pins_and_scales():
    out = floor_renormalize([0.0, 1.0, 1.0], floor=0.1)
    assert out[0] == 0.1
    assert out[1] == out[2] == pytest.approx(0.45)
    with pytest.raises(ValueError):
        floor_renormalize([1.0] * 20, floor=0.1)


def test_apply_pla_doubling_ladder():
    # 2^k / (2^k + 14) crosses 0.9 exactly at k = 7
    p = _uniform()
    for _ in range(6):
        apply_pla(p, "B", "arm0", 2.0)
    assert p["B"][0] < 0.9
    apply_pla(p, "B", "arm0", 2.0)
    assert p["B"][0] >= 0.9
    assert sum(p["B"]) == pytest.approx(1.0, abs=1e-9)


def test_apply_pla_clamps_gamma():
    a, b = _uniform(), _uniform()
    apply_pla(a, "B", "wait", 100.0)
    apply_pla(b, "B", "wait", 4.0)
    assert a["B"] == b["B"]


@given(st.lists(st.tuples(st.integers(0, 14), st.floats(0.25, 4.0)), max_size=25))
@settings(max_examples=150)
def test_pla_rollback_is_bit_identical(edits):
    p = _uniform()
    before = _uniform()
    saved = [apply_pla(p, "B", ACTIONS[i], g) for i, g in edits]
    for vec in reversed(saved):
        p["B"] = vec
    assert p == before


@given(st.lists(st.tuples(st.integers(0, 14), st.floats(0.25, 4.0)), min_size=1, max_size=25))
@settings(max_examples=150)
def test_pla_keeps_vector_a_distribution(edits):
    p = _uniform()
    for i, g in edits:
        apply_pla(p, "B", ACTIONS[i], g)
    vec = p["B"]
    assert sum(vec) == pytest.approx(1.0, abs=1e-9)
    assert min(vec) >= ssa.PROB_FLOOR - 1e-15


def test_ssc_holds_chain_rules():
    assert ssc_holds(10, 2.0, [])
    assert ssc_holds(10, 2.0, [(5, 0.0)])  # 0.2 < 0.4
    assert not ssc_holds(10, 2.0, [(5, 1.0)])  # tie is a violation
    assert not ssc_holds(10, 2.0, [(10, 1.0)])  # checkpoint at t itself
    assert ssc_holds(10, 4.0, [(2, 0.4), (5, 1.0)])
    assert not ssc_holds(10, 4.0, [(5, 1.0), (2, 0.4)])  # must be increasing
    assert not ssc_holds(0, 0.0, [(0, 0.0)])


def test_ssc_evaluate_pops_and_restores():
    policy = _uniform()
    p0 = _uniform()
    e1 = StackEntry(2, 2.0)  # rate since 2 would need > (R-2)/(t-2)
    e1.modifications.append(("B", apply_pla(policy, "B", "arm1", 2.0)))
    e2 = StackEntry(4, 2.0)
    e2.modifications.append(("B", apply_pla(policy, "B", "arm1", 2.0)))
    stack = [e1, e2]
    # no reward since either checkpoint: both must fall
    popped = ssc_evaluate(stack, 10, 2.0, policy)
    assert popped == 2 and stack == []
    assert policy == p0


def test_ssc_evaluate_restores_every_state_it_edited():
    # edits to B and C interleaved under one checkpoint: the pop restores
    # each vector to its own pre-checkpoint floats (== on floats that are
    # never NaN is bit for bit)
    policy = {"B": _uniform()["B"], "C": floor_renormalize([k + 1.0 for k in range(15)])}
    before = {s: list(v) for s, v in policy.items()}
    entry = StackEntry(2, 2.0)
    for state, action, gamma in (
        ("B", "arm0", 2.0), ("C", "arm1", 0.5), ("B", "wait", 4.0),
        ("C", "arm1", 3.0), ("C", "arm0", 2.0), ("B", "arm0", 0.25),
    ):
        entry.modifications.append((state, apply_pla(policy, state, action, gamma)))
    assert policy["B"] != before["B"] and policy["C"] != before["C"]
    stack = [entry]
    # no reward since the checkpoint: it falls
    assert ssc_evaluate(stack, 10, 2.0, policy) == 1 and stack == []
    assert policy == before


def test_ssc_evaluate_keeps_earning_checkpoints():
    policy = _uniform()
    stack = [StackEntry(2, 1.0), StackEntry(6, 2.0)]
    popped = ssc_evaluate(stack, 10, 6.0, policy)
    # 0.6 < 5/8 < 1.0 holds, nothing pops
    assert popped == 0 and len(stack) == 2


def test_switching_bandit_schedule():
    env = SwitchingBandit(3)
    rewards = [env.act("arm0") for _ in range(6)]
    assert rewards == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    assert env.t == 6  # every action advanced the clock
    # arm1 pays while t // period is odd, at t = 3..5
    arm1 = SwitchingBandit(3)
    assert [arm1.act("arm1") for _ in range(6)] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    env.act("wait")
    assert env.t == 7
    with pytest.raises(ValueError):
        SwitchingBandit(0)


def test_run_learner_deterministic_and_accounted():
    t1 = run_learner(SwitchingBandit(50), 3000, seed=7)
    t2 = run_learner(SwitchingBandit(50), 3000, seed=7)
    assert t1.total_reward == t2.total_reward
    assert t1.actions == t2.actions and t1.final_policy == t2.final_policy
    rows = list(t1.jsonl_rows())
    assert len(rows) == 3000
    assert rows[-1]["R"] == pytest.approx(t1.total_reward)
    assert sum(r["reward"] for r in rows) == pytest.approx(t1.total_reward)


def test_run_learner_logs_event_kinds():
    # one kind per event: a checkpoint begun, ended or popped, an end or an
    # edit with no open checkpoint, and the final evaluation
    tr = run_learner(SwitchingBandit(1000), 30_000, seed=0)
    assert Counter(tr.events) == {"noop": 16853, "begin": 52, "pop": 39, "end": 20, "final": 1}


def test_run_learner_story_chain_holds_at_horizon():
    tr = run_learner(SwitchingBandit(100), 5000, seed=2)
    assert ssc_holds(tr.total_steps, tr.total_reward, tr.story)


def test_run_learner_validation():
    with pytest.raises(ValueError):
        run_learner(SwitchingBandit(10), 0, seed=0)


def test_unrecorded_trace_has_no_rows():
    tr = run_learner(SwitchingBandit(10), 50, seed=0, record_steps=False)
    assert (tr.actions, tr.rewards) == (None, None)
    assert list(tr.jsonl_rows()) == [] and list(tr.jsonl_lines()) == []


def test_baseline_never_learns():
    tr = uniform_baseline(SwitchingBandit(100), 5000, seed=0)
    assert tr.final_policy == _uniform()
    assert tr.story == [] and tr.pops == 0
    # expected reward 1/15; 5 sigma at 5000 steps is ~0.018
    assert abs(tr.mean_reward - 1 / 15) < 0.02


def test_learner_beats_baseline_spot_check():
    learner = run_learner(SwitchingBandit(200), 20_000, seed=1, record_steps=False)
    base = uniform_baseline(SwitchingBandit(200), 20_000, seed=1)
    assert learner.mean_reward > base.mean_reward



def _scripted(monkeypatch, draws, learn=True):
    """run_learner with draws in place of the seeded stream's values, on
    a bandit whose good arm never changes."""
    stream = SimpleNamespace(random=iter(draws).__next__)
    monkeypatch.setattr(ssa, "random", SimpleNamespace(Random=lambda seed: stream))
    return run_learner(SwitchingBandit(10**9), len(draws), seed=0, learn=learn)


def _mid(vec, i):
    """A draw strictly inside action i's interval of the row of vec."""
    row = [0.0, *accumulate(vec)]
    return (row[i] + row[i + 1]) / 2


def test_draw_at_a_partial_sum_takes_the_next_action(monkeypatch):
    # the scan's test is r < cum[i], so r == cum[i] moves on to i + 1
    row = list(accumulate(_uniform()["B"]))
    tr = _scripted(monkeypatch, [0.0, *row[:-1]], learn=False)
    assert tr.actions == list(range(15))


def test_draw_past_the_last_sum_takes_the_last_action(monkeypatch):
    # after up:arm0 and down:arm1 the row ends below 1; a draw at or above
    # its last sum falls through to the last action, as the scan did
    policy, draws = _uniform(), []
    draws.append(_mid(policy["B"], ACTIONS.index("begin_pmp")))
    for action, target, gamma in (("up:arm0", "arm0", 2.0), ("down:arm1", "arm1", 0.5)):
        draws.append(_mid(policy["B"], ACTIONS.index(action)))
        apply_pla(policy, "B", target, gamma)
    last_sum = list(accumulate(policy["B"]))[-1]
    assert last_sum < 1.0
    for r in (last_sum, (last_sum + 1.0) / 2):
        tr = _scripted(monkeypatch, [*draws, r])
        assert tr.actions == [2, 5, 11, 14]


def test_first_draw_after_a_pop_reads_the_restored_row(monkeypatch):
    # begin, three up:arm0 edits, then an end with no reward since the
    # checkpoint: the pop restores the uniform vector, and the next draw
    # must read its row, not the edited one
    policy, draws = _uniform(), []
    draws.append(_mid(policy["B"], ACTIONS.index("begin_pmp")))
    for _ in range(3):
        draws.append(_mid(policy["B"], ACTIONS.index("up:arm0")))
        apply_pla(policy, "B", "arm0", 2.0)
    draws.append(_mid(policy["B"], ACTIONS.index("end_pmp")))
    stale = list(accumulate(policy["B"]))
    restored = list(accumulate(_uniform()["B"]))
    r = 0.3
    assert next(i for i, c in enumerate(stale) if r < c) == 0
    assert next(i for i, c in enumerate(restored) if r < c) == 4
    tr = _scripted(monkeypatch, [*draws, r])
    assert tr.events == ["begin", "pop", "end", "final"]
    assert tr.actions == [2, 5, 5, 5, 3, 4]
