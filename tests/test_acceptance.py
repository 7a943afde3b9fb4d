"""Acceptance gate: twelve checks, one test each, at the stated scales.

Each test prints one PASS line on success (visible with -s; the pytest -v
verdict carries the same information).  Heavier sweeps share module-scoped
fixtures so the gate stays inside its time limits on one core.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from omni import complexity, enumeration, prior, ssa
from omni.coding import NoiseModel, arithmetic_roundtrip, shannon_code_length


def _report(num, name):
    print(f"[acceptance {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def canonical_to_8():
    # (program, output) over canonical programs |p| <= 8 at B = 10^3
    return list(prior.canonical_programs(8, 1000))


def test_criterion_01_counting_bound():
    start = time.time()
    for n in (1, 2, 3, 4):
        for c in (1, 2):
            rep = complexity.compressibility_census(n, c, n + 2, 10_000)
            assert rep.fraction < 3.0**-c, (n, c, rep.fraction)
    assert time.time() - start < 120
    _report(1, "counting bound")


def test_criterion_02_kraft_inequality():
    start = time.time()
    masses = {
        level: prior.kraft_sum(level, 1000).total_mass for level in (0, 2, 4, 6, 8)
    }
    assert all(m < 1 for m in masses.values())
    assert masses[0] <= masses[2] <= masses[4] <= masses[6] <= masses[8]
    assert masses[2] == Fraction(1, 9)
    assert masses[4] == Fraction(16, 81)
    assert time.time() - start < 60
    _report(2, "kraft inequality")


def test_criterion_03_prefix_freeness(canonical_to_8):
    start = time.time()
    programs = [p for p, _ in canonical_to_8]
    seen = set(programs)
    assert len(seen) == len(programs)
    for p in programs:
        for cut in range(len(p)):
            assert p[:cut] not in seen, (p[:cut], p)
    assert time.time() - start < 60
    _report(3, "prefix-freeness")


def test_criterion_04_mc_enum_consistency():
    start = time.time()
    targets = ["", "0", "0,"]
    mc = prior.estimate_prior_mc_batch(targets, 1_000_000, 200, seed=0)
    residual = 1 - prior.kraft_sum(8, 200).total_mass
    for t in targets:
        est = mc[t]
        enum = prior.enumerate_prior(t, 8, 200)
        tolerance = 4 * est.stderr + float(residual)
        assert abs(est.p_hat - enum.p_hat) <= tolerance, (t, est.p_hat, enum.p_hat)
    assert time.time() - start < 120
    _report(4, "mc/enum prior consistency")


def test_criterion_05_dominance_floor(canonical_to_8):
    shortest = {}
    mass = {}
    for p, out in canonical_to_8:
        if len(p) <= 6 and out not in shortest:
            shortest[out] = len(p)  # shortlex pass: first hit is shortest
        mass[out] = mass.get(out, Fraction(0)) + Fraction(1, 3 ** len(p))
    assert shortest  # the sweep covers real targets
    for target, k in shortest.items():
        assert mass[target] >= Fraction(1, 3**k), (target, k)
    _report(5, "dominance floor")


def test_criterion_06_compiler_prefix():
    start = time.time()
    rep = prior.compiler_prefix_check(6, 1000)
    assert rep.outputs_checked == (3**7 - 1) // 2
    assert rep.output_counterexamples == []
    assert rep.mass_counterexamples == []
    assert time.time() - start < 120
    _report(6, "compiler prefix")


def test_criterion_07_dovetail_fairness():
    n = 2**20
    counts = {}
    for t in range(1, n + 1):
        k = (t & -t).bit_length()
        counts[k] = counts.get(k, 0) + 1
    for k in range(1, 17):
        offered = enumeration.steps_offered(n, k)
        assert offered == counts.get(k, 0)
        assert abs(offered - n / 2**k) <= 1, (k, offered)
    a = enumeration.dovetail(n, workers=1).snapshot_rows()
    b = enumeration.dovetail(n, workers=4).snapshot_rows()
    assert json.dumps(a) == json.dumps(b)
    _report(7, "dovetail fairness")


def test_criterion_08_enumeration_bijection():
    for k in range(1, 100_001):
        assert enumeration.program_to_index(enumeration.index_to_program(k)) == k
    first = [enumeration.index_to_program(k) for k in range(1, 15)]
    assert first == [
        "", "0", "1", ",", "00", "01", "0,", "10", "11", "1,", ",0", ",1", ",,", "000",
    ]
    _report(8, "enumeration bijection")


def test_criterion_09_ssc_engine():
    start = time.time()
    rng = random.Random(11)
    policy = {"B": [1.0 / 15] * 15}
    stack = []
    snapshots = {}  # id(entry) -> policy vectors at push
    t, reward = 0, 0.0
    evaluations = pops = 0
    for _ in range(10_000):
        t += 1
        reward += rng.random() < 0.3
        move = rng.random()
        open_entry = stack[-1] if stack else None  # every entry below the top is closed
        if move < 0.25:
            if open_entry is not None:
                before = len(stack)
                ssa.ssc_evaluate(stack, t, reward, policy)
                popped = before - len(stack)
                evaluations += 1
                pops += popped
                assert ssa.ssc_holds(t, reward, [(en.s, en.reward_at) for en in stack])
                if popped:
                    oldest = before - popped  # index of deepest popped entry
                    assert policy == snapshots[oldest]
            entry = ssa.StackEntry(t, reward)
            snapshots[len(stack)] = {s: list(v) for s, v in policy.items()}
            stack.append(entry)
        elif move < 0.75 and open_entry is not None:
            action = ssa.ACTIONS[rng.randrange(15)]
            gamma = rng.choice([ssa.GAMMA_UP, ssa.GAMMA_DOWN])
            open_entry.modifications.append(
                ("B", ssa.apply_pla(policy, "B", action, gamma))
            )
    assert evaluations > 100 and pops > 10  # the fuzz actually exercised both
    assert time.time() - start < 30
    _report(9, "ssc engine")


def test_criterion_10_ssa_learning():
    start = time.time()
    baselines = [
        ssa.uniform_baseline(ssa.SwitchingBandit(1000), 100_000, seed).mean_reward
        for seed in range(10)
    ]
    wins = 0
    for seed in range(10):
        trace = ssa.run_learner(
            ssa.SwitchingBandit(1000), 100_000, seed, record_steps=False
        )
        assert ssa.ssc_holds(trace.total_steps, trace.total_reward, trace.story)
        wins += trace.mean_reward > baselines[seed]
    assert wins >= 9, wins
    assert time.time() - start < 120
    _report(10, "ssa learning")


def test_criterion_11_entropy_coding():
    rng = random.Random(7)
    for _ in range(100):
        size = rng.randrange(2, 5)
        alphabet = [str(i) for i in range(size)]
        transitions = {}
        for a in alphabet:
            w = [rng.random() + 1e-3 for _ in alphabet]
            for b, x in zip(alphabet, w):
                transitions[(a, b)] = x / sum(w)
        model = NoiseModel(alphabet, transitions)
        seq = [rng.choice(alphabet) for _ in range(rng.randrange(1, 60))]
        # resample forbidden jumps never occur here: all probs positive
        bits, decoded = arithmetic_roundtrip(seq, model)
        assert decoded == seq
        assert len(bits) <= shannon_code_length(seq, model) + 32
    stay = NoiseModel(
        ["0", "1"],
        {("0", "0"): 0.9, ("0", "1"): 0.1, ("1", "0"): 0.9, ("1", "1"): 0.1},
        initial={"0": 0.9, "1": 0.1},
    )
    ideal = shannon_code_length(["0"] * 100, stay)
    assert abs(ideal - 100 * -math.log2(0.9)) < 0.1
    _report(11, "entropy coding")


def test_criterion_12_generalization_null():
    rng = random.Random(0)
    pairs = []
    while len(pairs) < 20:
        x = "".join(rng.choice("01,") for _ in range(5))
        y = "".join(rng.choice("01,") for _ in range(5))
        if x != y:
            pairs.append((x, y))
    for x, y in pairs:
        # both sides incompressible: the literal is the shortest program
        assert complexity.shortest_program_upper_bound(x, 10, 10_000).k_hat == 10
        m = complexity.mutual_information_estimate(x, y, 10, 10_000)
        assert m.value == 0, (x, y, m.value)
    related = complexity.mutual_information_estimate("0101", "0101", 10, 10_000)
    assert related.value >= 1
    _report(12, "generalization null result")
