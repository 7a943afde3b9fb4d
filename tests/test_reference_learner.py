"""Differential tests: the learner's step loop and its floor
renormalization against the plain reference learner in reference_learner.
Floats are compared bit for bit, never approximately."""

import dataclasses
import math
import random

import pytest
import reference_learner as ref

from omni import ssa

SEEDS = range(20)
PERIODS = (1, 7, 1000)


def _assert_same(trace, want):
    got = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)}
    assert got == want
    # repr tells apart what == does not, such as 0.0 and -0.0
    assert repr(got) == repr(want)


@pytest.mark.parametrize("record_steps", [True, False])
@pytest.mark.parametrize("learn", [True, False])
@pytest.mark.parametrize("period", PERIODS)
def test_run_learner_matches_reference(period, learn, record_steps):
    for seed in SEEDS:
        steps = 5_000 + 250 * seed
        trace = ssa.run_learner(ssa.SwitchingBandit(period), steps, seed, learn, record_steps)
        _assert_same(trace, ref.run_learner(ref.SwitchingBandit(period), steps, seed, learn, record_steps))


def test_uniform_baseline_matches_reference():
    # the sampler alone: the same seed draws the same actions
    for period in PERIODS:
        for seed in SEEDS:
            trace = ssa.uniform_baseline(ssa.SwitchingBandit(period), 5_000, seed)
            want = ref.run_learner(ref.SwitchingBandit(period), 5_000, seed, False, False)
            _assert_same(trace, want)


@pytest.mark.parametrize("seed", [7, 8, 11])
def test_lifetimes_that_pop_thousands_of_times_match_reference(seed):
    # every pop rewrites the vector the next draw reads
    trace = ssa.run_learner(ssa.SwitchingBandit(1000), 30_000, seed)
    assert trace.pops > 1_000
    _assert_same(trace, ref.run_learner(ref.SwitchingBandit(1000), 30_000, seed))


def _vectors(rng):
    """Random vectors with floors that fit them: zeros, tiny and large
    entries, all-zero vectors, and vectors after learner-like edits."""
    for k in range(1_500):
        n = rng.randrange(1, 21)
        kind = k % 5
        if kind == 0:
            vec = [0.0] * n
        elif kind == 1:
            vec = [rng.choice([0.0, rng.random(), rng.random() * 1e-6, 1e-4]) for _ in range(n)]
        elif kind == 2:
            vec = [rng.expovariate(1.0) ** 6 for _ in range(n)]
        else:
            vec = [1.0 / n] * n
            for _ in range(rng.randrange(1, 30)):
                vec[rng.randrange(n)] *= rng.uniform(0.25, 4.0)
        # a floor one ulp above 1/n may or may not pass floor * n <= 1
        floor = rng.choice(
            [ssa.PROB_FLOOR, 1.0 / n, math.nextafter(1.0 / n, 1.0), rng.uniform(0.0, 1.0 / n)]
        )
        yield vec, floor


def test_floor_renormalize_matches_reference_bit_for_bit():
    later_pins = 0  # vectors with an entry pinned after the first round
    checked = 0
    for vec, floor in _vectors(random.Random(16)):
        if floor * len(vec) > 1.0:
            with pytest.raises(ValueError):
                ssa.floor_renormalize(vec, floor)
            continue
        want = ref.floor_renormalize(vec, floor)
        got = ssa.floor_renormalize(vec, floor)
        assert [v.hex() for v in got] == [v.hex() for v in want], (vec, floor)
        checked += 1
        s = sum(vec)
        later_pins += s > 0 and any(w == floor <= v / s for v, w in zip(vec, want))
    assert checked >= 1_000 and later_pins >= 100


@pytest.mark.parametrize(
    "n, floor",
    [(15, ssa.PROB_FLOOR), (24, math.nextafter(1 / 24, 1.0)), (34, math.nextafter(1 / 34, 1.0))],
)
def test_floor_renormalize_shares_an_all_zero_vector_as_the_reference(n, floor):
    # at n = 24 and 34 a floor one ulp above 1/n still passes floor * n <= 1
    # and pins the first equal share, so the later shares split what is left
    got = ssa.floor_renormalize([0.0] * n, floor)
    assert [v.hex() for v in got] == [v.hex() for v in ref.floor_renormalize([0.0] * n, floor)]
