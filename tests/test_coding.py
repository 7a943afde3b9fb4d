import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omni.coding import (
    CODER_SLACK_BITS,
    NoiseModel,
    ZeroProbabilityError,
    arithmetic_roundtrip,
    fit_noise_model,
    shannon_code_length,
)


def _self_loop_model(p_stay=0.9):
    t = {}
    for a in "01":
        t[(a, a)] = p_stay
        t[(a, "1" if a == "0" else "0")] = 1.0 - p_stay
    return NoiseModel(["0", "1"], t, initial={"0": p_stay, "1": 1.0 - p_stay})


def test_fit_counts_bigrams():
    m = fit_noise_model(["a", "a", "b", "a"])
    assert m.alphabet == ["a", "b"]
    assert m.transition_prob("a", "a") == pytest.approx(0.5)
    assert m.transition_prob("a", "b") == pytest.approx(0.5)
    assert m.transition_prob("b", "a") == pytest.approx(1.0)
    m.validate()
    with pytest.raises(ValueError):
        fit_noise_model([])


def test_validate_rejects_bad_rows():
    with pytest.raises(ValueError):
        NoiseModel([], {}).validate()
    with pytest.raises(ValueError):
        NoiseModel(["a"], {("a", "a"): 0.5}).validate()
    with pytest.raises(ValueError):
        NoiseModel(["a", "a"], {("a", "a"): 1.0}).validate()
    with pytest.raises(ValueError):
        NoiseModel(["a"], {("a", "a"): 1.0}, initial={"a": 0.7}).validate()
    # states outside the alphabet, which the coder could never emit
    with pytest.raises(ValueError):
        NoiseModel(["a"], {("a", "a"): 0.5, ("a", "z"): 0.5}).validate()
    with pytest.raises(ValueError):
        NoiseModel(["a"], {("a", "a"): 1.0, ("z", "a"): 1.0}).validate()
    with pytest.raises(ValueError):
        NoiseModel(["a"], {("a", "a"): 1.0}, initial={"a": 0.5, "z": 0.5}).validate()


def test_validate_rejects_nan_and_negative_mass():
    # NaN compares false both ways, so only tests written as "not ok" catch it
    nan = float("nan")
    with pytest.raises(ValueError):
        NoiseModel(["a", "b"], {("a", "a"): nan, ("a", "b"): 0.5, ("b", "a"): 1.0}).validate()
    nan_start = NoiseModel(["a"], {("a", "a"): 1.0}, initial={"a": nan})
    with pytest.raises(ValueError):
        shannon_code_length(["a"], nan_start)
    # a sum of 1 does not make a distribution
    flip = {("a", "b"): 1.0, ("b", "a"): 1.0}
    with pytest.raises(ValueError):
        NoiseModel(["a", "b"], flip, initial={"a": 1.5, "b": -0.5}).validate()


def test_shannon_length_frozen():
    model = _self_loop_model(0.9)
    bits = shannon_code_length(["0"] * 100, model)
    assert bits == pytest.approx(100 * -math.log2(0.9), abs=1e-9)
    assert shannon_code_length([], model) == 0.0


def test_shannon_length_deterministic_chain_is_plus_zero():
    m = NoiseModel(["a"], {("a", "a"): 1.0}, initial={"a": 1.0})
    bits = shannon_code_length(["a"] * 5, m)
    assert bits == 0.0 and math.copysign(1.0, bits) == 1.0


def test_zero_probability_error_names_the_step():
    model = _self_loop_model(1.0)  # forbids switching
    with pytest.raises(ZeroProbabilityError) as exc:
        shannon_code_length(["0", "0", "1"], model)
    assert exc.value.step == 2
    assert "'0' -> '1'" in str(exc.value)
    with pytest.raises(ZeroProbabilityError):
        arithmetic_roundtrip(["0", "1"], model)
    # a state the initial distribution rules out fails at step 0
    start_a = NoiseModel(["a", "b"], {("a", "b"): 1.0, ("b", "a"): 1.0}, initial={"a": 1.0, "b": 0.0})
    for code in (shannon_code_length, arithmetic_roundtrip):
        with pytest.raises(ZeroProbabilityError) as exc:
            code(["b", "a"], start_a)
        assert (exc.value.step, exc.value.prev, exc.value.nxt) == (0, None, "b"), code
        assert "initial state at step 0" in str(exc.value)


def test_roundtrip_frozen_sequence():
    model = _self_loop_model(0.9)
    seq = ["0"] * 14 + ["1", "1"]
    bits, decoded = arithmetic_roundtrip(seq, model)
    assert decoded == seq
    assert set(bits) <= {"0", "1"}
    assert len(bits) <= shannon_code_length(seq, model) + CODER_SLACK_BITS


def test_roundtrip_bits_frozen_on_a_drawn_chain():
    # a 4-state chain and 2,000 states drawn from it as the lifetime benchmark
    # draws them; the digest pins every bit the coder emits
    rng = random.Random(20260)
    alphabet = ["a", "b", "c", "d"]
    transitions, rows = {}, {}
    for a in alphabet:
        w = [rng.random() + 1e-3 for _ in alphabet]
        rows[a] = [x / sum(w) for x in w]
        transitions.update({(a, b): p for b, p in zip(alphabet, rows[a])})
    states = [rng.choice(alphabet)]
    for _ in range(1999):
        states.append(rng.choices(alphabet, rows[states[-1]])[0])
    bits, decoded = arithmetic_roundtrip(states, NoiseModel(alphabet, transitions))
    assert decoded == states and len(bits) == 3635
    digest = hashlib.sha256(bits.encode()).hexdigest()
    assert digest == "abd63141fa988cb0101669e225e48222f852c907b66fab3941181cb006035133"


def test_roundtrip_empty():
    assert arithmetic_roundtrip([], _self_loop_model()) == ("", [])


def test_roundtrip_unknown_state():
    with pytest.raises(ZeroProbabilityError):
        arithmetic_roundtrip(["2"], _self_loop_model())


def _random_model(rng, size):
    alphabet = [str(i) for i in range(size)]
    transitions = {}
    for a in alphabet:
        weights = [rng.random() + 1e-3 for _ in alphabet]
        s = sum(weights)
        for b, w in zip(alphabet, weights):
            transitions[(a, b)] = w / s
    return NoiseModel(alphabet, transitions)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=4))
@settings(max_examples=120, deadline=None)
def test_roundtrip_random_models(seed, size):
    rng = random.Random(seed)
    model = _random_model(rng, size)
    model.validate()
    seq = [rng.choice(model.alphabet)]
    for _ in range(rng.randrange(0, 40)):
        r = rng.random()
        cum = 0.0
        for b in model.alphabet:
            cum += model.transition_prob(seq[-1], b)
            if r < cum:
                seq.append(b)
                break
        else:
            seq.append(model.alphabet[-1])
    bits, decoded = arithmetic_roundtrip(seq, model)
    assert decoded == seq
    assert len(bits) <= shannon_code_length(seq, model) + CODER_SLACK_BITS


def test_fit_then_code_own_sequence():
    rng = random.Random(5)
    seq = [rng.choice("ab") for _ in range(200)]
    model = fit_noise_model(seq)
    bits, decoded = arithmetic_roundtrip(seq, model)
    assert decoded == seq
