import hashlib
import itertools
import math
import random

import pytest
import reference_coder
from hypothesis import given, settings
from hypothesis import strategies as st

from omni import coding
from omni.coding import (
    CODER_SLACK_BITS,
    NoiseModel,
    ZeroProbabilityError,
    arithmetic_roundtrip,
    fit_noise_model,
    shannon_code_length,
)

# the coder's excess over the ideal length under its own quantized rows:
# the final bit plus the rounding of each interval to whole units
QUANTIZED_SLACK_BITS = 2


def _quantized_length(states, model):
    """Ideal code length in bits under the rows the coder uses, the model's
    probabilities quantized by coding._freq_row, not under the model."""
    index = {s: i for i, s in enumerate(model.alphabet)}
    rows = {None: coding._freq_row([model.initial_prob(s) for s in model.alphabet])}
    bits, prev = 0.0, None
    for s in states:
        if prev not in rows:
            rows[prev] = coding._freq_row([model.transition_prob(prev, t) for t in model.alphabet])
        cum, j = rows[prev], index[s]
        bits -= math.log2((cum[j + 1] - cum[j]) / cum[-1])
        prev = s
    return bits


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


def _drawn_chain(rng, n):
    """A 4-state chain and n states drawn from it as the lifetime benchmark
    draws them."""
    alphabet = ["a", "b", "c", "d"]
    transitions, rows = {}, {}
    for a in alphabet:
        w = [rng.random() + 1e-3 for _ in alphabet]
        rows[a] = [x / sum(w) for x in w]
        transitions.update({(a, b): p for b, p in zip(alphabet, rows[a])})
    states = [rng.choice(alphabet)]
    for _ in range(n - 1):
        states.append(rng.choices(alphabet, rows[states[-1]])[0])
    return NoiseModel(alphabet, transitions), states


def test_roundtrip_bits_frozen_on_a_drawn_chain():
    # the digest pins every bit the coder emits
    model, states = _drawn_chain(random.Random(20260), 2000)
    bits, decoded = arithmetic_roundtrip(states, model)
    assert decoded == states and len(bits) == 3635
    assert len(bits) <= _quantized_length(states, model) + QUANTIZED_SLACK_BITS
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
    assert len(bits) <= _quantized_length(seq, model) + QUANTIZED_SLACK_BITS


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_roundtrip_keeps_the_quantized_bound_at_lifetime_length(seed):
    # the lifetime benchmark's length: 22,000 states of a drawn chain
    model, states = _drawn_chain(random.Random(seed), 22_000)
    bits, decoded = arithmetic_roundtrip(states, model)
    assert decoded == states
    assert len(bits) <= _quantized_length(states, model) + QUANTIZED_SLACK_BITS


def test_long_run_breaks_the_model_slack_but_keeps_the_quantized_bound():
    # 600,000 repeats of one state under a 4-state chain with off-diagonal
    # 1e-6: the stay 1 - 3e-6 quantizes to 65536/65539 and costs about
    # 6.2e-5 bits a symbol over the model, so the coder misses the model's
    # ideal length plus CODER_SLACK_BITS (42 bits against 4.6, the documented
    # defect) but stays within 2 bits of the quantized rows' ideal (41.6)
    alphabet = ["a", "b", "c", "d"]
    stay = {(a, b): 1 - 3e-6 if a == b else 1e-6 for a in alphabet for b in alphabet}
    model, seq = NoiseModel(alphabet, stay), ["a"] * 600_000
    bits, decoded = arithmetic_roundtrip(seq, model)
    assert decoded == seq and len(bits) == 42
    assert len(bits) > shannon_code_length(seq, model) + CODER_SLACK_BITS
    assert len(bits) <= _quantized_length(seq, model) + QUANTIZED_SLACK_BITS


def test_fit_then_code_own_sequence():
    rng = random.Random(5)
    seq = [rng.choice("ab") for _ in range(200)]
    model = fit_noise_model(seq)
    bits, decoded = arithmetic_roundtrip(seq, model)
    assert decoded == seq


# #### differential: the folded coder against the class-based reference ####


def _assert_same_as_reference(states, model):
    assert arithmetic_roundtrip(states, model) == reference_coder.arithmetic_roundtrip(states, model)


def test_roundtrip_matches_reference_on_seeded_chains():
    for seed in range(40):
        rng = random.Random(seed)
        model, states = _drawn_chain(rng, rng.randrange(1, 3000))
        _assert_same_as_reference(states, model)
        model = _random_model(rng, rng.randrange(1, 7))
        states = [rng.choice(model.alphabet) for _ in range(rng.randrange(1, 300))]
        _assert_same_as_reference(states, model)


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_roundtrip_matches_reference_at_lifetime_length(seed):
    model, states = _drawn_chain(random.Random(seed), 22_000)
    _assert_same_as_reference(states, model)


def test_roundtrip_matches_reference_on_a_long_repeat():
    alphabet = ["a", "b", "c", "d"]
    stay = {(a, b): 1 - 3e-6 if a == b else 1e-6 for a in alphabet for b in alphabet}
    _assert_same_as_reference(["a"] * 600_000, NoiseModel(alphabet, stay))


@pytest.mark.parametrize(
    "states",
    (["0", "0", "1"], ["0"] * 500 + ["1"], ["1", "0"], ["0", "2"], ["2"], ["0", "1", "2"]),
)
def test_zero_probability_error_matches_reference(states):
    # the stay-only chain forbids every switch; "2" is outside the alphabet
    model = _self_loop_model(1.0)
    errors = []
    for code in (arithmetic_roundtrip, reference_coder.arithmetic_roundtrip):
        with pytest.raises(ZeroProbabilityError) as exc:
            code(states, model)
        errors.append((exc.value.step, exc.value.prev, exc.value.nxt, str(exc.value)))
    assert errors[0] == errors[1]


def _first_zero_step(code, states, model):
    try:
        code(states, model)
    except ZeroProbabilityError as exc:
        return exc.step, exc.prev, exc.nxt
    return None


def test_roundtrip_fails_where_shannon_length_does_on_a_grid():
    # stay-only, switch-only and a mixing chain over 0 and 1, and every
    # sequence of 1-6 states from 0, 1 and the foreign state 2: 3,276 cases
    models = [_self_loop_model(1.0), _self_loop_model(0.0), _self_loop_model(0.9)]
    mismatches = [
        (model.transitions, states)
        for model in models
        for n in range(1, 7)
        for states in map(list, itertools.product("012", repeat=n))
        if _first_zero_step(arithmetic_roundtrip, states, model)
        != _first_zero_step(shannon_code_length, states, model)
    ]
    assert mismatches == []
