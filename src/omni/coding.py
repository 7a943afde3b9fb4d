"""Entropy accounting for state sequences under a noise model, plus an
integer arithmetic coder whose output comes close to that ideal length.

The model is a first-order chain: probabilities for (prev -> next) pairs
and an optional initial distribution (uniform over the alphabet when not
given).  Ideal code length is the usual sum of -log2 p along the sequence.
The coder is a 32-bit low/high range coder; frequency tables are the model
probabilities quantized to 1/65536 granularity.  The emitted bit count
stays within a small overhead of the ideal length under those quantized
rows, not under the model itself: wherever a row's quantized probability
falls short of the model's, the excess over the model's ideal length grows
linearly with the sequence.  On a 4-state chain whose stay probability
1 - 3e-6 quantizes to 65536/65539, that is about 6.2e-5 bits per symbol;
600,000 repeats of one state code in 42 bits, 0.4 bits over the quantized
rows' ideal of 41.6 but 37.4 over the model's ideal of 4.6.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

# termination overhead plus the quantization excess of short sequences;
# that excess grows with length (see above), so no constant bounds it
CODER_SLACK_BITS = 32

_NUM_BITS = 32
_FULL = 1 << _NUM_BITS
_HALF = _FULL >> 1
_QUARTER = _HALF >> 1
_MASK = _FULL - 1
_MAX_TOTAL = _QUARTER + 2
_SCALE = 1 << 16
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # bit text to bit values


class ZeroProbabilityError(ValueError):
    """A needed transition (or initial state) has probability zero."""

    def __init__(self, step: int, prev: str | None, nxt: str):
        self.step = step
        self.prev = prev
        self.nxt = nxt
        if prev is None:
            msg = f"zero-probability initial state at step {step}: {nxt!r}"
        else:
            msg = f"zero-probability transition at step {step}: {prev!r} -> {nxt!r}"
        super().__init__(msg)


@dataclass
class NoiseModel:
    alphabet: list[str]
    transitions: dict[tuple[str, str], float]
    initial: dict[str, float] | None = None

    def validate(self) -> None:
        if not self.alphabet:
            raise ValueError("empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet entries")
        states = set(self.alphabet)
        rows: dict[str, float] = {}
        for (a, b), p in self.transitions.items():
            if a not in states or b not in states:
                raise ValueError(f"transition {a!r} -> {b!r} leaves the alphabet")
            if not p >= 0:  # NaN compares false
                raise ValueError(f"probability {p} for {a!r} -> {b!r} is not >= 0")
            rows[a] = rows.get(a, 0.0) + p
        for a, s in rows.items():
            if not abs(s - 1.0) <= 1e-9:
                raise ValueError(f"outgoing probabilities from {a!r} sum to {s}")
        if self.initial is not None:
            if not states.issuperset(self.initial):
                raise ValueError("initial distribution outside the alphabet")
            s = sum(self.initial.values())  # NaN when an entry is
            if not (abs(s - 1.0) <= 1e-9 and min(self.initial.values()) >= 0):
                raise ValueError(f"initial distribution sums to {s} or has a negative entry")

    def initial_prob(self, state: str) -> float:
        if self.initial is None:
            return 1.0 / len(self.alphabet) if state in self.alphabet else 0.0
        return self.initial.get(state, 0.0)

    def transition_prob(self, prev: str, nxt: str) -> float:
        return self.transitions.get((prev, nxt), 0.0)


def fit_noise_model(states: list[str]) -> NoiseModel:
    """Maximum-likelihood chain for a sequence: empirical transition counts,
    uniform initial distribution over the observed alphabet."""
    if not states:
        raise ValueError("cannot fit a model to an empty sequence")
    alphabet = sorted(set(states))
    counts: dict[tuple[str, str], int] = {}
    outgoing: dict[str, int] = {}
    for a, b in zip(states, states[1:]):
        counts[(a, b)] = counts.get((a, b), 0) + 1
        outgoing[a] = outgoing.get(a, 0) + 1
    transitions = {k: v / outgoing[k[0]] for k, v in counts.items()}
    return NoiseModel(alphabet, transitions)


def shannon_code_length(states: list[str], model: NoiseModel) -> float:
    """Ideal code length in bits: -log2 p0(s_1) - sum log2 p(s_i+1 | s_i).

    Empty sequence costs 0.  A zero-probability step raises, naming it.
    """
    model.validate()
    if not states:
        return 0.0
    p0 = model.initial_prob(states[0])
    if p0 <= 0.0:
        raise ZeroProbabilityError(0, None, states[0])
    bits = 0.0 - math.log2(p0)
    for i, (a, b) in enumerate(zip(states, states[1:]), start=1):
        p = model.transition_prob(a, b)
        if p <= 0.0:
            raise ZeroProbabilityError(i, a, b)
        bits -= math.log2(p)
    return bits


# #### integer range coder ####


def _freq_row(probs: list[float]) -> list[int]:
    """Cumulative frequency table; every positive probability gets >= 1."""
    freqs = [max(1, round(p * _SCALE)) if p > 0.0 else 0 for p in probs]
    cum = [0]
    for f in freqs:
        cum.append(cum[-1] + f)
    if cum[-1] > _MAX_TOTAL:
        raise ValueError("alphabet too large for the coder's precision")
    return cum


def arithmetic_roundtrip(
    states: list[str], model: NoiseModel
) -> tuple[str, list[str]]:
    """Encode states under the model and decode them back.

    Returns (encoded bit string, decoded states).  The decoder is driven
    from the encoded bits alone (the length of the sequence travels out of
    band).  The encoding loop raises ZeroProbabilityError at the first step
    whose state is outside the alphabet or has a quantized frequency of 0,
    which is the step shannon_code_length names.  The encoder builds each
    context's row on its first use, so an unused row never fails, and the
    decoder, meeting the same contexts, reads those rows.
    """
    model.validate()
    if not states:
        return "", []
    index = {s: i for i, s in enumerate(model.alphabet)}
    rows: dict[str | None, list[int]] = {}  # one row per context, shared by both passes
    encoded_bits: list[str] = []
    low, high, pending = 0, _MASK, 0
    prev: str | None = None
    for i, s in enumerate(states):
        cum = rows.get(prev)
        if cum is None:
            if prev is None:
                probs = [model.initial_prob(t) for t in model.alphabet]
            else:
                probs = [model.transition_prob(prev, t) for t in model.alphabet]
            rows[prev] = cum = _freq_row(probs)
        j = index.get(s)
        if j is None or cum[j + 1] == cum[j]:
            raise ZeroProbabilityError(i, prev, s)
        rng = high - low + 1
        high = low + cum[j + 1] * rng // cum[-1] - 1
        low += cum[j] * rng // cum[-1]
        while True:
            if (low ^ high) & _HALF == 0:
                bit = low >> (_NUM_BITS - 1)
                encoded_bits.append("01"[bit] + "10"[bit] * pending)
                pending = 0
                low = (low << 1) & _MASK
                high = ((high << 1) & _MASK) | 1
            elif low & ~high & _QUARTER:
                # straddling the midpoint: defer the bit decision
                pending += 1
                low = (low << 1) ^ _HALF
                high = ((high ^ _HALF) << 1) | _HALF | 1
            else:
                break
        prev = s
    encoded = "".join(encoded_bits) + "1" + "0" * pending

    # the decoder reads up to _NUM_BITS - 1 bits past the end, as 0s: the
    # encoder's implicit infinite tail
    padded = encoded + "0" * _NUM_BITS
    bits = padded.encode().translate(_BIT_VALUES)
    code, pos = int(padded[:_NUM_BITS], 2), _NUM_BITS
    low, high = 0, _MASK
    decoded: list[str] = []
    prev = None
    for _ in range(len(states)):
        cum = rows[prev]
        total = cum[-1]
        rng = high - low + 1
        sym = bisect_right(cum, ((code - low + 1) * total - 1) // rng) - 1
        high = low + cum[sym + 1] * rng // total - 1
        low += cum[sym] * rng // total
        while True:
            if (low ^ high) & _HALF == 0:
                code = ((code << 1) & _MASK) | bits[pos]
                low = (low << 1) & _MASK
                high = ((high << 1) & _MASK) | 1
            elif low & ~high & _QUARTER:
                code = (code & _HALF) | ((code << 1) & (_MASK >> 1)) | bits[pos]
                low = (low << 1) ^ _HALF
                high = ((high ^ _HALF) << 1) | _HALF | 1
            else:
                break
            pos += 1
        prev = model.alphabet[sym]
        decoded.append(prev)
    return encoded, decoded
