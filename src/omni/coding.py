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


class _Encoder:
    def __init__(self):
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self.bits: list[str] = []

    def _emit(self, bit: int):
        self.bits.append("01"[bit])
        if self.pending:
            self.bits.append("10"[bit] * self.pending)
            self.pending = 0

    def encode(self, cum_lo: int, cum_hi: int, total: int):
        rng = self.high - self.low + 1
        self.high = self.low + cum_hi * rng // total - 1
        self.low = self.low + cum_lo * rng // total
        while True:
            if (self.low ^ self.high) & _HALF == 0:
                self._emit(self.low >> (_NUM_BITS - 1))
                self.low = (self.low << 1) & _MASK
                self.high = ((self.high << 1) & _MASK) | 1
            elif self.low & ~self.high & _QUARTER:
                # straddling the midpoint: defer the bit decision
                self.pending += 1
                self.low = (self.low << 1) ^ _HALF
                self.high = ((self.high ^ _HALF) << 1) | _HALF | 1
            else:
                break

    def finish(self) -> str:
        self._emit(1)
        return "".join(self.bits)


class _Decoder:
    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0
        self.low = 0
        self.high = _MASK
        self.code = 0
        for _ in range(_NUM_BITS):
            self.code = (self.code << 1) | self._read()

    def _read(self) -> int:
        # past the end of the stream reads as 0, matching the encoder's
        # implicit infinite tail
        if self.pos >= len(self.bits):
            return 0
        b = self.bits[self.pos]
        self.pos += 1
        return 1 if b == "1" else 0

    def decode(self, cum: list[int]) -> int:
        total = cum[-1]
        rng = self.high - self.low + 1
        value = ((self.code - self.low + 1) * total - 1) // rng
        sym = 0
        while cum[sym + 1] <= value:
            sym += 1
        self.high = self.low + cum[sym + 1] * rng // total - 1
        self.low = self.low + cum[sym] * rng // total
        while True:
            if (self.low ^ self.high) & _HALF == 0:
                self.code = ((self.code << 1) & _MASK) | self._read()
                self.low = (self.low << 1) & _MASK
                self.high = ((self.high << 1) & _MASK) | 1
            elif self.low & ~self.high & _QUARTER:
                self.code = (self.code & _HALF) | ((self.code << 1) & (_MASK >> 1)) | self._read()
                self.low = (self.low << 1) ^ _HALF
                self.high = ((self.high ^ _HALF) << 1) | _HALF | 1
            else:
                break
        return sym


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
    band).  Raises ZeroProbabilityError exactly where shannon_code_length
    would.
    """
    model.validate()
    if not states:
        return "", []
    index = {s: i for i, s in enumerate(model.alphabet)}
    for i, s in enumerate(states):
        if s not in index:
            raise ZeroProbabilityError(i, states[i - 1] if i else None, s)

    rows: dict[str | None, list[int]] = {}  # one row per context, shared by both passes

    def row_for(prev: str | None) -> list[int]:
        if prev not in rows:
            if prev is None:
                probs = [model.initial_prob(s) for s in model.alphabet]
            else:
                probs = [model.transition_prob(prev, s) for s in model.alphabet]
            rows[prev] = _freq_row(probs)
        return rows[prev]

    enc = _Encoder()
    prev: str | None = None
    for i, s in enumerate(states):
        cum = row_for(prev)
        j = index[s]
        if cum[j + 1] == cum[j]:
            raise ZeroProbabilityError(i, prev, s)
        enc.encode(cum[j], cum[j + 1], cum[-1])
        prev = s
    encoded = enc.finish()

    dec = _Decoder(encoded)
    decoded: list[str] = []
    prev = None
    for _ in range(len(states)):
        cum = row_for(prev)
        sym = dec.decode(cum)
        prev = model.alphabet[sym]
        decoded.append(prev)
    return encoded, decoded
