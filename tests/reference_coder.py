"""Class-based reference range coder, for differential tests.

This is the coder omni shipped before its encoder and decoder were folded
into arithmetic_roundtrip's two loops: an _Encoder and a _Decoder object
carry low, high, pending and code, and the decoder reads the stream one
bit at a time through a method that reads 0 past the end and scans a
row for the symbol.  It keeps its own constants and frequency rows, and
takes from omni only the model and the error type, so agreement between
the two, bit for bit, is evidence, not tautology.
"""

from omni.coding import ZeroProbabilityError

_NUM_BITS = 32
_FULL = 1 << _NUM_BITS
_HALF = _FULL >> 1
_QUARTER = _HALF >> 1
_MASK = _FULL - 1
_MAX_TOTAL = _QUARTER + 2
_SCALE = 1 << 16


class _Encoder:
    def __init__(self):
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self.bits = []

    def _emit(self, bit):
        self.bits.append("01"[bit])
        if self.pending:
            self.bits.append("10"[bit] * self.pending)
            self.pending = 0

    def encode(self, cum_lo, cum_hi, total):
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

    def finish(self):
        self._emit(1)
        return "".join(self.bits)


class _Decoder:
    def __init__(self, bits):
        self.bits = bits
        self.pos = 0
        self.low = 0
        self.high = _MASK
        self.code = 0
        for _ in range(_NUM_BITS):
            self.code = (self.code << 1) | self._read()

    def _read(self):
        # past the end of the stream reads as 0, matching the encoder's
        # implicit infinite tail
        if self.pos >= len(self.bits):
            return 0
        b = self.bits[self.pos]
        self.pos += 1
        return 1 if b == "1" else 0

    def decode(self, cum):
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


def _freq_row(probs):
    """Cumulative frequency table; every positive probability gets >= 1."""
    freqs = [max(1, round(p * _SCALE)) if p > 0.0 else 0 for p in probs]
    cum = [0]
    for f in freqs:
        cum.append(cum[-1] + f)
    if cum[-1] > _MAX_TOTAL:
        raise ValueError("alphabet too large for the coder's precision")
    return cum


def arithmetic_roundtrip(states, model):
    """(encoded bit string, decoded states), as omni.coding's coder gives
    them, raising the ZeroProbabilityError it raises."""
    model.validate()
    if not states:
        return "", []
    index = {s: i for i, s in enumerate(model.alphabet)}
    for i, s in enumerate(states):
        if s not in index:
            raise ZeroProbabilityError(i, states[i - 1] if i else None, s)

    rows = {}

    def row_for(prev):
        if prev not in rows:
            if prev is None:
                probs = [model.initial_prob(s) for s in model.alphabet]
            else:
                probs = [model.transition_prob(prev, s) for s in model.alphabet]
            rows[prev] = _freq_row(probs)
        return rows[prev]

    enc = _Encoder()
    prev = None
    for i, s in enumerate(states):
        cum = row_for(prev)
        j = index[s]
        if cum[j + 1] == cum[j]:
            raise ZeroProbabilityError(i, prev, s)
        enc.encode(cum[j], cum[j + 1], cum[-1])
        prev = s
    encoded = enc.finish()

    dec = _Decoder(encoded)
    decoded = []
    prev = None
    for _ in range(len(states)):
        cum = row_for(prev)
        sym = dec.decode(cum)
        prev = model.alphabet[sym]
        decoded.append(prev)
    return encoded, decoded
