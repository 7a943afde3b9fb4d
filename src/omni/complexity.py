"""Program-length upper bounds by exhaustive shortlex search, plus the
compressibility census and a conditional/mutual-information estimate.

All bounds are what a finite search can certify: the length of the first
program (shortlex order) that halts within the step budget with exactly the
target output.  True minimal lengths can only be smaller, so every reported
value is an upper bound and every census fraction is an overestimate of the
truly compressible fraction; the counting bound must hold regardless.

The searches and the census walk the finite-mode tape tree once
(machine._witnesses), so every program prefix runs once and a run that dies
(wrong output, budget, cycle, divergence) kills its whole subtree; the
pruning proofs sit with the loop in the machine module docstring.  Once a
witness of length k is found only shorter nodes are visited, so the last
witness found is the shortlex-first.  The walk also skips the last level
under a node at register 0 that has printed too little for one more
instruction to reach the target's length (the cut, in the same
docstring).  A search that finds no witness at L = 10, such as '101,00' at
B = 10^4, resumes 5,761 nodes where the uncut tree has 13,591, and at
L = 11 the same ones: a node's children sit at even depths.  It took 2.9 ms
in place of 6.3 ms (2-core host, Python 3.11).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial

from .enumeration import programs
from .machine import _report, _witnesses, check_inputs, to_ints


@dataclass
class ComplexityBound:
    target: str
    k_hat: int | None
    witness: str | None
    max_len: int
    budget: int
    conditional_on: str | None = None

    def to_json(self) -> dict:
        return _report(self)


def _first_witness(s, max_len, budget, cond=None) -> ComplexityBound:
    check_inputs(budget)
    target = tuple(to_ints(s))
    aux = None if cond is None else tuple(to_ints(cond))
    witness = None
    for witness, _ in _witnesses(max_len, budget, len(target), target, aux, shortest=True):
        pass
    k_hat = None if witness is None else len(witness)
    return ComplexityBound(s, k_hat, witness, max_len, budget, cond)


def shortest_program_upper_bound(
    s: str, max_len: int, budget: int
) -> ComplexityBound:
    """Length of the first program (shortlex) that outputs exactly s and
    halts within budget; k_hat is None when no program of length <= max_len
    qualifies."""
    return _first_witness(s, max_len, budget)


def conditional_upper_bound(
    s: str, cond: str, max_len: int, budget: int
) -> ComplexityBound:
    """Same search under T3C with the conditional string on the aux tape."""
    return _first_witness(s, max_len, budget, cond)


@dataclass
class MutualInformation:
    x: str
    y: str
    value: int | None
    clamped: bool
    plain: ComplexityBound
    conditional: ComplexityBound

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "value": self.value,
            "clamped": self.clamped,
            "k_y": self.plain.k_hat,
            "k_y_given_x": self.conditional.k_hat,
            "L": self.plain.max_len,
            "B": self.plain.budget,
        }


def mutual_information_estimate(
    x: str, y: str, max_len: int, budget: int
) -> MutualInformation:
    """K_hat(y) - K_hat(y|x), clamped at 0 (a truncated search can make the
    difference spuriously negative).  None propagates from either bound."""
    plain = shortest_program_upper_bound(y, max_len, budget)
    cond = conditional_upper_bound(y, x, max_len, budget)
    if plain.k_hat is None or cond.k_hat is None:
        return MutualInformation(x, y, None, False, plain, cond)
    diff = plain.k_hat - cond.k_hat
    return MutualInformation(x, y, max(diff, 0), diff < 0, plain, cond)


@dataclass
class CensusReport:
    n: int
    c: int
    total: int
    compressible: int
    fraction: float
    max_len: int
    budget: int

    def to_json(self) -> dict:
        return _report(self)


def _census_outputs(n, max_len, budget, prefix):
    """The n-symbol outputs of the programs of length <= max_len that start
    with prefix."""
    return {out for _, out in _witnesses(max_len, budget, n, prefix=prefix)}


def compressibility_census(
    n: int, c: int, max_len: int, budget: int, workers: int = 1
) -> CensusReport:
    """Count strings of length n with K_hat < n - c among all 3^n of them.

    The fraction must come out below 3^-c: there are fewer than 3^(n-c)
    programs shorter than n - c, and each accounts for at most one string.
    So the walk goes no deeper than n - c - 1 (or max_len), and every
    output it finds counts.  Programs of one symbol or none print nothing,
    so the work fans out over the nine two-symbol subtrees.
    """
    if n < 1 or c < 1:
        raise ValueError("n and c must be >= 1")
    check_inputs(budget)
    # refuse a total the report cannot print: 3^n has more digits than the
    # limit exactly when 3^n >= 10^digits, which every n > 3 * digits meets
    # (27 > 10), so 3^n is computed only below that.  0 means no limit, as
    # before Python 3.10.7
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and (n > 3 * digits or 3**n >= 10**digits):
        raise ValueError(
            f"n = {n}: 3^n has more than {digits} digits, the limit on"
            " printing an int (sys.get_int_max_str_digits)"
        )
    # looked up at call time, so a wrapper of workers.parallel_map sees it
    from .workers import parallel_map

    top = min(max_len, n - c - 1)
    subtrees = parallel_map(
        partial(_census_outputs, n, top, budget), programs(2, min_len=2), workers
    )
    compressible = len(set().union(*subtrees))
    total = 3**n
    return CensusReport(n, c, total, compressible, compressible / total, max_len, budget)
