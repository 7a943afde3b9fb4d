"""Evolutions as symbol strings, and output dedup.

An evolution is a string over {'0','1',','} where ',' closes a state, so
"0,1,00," reads: state "0", then "1", then "00".  Whatever follows the last
comma is an unfinished state; it only counts once the evolution is marked
complete (and is non-empty).
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import DovetailRegistry
from .machine import to_ints

END_MARKER = "$"  # not a machine symbol, marks a complete short output


@dataclass
class UniverseState:
    bits: str
    l: int  # 1-based position in its evolution; the big bang is l == 1


def parse_evolution(e: str, complete: bool = True) -> list[UniverseState]:
    to_ints(e)  # symbol validation only
    segments = e.split(",")
    states = segments[:-1]
    if complete and segments[-1]:
        states.append(segments[-1])
    return [UniverseState(bits, l) for l, bits in enumerate(states, start=1)]


@dataclass
class DedupGroup:
    prefix: str
    members: list[int]


def dedup_universes(registry: DovetailRegistry, prefix_len: int) -> list[DedupGroup]:
    """Partition registry programs by their first prefix_len output symbols.

    A halted program whose whole output is shorter than prefix_len compares
    by full output plus an end marker, so a finished short universe never
    pools with unfinished ones that merely start the same way.
    pre: prefix_len <= the registry's output cap.
    """
    cap = registry.output_cap
    if prefix_len > cap:
        raise ValueError(f"prefix_len {prefix_len} exceeds registry output cap {cap}")
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    groups: dict[str, list[int]] = {}
    for k, e in sorted(registry.entries.items()):
        out = e.output_prefix
        if e.halted and not e.truncated and len(out) < prefix_len:
            key = out + END_MARKER
        else:
            key = out[:prefix_len]
        groups.setdefault(key, []).append(k)
    return [DedupGroup(prefix, members) for prefix, members in groups.items()]
