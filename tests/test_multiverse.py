import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omni import multiverse
from omni.enumeration import DovetailRegistry, RegistryEntry
from omni.multiverse import dedup_universes, parse_evolution

bits_st = st.text(alphabet="01", max_size=5)


def test_parse_complete_evolution():
    states = parse_evolution("0,01,011")
    assert [(s.l, s.bits) for s in states] == [(1, "0"), (2, "01"), (3, "011")]


def test_parse_running_evolution_drops_unterminated_tail():
    # mid-print state after the last comma is not a state yet
    assert [s.bits for s in parse_evolution("0,01,", complete=True)] == ["0", "01"]
    assert [s.bits for s in parse_evolution("0,01", complete=False)] == ["0"]


def test_parse_empty_and_bad_symbols():
    assert parse_evolution("") == []
    with pytest.raises(ValueError):
        parse_evolution("0,x1")


@given(st.lists(bits_st, min_size=1, max_size=6))
@settings(max_examples=200)
def test_parse_reconstructs_joined_states(states):
    e = ",".join(states) + ","
    assert [s.bits for s in parse_evolution(e)] == states


def _registry(rows, cap=16):
    entries = {
        k: RegistryEntry(p, 0, halted, out, trunc)
        for k, (p, out, halted, trunc) in enumerate(rows, start=1)
    }
    return DovetailRegistry(entries, 0, 0, cap, "finite")


def test_dedup_grouping_rules():
    reg = _registry(
        [
            ("", "0", True, False),     # halted short output: '0$'
            ("0", "01", True, False),   # exactly prefix_len: no marker
            ("1", "0", False, False),   # still running: raw prefix '0'
            (",", "011", True, False),  # longer than prefix: keyed on '01'
            ("00", "0", True, True),    # truncated: treated as maybe-running
        ]
    )
    groups = dedup_universes(reg, 2)
    by_prefix = {g.prefix: g.members for g in groups}
    assert by_prefix == {"0$": [1], "0": [3, 5], "01": [2, 4]}
    # groups come out ordered by their first member
    assert [g.members[0] for g in groups] == sorted(g.members[0] for g in groups)


def test_dedup_membership_is_a_partition():
    reg = _registry([("", "0101", False, False)] * 7)
    groups = dedup_universes(reg, 3)
    members = sorted(m for g in groups for m in g.members)
    assert members == list(range(1, 8))


def test_dedup_prefix_len_guards():
    reg = _registry([("", "0", True, False)], cap=8)
    with pytest.raises(ValueError):
        dedup_universes(reg, 0)
    with pytest.raises(ValueError):
        dedup_universes(reg, 9)
    assert dedup_universes(reg, 8)[0].prefix == "0" + multiverse.END_MARKER
