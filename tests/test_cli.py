import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from reference_machine import index_to_program

from omni import cli, coding, ssa


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    return payload


def test_enumerate(capsys):
    payload = run_json(capsys, "enumerate", "--from", "1", "--to", "4")
    assert [p["program"] for p in payload["programs"]] == ["", "0", "1", ","]


def _first_of_length(n):
    return (3**n + 1) // 2


_CHUNK = cli._ROWS_PER_CHUNK
ENUMERATE_RANGES = (
    [(1, 1), (1, 4)]
    + [(_first_of_length(n) - 1, _first_of_length(n) + 1) for n in range(1, 13)]
    + [(5, 4 + _CHUNK), (5, 5 + 2 * _CHUNK)]  # one whole chunk; two and one row
    + [(10**30, 10**30 + 40)]
    # rows stream in blocks k = 365 + 729 j ..: inside one block, across a
    # block edge, across the 5/6 and 6/7 symbol steps, then on either side
    # of the last entry of the table of first indices (64 symbols)
    + [(400, 700), (1800, 1900), (360, 1100)]
    + [(_first_of_length(64) - 3, _first_of_length(64) - 1), (_first_of_length(64), _first_of_length(64) + 2)]
)


@pytest.mark.parametrize("start,stop", ENUMERATE_RANGES)
def test_enumerate_bytes_match_json_dumps(tmp_path, capsys, start, stop):
    rows = [{"k": k, "program": index_to_program(k)} for k in range(start, stop + 1)]
    want = json.dumps({"schema": 1, "from": start, "to": stop, "programs": rows}, indent=2) + "\n"
    argv = ["enumerate", "--from", str(start), "--to", str(stop)]
    assert run_cli(capsys, *argv) == (0, want)
    path = tmp_path / "enumerate.json"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "")
    assert path.read_text() == want


def test_enumerate_memory_is_flat_in_rows(tmp_path):
    tracemalloc.start()
    try:
        code = cli.main(["enumerate", "--from", "1", "--to", "60000", "--out", str(tmp_path / "e.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 4 * 2**20


def test_enumerate_bad_range_is_guarded(capsys):
    code, _ = run_cli(capsys, "enumerate", "--from", "5", "--to", "2")
    assert code == 2


def test_run_frozen(capsys):
    payload = run_json(
        capsys, "run", "--program", "000,01,1", "--max-steps", "50"
    )
    assert payload["output"] == "0,1"
    assert payload["status"] == "halted"
    assert payload["consumed"] == 8 and payload["steps"] == 4


def test_run_variant_flags(capsys):
    payload = run_json(
        capsys, "run", "--program", ",,", "--variant", "t3c", "--aux", "01"
    )
    assert payload["output"] == "01"
    payload = run_json(capsys, "run", "--program", ",,00", "--variant", "t3c")
    assert payload["output"] == "0"  # no --aux: an empty aux tape
    payload = run_json(capsys, "run", "--program", "101", "--variant", "dual")
    assert payload["output"] == "0"
    payload = run_json(
        capsys, "run", "--program", "000,01", "--mode", "lazy"
    )
    assert payload["status"] == "budget"


def test_run_bad_program_exits_2(capsys):
    code, _ = run_cli(capsys, "run", "--program", "0x1")
    assert code == 2


def test_run_output_past_the_limit_exits_2_at_once(capsys):
    # INC MARK OUT0 LOOP prints one symbol per two steps: 5*10^9 symbols at
    # this budget, which the report must not try to hold
    start = time.perf_counter()
    code = cli.main(["run", "--program", "10,,00,0", "--max-steps", "10000000000"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert (code, captured.out) == (2, "")
    assert str(2**20) in captured.err


def test_run_output_under_the_limit_is_kept(capsys):
    # 999,999 symbols, just under the 2^20 limit
    payload = run_json(capsys, "run", "--program", "10,,00,0", "--max-steps", "2000000")
    assert (payload["output"], payload["status"], payload["steps"]) == ("0" * 999_999, "budget", 2_000_000)
    assert payload["consumed"] == 8


@pytest.mark.parametrize(
    "argv",
    [
        ["prior", "--target", "0x", "--samples", "10", "--budget", "50"],
        ["prior-exact", "--target", "x", "--max-len", "2", "--budget", "50"],
        ["prior", "--target", "0", "--samples", "10", "--budget", "0"],
        ["kcomp", "--target", "0", "--max-len", "2", "--budget", "0"],
        ["census", "--n", "1", "--c", "1", "--max-len", "2", "--budget", "0"],
        ["kraft", "--max-len", "0", "--budget", "0"],
        ["kraft", "--max-len", "4", "--budget", "0"],
        ["kraft", "--max-len", "2", "--budget", "0", "--variant", "dual"],
        ["prior-exact", "--target", "0", "--max-len", "2", "--budget", "0"],
        ["prior-exact", "--target", "0", "--max-len", "2", "--budget", "0", "--variant", "dual"],
        ["prior-exact", "--target", "2", "--max-len", "2", "--budget", "10", "--variant", "dual"],
        ["census", "--n", "1", "--c", "1", "--max-len", "2", "--budget", "10", "--workers", "0"],
        ["census", "--n", "1", "--c", "1", "--max-len", "2", "--budget", "10", "--workers", "-1"],
        ["prior", "--target", "0", "--samples", "10", "--budget", "50", "--workers", "0"],
        ["prior", "--target", "0", "--samples", "10", "--budget", "50", "--workers", "-1"],
        ["dovetail", "--steps", "64", "--workers", "0"],
        ["dovetail", "--steps", "64", "--workers", "-1"],
        ["ssa", "--period", "0", "--lifetime", "100"],
        ["ssa", "--period", "50", "--lifetime", "0"],
        ["dovetail", "--steps", "0"],
    ],
)
def test_bad_target_or_budget_exits_2(capsys, argv):
    # the rules machine.run applies: budget >= 1, targets over "01,"; a
    # fan-out needs at least one worker, a clock, period or lifetime at
    # least one step
    assert run_cli(capsys, *argv) == (2, "")


def test_usage_error_exits_1(capsys):
    # --program missing, and t3c, which has no canonical programs, is no
    # --variant choice of kraft or prior-exact
    for argv in [
        ["run"],
        ["kraft", "--max-len", "0", "--budget", "10", "--variant", "t3c"],
        ["kraft", "--max-len", "4", "--budget", "10", "--variant", "t3c"],
        ["prior-exact", "--target", "0", "--max-len", "0", "--budget", "10", "--variant", "t3c"],
        ["prior-exact", "--target", "0", "--max-len", "4", "--budget", "10", "--variant", "t3c"],
    ]:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1


def test_dovetail_dedup_pipeline(tmp_path, capsys):
    snap = tmp_path / "reg.jsonl"
    code, out = run_cli(capsys, "dovetail", "--steps", "4096", "--out", str(snap))
    assert code == 0 and out == ""
    lines = [json.loads(line) for line in snap.read_text().splitlines()]
    assert lines[0]["schema"] == 1 and lines[0]["kind"] == "dovetail-registry"
    assert lines[0]["cap"] == 4096  # default output cap recorded in the header
    assert all("output_prefix" in row for row in lines[1:])

    payload = run_json(
        capsys, "dedup", "--snapshot", str(snap), "--prefix-len", "2"
    )
    members = sorted(m for g in payload["groups"] for m in g["members"])
    assert members == [row["k"] for row in lines[1:]]

    code, _ = run_cli(
        capsys, "dedup", "--snapshot", str(snap), "--prefix-len", "999999"
    )
    assert code == 2


def test_dedup_rejects_non_registry_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": 1, "kind": "something-else"}\n')
    code, _ = run_cli(capsys, "dedup", "--snapshot", str(bad), "--prefix-len", "2")
    assert code == 2
    code, _ = run_cli(
        capsys, "dedup", "--snapshot", str(tmp_path / "missing.jsonl"), "--prefix-len", "2"
    )
    assert code == 2
    head = {
        "schema": 1, "kind": "dovetail-registry", "cap": 64,
        "requested_steps": 10, "executed_steps": 10, "mode": "finite",
    }
    malformed = (
        "[1, 2]\n",  # not an object
        json.dumps(head) + "\n[1]\n",  # a row that is not an object
        json.dumps(head | {"cap": "x"}) + "\n",  # a header field of the wrong type
    )
    for text in malformed:
        bad.write_text(text)
        code, _ = run_cli(capsys, "dedup", "--snapshot", str(bad), "--prefix-len", "2")
        assert code == 2, text


def test_dedup_refuses_a_deeply_nested_line(tmp_path, capsys):
    # 200,000 nested arrays pass the decoder's recursion limit: a malformed
    # snapshot, not a crash with a traceback
    snap = tmp_path / "deep.jsonl"
    snap.write_text("[" * 200_000 + "]" * 200_000 + "\n")
    code = cli.main(["dedup", "--snapshot", str(snap), "--prefix-len", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.splitlines() == ["omni: error: malformed dovetail registry snapshot"]


def test_dedup_rejects_a_repeated_index(tmp_path, capsys):
    # two rows for k = 3 are not a snapshot; keeping either would guess
    head = {
        "schema": 1, "kind": "dovetail-registry", "cap": 64,
        "requested_steps": 10, "executed_steps": 2, "mode": "finite",
    }
    row = {"k": 3, "program": "1", "steps": 1, "halted": True, "truncated": False}
    snap = tmp_path / "dup.jsonl"
    lines = [head, row | {"output_prefix": "0"}, row | {"output_prefix": "1"}]
    snap.write_text("".join(json.dumps(r) + "\n" for r in lines))
    code, out = run_cli(capsys, "dedup", "--snapshot", str(snap), "--prefix-len", "1")
    assert code == 2 and out == ""
    snap.write_text("".join(json.dumps(r) + "\n" for r in lines[:2]))
    payload = run_json(capsys, "dedup", "--snapshot", str(snap), "--prefix-len", "1")
    assert payload["groups"] == [{"prefix": "0", "members": [3]}]


def _dedup_one_row(tmp_path, capsys, **fields):
    """Exit code and stdout of dedup on a header with cap 64 and one row,
    A_3 = "1" printing "0" unless fields say otherwise."""
    head = {
        "schema": 1, "kind": "dovetail-registry", "cap": 64,
        "requested_steps": 10, "executed_steps": 1, "mode": "finite",
    }
    row = {"k": 3, "program": "1", "steps": 1, "halted": True,
           "output_prefix": "0", "truncated": False} | fields
    snap = tmp_path / "one.jsonl"
    snap.write_text(json.dumps(head) + "\n" + json.dumps(row) + "\n")
    return run_cli(capsys, "dedup", "--snapshot", str(snap), "--prefix-len", "1")


def test_dedup_accepts_a_valid_one_row_snapshot(tmp_path, capsys):
    code, out = _dedup_one_row(tmp_path, capsys, output_prefix="0" * 64)
    assert code == 0 and json.loads(out)["groups"] == [{"prefix": "0", "members": [3]}]


def test_dedup_rejects_an_index_below_one(tmp_path, capsys):
    for k in (0, -5):
        assert _dedup_one_row(tmp_path, capsys, k=k) == (2, ""), k


def test_dedup_rejects_a_program_that_is_not_a_k(tmp_path, capsys):
    # A_3 is "1"
    for program in ("0000", "0", ""):
        assert _dedup_one_row(tmp_path, capsys, program=program) == (2, ""), program


def test_dedup_rejects_an_output_prefix_longer_than_the_cap(tmp_path, capsys):
    assert _dedup_one_row(tmp_path, capsys, output_prefix="0" * 65) == (2, "")


def test_dedup_rejects_an_output_prefix_with_a_foreign_symbol(tmp_path, capsys):
    # a halted A_2 printing "0" would pool with an unhalted A_3 printing
    # "0$" at prefix length 3, though a finished short universe never pools
    # with unfinished ones
    head = {
        "schema": 1, "kind": "dovetail-registry", "cap": 64,
        "requested_steps": 10, "executed_steps": 2, "mode": "finite",
    }
    rows = [
        head,
        {"k": 2, "program": "0", "steps": 1, "halted": True, "output_prefix": "0", "truncated": False},
        {"k": 3, "program": "1", "steps": 1, "halted": False, "output_prefix": "0$", "truncated": False},
    ]
    snap = tmp_path / "foreign.jsonl"
    snap.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code = cli.main(["dedup", "--snapshot", str(snap), "--prefix-len", "3"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "malformed dovetail registry snapshot" in err


def test_census(capsys):
    payload = run_json(
        capsys, "census", "--n", "2", "--c", "1", "--max-len", "4", "--budget", "100"
    )
    assert payload["total"] == 9 and payload["fraction"] == 0.0


def test_census_refuses_an_n_whose_total_cannot_be_printed(capsys, monkeypatch):
    # 3^9012 has 4,300 digits, the default limit on printing an int, and
    # 3^9013 one more: the census refuses that n, naming the limit, before
    # it fans out its walk
    from omni import workers

    argv = ["--c", "1", "--max-len", "2", "--budget", "10"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        total = run_json(capsys, "census", "--n", "9012", *argv)["total"]
        assert len(str(total)) == 4300
        monkeypatch.setattr(workers, "parallel_map", None)
        code = cli.main(["census", "--n", "9013", *argv])
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "more than 4300 digits" in err and "get_int_max_str_digits" in err


def test_kcomp_and_cond(capsys):
    payload = run_json(
        capsys, "kcomp", "--target", "0", "--max-len", "4", "--budget", "100"
    )
    assert payload["k_hat"] == 2 and payload["witness"] == "00"
    payload = run_json(
        capsys,
        "kcomp", "--target", "0101", "--cond", "0101", "--max-len", "4", "--budget", "100",
    )
    assert payload["k_hat"] == 2 and payload["witness"] == ",,"


def test_mutual(capsys):
    payload = run_json(
        capsys, "mutual", "--x", "0101", "--y", "0101", "--max-len", "8", "--budget", "500"
    )
    assert payload["value"] == 6


def test_prior_deterministic_and_seed_override(capsys, monkeypatch):
    args = ["prior", "--target", "0", "--samples", "2000", "--budget", "100"]
    first = run_json(capsys, *args, "--seed", "5")
    second = run_json(capsys, *args, "--seed", "5", "--workers", "3")
    assert first == second
    assert first["rng"] == "splitmix64"
    assert first["p_hat"] < first["p_upper"] < 1
    monkeypatch.setenv("OMNI_SEED", "5")
    third = run_json(capsys, *args, "--seed", "31337")
    assert third == first
    monkeypatch.setenv("OMNI_SEED", "not-a-number")
    code, _ = run_cli(capsys, *args)
    assert code == 2


def test_prior_exact_and_kraft(capsys):
    payload = run_json(
        capsys, "prior-exact", "--target", "0", "--max-len", "4", "--budget", "100"
    )
    assert payload["hits"] == 1 and payload["p_hat"] == pytest.approx(1 / 81)
    assert "rng" not in payload and "p_upper" not in payload
    payload = run_json(capsys, "kraft", "--max-len", "4", "--budget", "100")
    assert payload["total_mass"] == pytest.approx(16 / 81)
    assert payload["program_count"] == 8


def test_coding_gap_multiple_targets(capsys):
    payload = run_json(
        capsys,
        "coding-gap", "--target", "", "--target", "0", "--max-len", "6", "--budget", "500",
    )
    assert len(payload["targets"]) == 2
    assert payload["max_gap"] <= 0


def test_demo_compiler(capsys):
    payload = run_json(
        capsys, "demo-compiler", "--max-len", "3", "--budget", "200"
    )
    assert payload["ok"] is True


def test_demo_compiler_at_a_budget_of_ten_billion(capsys):
    # every run among these programs halts, leaves its tape or is proven to
    # loop long before the budget, and no output is stored in full
    payload = run_json(
        capsys, "demo-compiler", "--max-len", "7", "--budget", "10000000000"
    )
    assert payload["ok"] is True


def test_entropy(capsys):
    payload = run_json(capsys, "entropy", "--x", "0,1,0,0,1,0")
    assert payload["alphabet"] == ["0", "1"]
    assert payload["roundtrip_ok"] is True
    assert payload["encoded_bits"] <= payload["shannon_bits"] + 32
    code, _ = run_cli(capsys, "entropy", "--x", ",,")
    assert code == 2


def test_entropy_past_the_coders_precision_exits_2(capsys, monkeypatch):
    # the coder refuses a frequency row whose total it cannot hold; no
    # bigram fit reaches that at the real limit, so lower the limit
    states = "0,1,0,0,1,0".split(",")
    model = coding.fit_noise_model(states)
    monkeypatch.setattr(coding, "_MAX_TOTAL", coding._SCALE // 2)
    with pytest.raises(ValueError, match="alphabet too large"):
        coding.arithmetic_roundtrip(states, model)
    assert run_cli(capsys, "entropy", "--x", "0,1,0,0,1,0") == (2, "")


def test_ssa_summary_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    payload = run_json(
        capsys,
        "ssa", "--period", "50", "--lifetime", "400", "--seed", "3",
        "--trace", str(trace),
    )
    assert payload["steps"] == 400 and payload["period"] == 50
    assert 0.0 <= payload["mean_reward"] <= 1.0
    lines = trace.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["kind"] == "learner-trace" and head["schema"] == 1
    assert len(lines) == 401
    last = json.loads(lines[-1])
    assert last["t"] == 400 and last["R"] == pytest.approx(payload["total_reward"])


def test_ssa_trace_lines_are_json_dumps_of_the_rows(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    argv = ["ssa", "--period", "50", "--lifetime", "5000", "--seed", "3", "--trace", str(trace)]
    run_json(capsys, *argv)
    api = ssa.run_learner(ssa.SwitchingBandit(50), 5000, 3)
    assert api.pops >= 1
    head = {"schema": 1, "kind": "learner-trace", "period": 50, "steps": 5000, "seed": 3}
    want = [json.dumps(head) + "\n"] + [json.dumps(row) + "\n" for row in api.jsonl_rows()]
    with open(trace) as f:
        assert list(f) == want


@pytest.mark.parametrize("path", ["", "no-such-dir/x.jsonl"])
def test_ssa_bad_trace_path_exits_2_before_the_run(tmp_path, capsys, monkeypatch, path):
    def no_run(*args, **kwargs):
        raise AssertionError("the learner ran before the trace file opened")

    monkeypatch.setattr(ssa, "run_learner", no_run)
    trace = str(tmp_path / path) if path else path
    code, out = run_cli(capsys, "ssa", "--period", "50", "--lifetime", "100", "--trace", trace)
    assert code == 2 and out == ""


@pytest.mark.parametrize("period, lifetime", [(0, 100), (50, 0)])
def test_ssa_bad_period_or_lifetime_writes_no_trace(tmp_path, capsys, period, lifetime):
    trace = tmp_path / "trace.jsonl"
    argv = ["--period", str(period), "--lifetime", str(lifetime), "--trace", str(trace)]
    assert run_cli(capsys, "ssa", *argv) == (2, "")
    assert not trace.exists()


def test_ssa_respects_omni_seed(capsys, monkeypatch):
    base = run_json(capsys, "ssa", "--period", "20", "--lifetime", "200", "--seed", "8")
    monkeypatch.setenv("OMNI_SEED", "8")
    override = run_json(
        capsys, "ssa", "--period", "20", "--lifetime", "200", "--seed", "0"
    )
    assert override == base


def test_identical_invocations_are_byte_identical(capsys):
    _, a = run_cli(capsys, "kcomp", "--target", "0,", "--max-len", "6", "--budget", "200")
    _, b = run_cli(capsys, "kcomp", "--target", "0,", "--max-len", "6", "--budget", "200")
    assert a == b


def test_out_flag_writes_file_not_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "run", "--program", "00", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["output"] == "0"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--program", "00"],
        ["kraft", "--max-len", "4", "--budget", "100"],
        ["enumerate", "--from", "1", "--to", "4"],
    ],
)
def test_empty_out_path_exits_2_with_nothing_on_stdout(capsys, argv):
    assert run_cli(capsys, *argv, "--out", "") == (2, "")


def test_python_m_omni_cli_exits_with_mains_code(capsys):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def python_m(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "omni.cli", *argv], capture_output=True, text=True, env=env
        )
        return done.returncode, done.stdout

    argv = ["run", "--program", "000,01,1"]
    assert python_m(*argv) == run_cli(capsys, *argv)
    assert python_m("run") == (1, "")
    assert python_m("run", "--program", "0x1") == (2, "")


def _readme_blocks(lang):
    """The text of each README code block fenced as lang."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"```{lang}\n(.*?)```", readme, re.S)


def _readme_cli_examples():
    """(argv, expected stdout) of each README sh block whose first line is
    a "$ omni ..." command."""
    examples = []
    for block in _readme_blocks("sh"):
        command, _, out = block.partition("\n")
        if command.startswith("$ omni "):
            examples.append((shlex.split(command)[2:], out))
    return examples


def test_readme_cli_examples_print_what_they_show(capsys):
    examples = _readme_cli_examples()
    assert {"run", "kcomp"} <= {argv[0] for argv, _ in examples}
    for argv, out in examples:
        assert run_cli(capsys, *argv) == (0, out), argv


def test_readme_python_blocks_run():
    blocks = _readme_blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
