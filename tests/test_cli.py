"""Command-line surface: golden outputs, exit codes, JSON schema."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schulze_wcm import InternalInvariantError, cli, engine
from schulze_wcm.cli import run_cli
from schulze_wcm.engine import widest_path_strengths

DATA = Path(__file__).parent / "data"
TWO = str(DATA / "two.elect")
BLOCKED = str(DATA / "blocked.elect")
TRIVIAL = str(DATA / "trivial.elect")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- golden


def test_manipulate_yes_golden(capsys):
    code, out, err = run(capsys, "manipulate", TWO, "--mode", "unique")
    assert code == 0
    assert out == "MANIPULABLE\nvote: c > a\nU: a=1 c=inf\n"
    assert err == ""


def test_manipulate_no_golden(capsys):
    code, out, err = run(capsys, "manipulate", BLOCKED, "--mode", "unique")
    assert code == 3
    assert out == "NOT MANIPULABLE\nU: a=-2 c=inf\n"
    assert err == ""


def test_winners_golden(capsys):
    code, out, err = run(capsys, "winners", TRIVIAL)
    assert code == 0
    assert out == "winners: a\n"
    assert err == ""


# ------------------------------------------------------------------ behavior


def test_winners_with_strengths(capsys):
    code, out, _ = run(capsys, "winners", TRIVIAL, "--strengths")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "winners: a"
    assert lines[1] == "strengths:"
    assert lines[2] == "a: . 1 1"
    assert lines[3] == "b: -1 . 1"
    assert lines[4] == "c: -1 -1 ."


def test_winners_with_strengths_runs_the_kernel_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(weights):
        calls.append(len(weights))
        return widest_path_strengths(weights)

    # schulze_winners looks the kernel up in engine, the printout in cli.
    monkeypatch.setattr(engine, "widest_path_strengths", counted)
    monkeypatch.setattr(cli, "widest_path_strengths", counted)
    cycle = tmp_path / "cycle.elect"
    cycle.write_text(
        "candidates: a b c\n"
        "ballot 1: a > b > c\nballot 1: b > c > a\nballot 1: c > a > b\n"
    )
    code, out, err = run(capsys, "winners", str(cycle), "--strengths")
    assert code == 0 and err == ""
    assert out == "winners: a b c\nstrengths:\na: . 1 1\nb: 1 . 1\nc: 1 1 .\n"
    assert calls == [3]


def test_winners_accepts_instance_files(capsys):
    code, out, _ = run(capsys, "winners", TWO)
    assert code == 0
    assert out == "winners: a\n"


def test_manipulate_json(capsys):
    code, out, _ = run(capsys, "manipulate", TWO, "--mode", "unique", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "mode": "unique",
        "manipulable": True,
        "vote": ["c", "a"],
        "U": {"a": 1, "c": "inf"},
        "ruleApplications": 1,
    }
    assert list(payload) == ["mode", "manipulable", "vote", "U", "ruleApplications"]


def test_manipulate_json_no_instance(capsys):
    code, out, _ = run(capsys, "manipulate", BLOCKED, "--json")
    assert code == 3
    payload = json.loads(out)
    assert payload["manipulable"] is False
    assert payload["vote"] is None
    assert payload["U"] == {"a": -2, "c": "inf"}


def test_manipulate_cowinner_mode(capsys):
    # Margin 1 against coalition weight 1: tie is enough only for co-winner.
    code, out, _ = run(
        capsys, "manipulate", str(DATA / "tied.elect"), "--mode", "cowinner"
    )
    assert code == 0 and out.startswith("MANIPULABLE")
    code, out, _ = run(
        capsys, "manipulate", str(DATA / "tied.elect"), "--mode", "unique"
    )
    assert code == 3 and out.startswith("NOT MANIPULABLE")
    code, out, _ = run(
        capsys, "manipulate", str(DATA / "tied.elect"), "--mode", "cowinner", "--json"
    )
    assert code == 0 and json.loads(out)["mode"] == "cowinner"


def test_verify_paths(capsys):
    code, out, _ = run(capsys, "verify", TWO, "--vote", "c > a")
    assert code == 0 and out == "VOTE SUCCEEDS\n"
    code, out, _ = run(capsys, "verify", TWO, "--vote", "a > c")
    assert code == 3 and out == "VOTE FAILS\n"
    code, out, _ = run(capsys, "verify", BLOCKED, "--vote", "c > a")
    assert code == 3


def test_verify_cowinner_mode(capsys):
    # The coalition's c > a only ties a's margin: enough for co-winner only.
    tied = str(DATA / "tied.elect")
    code, out, _ = run(capsys, "verify", tied, "--vote", "c > a", "--mode", "cowinner")
    assert code == 0 and out == "VOTE SUCCEEDS\n"
    code, out, _ = run(capsys, "verify", tied, "--vote", "c > a", "--mode", "unique")
    assert code == 3 and out == "VOTE FAILS\n"


def test_oracle_check_agreement(capsys):
    code, out, _ = run(capsys, "oracle-check", TWO, "--mode", "unique")
    assert code == 0
    assert out == "solver: MANIPULABLE\noracle: MANIPULABLE\nAGREEMENT\n"
    code, out, _ = run(
        capsys, "oracle-check", BLOCKED, "--mode", "cowinner", "--identical-only"
    )
    assert code == 0
    assert out.endswith("AGREEMENT\n")


# ---------------------------------------------------------------- exit codes


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.elect"
    bad.write_text("candidates: a b\nballot 1: a > z\n")
    code, out, err = run(capsys, "winners", str(bad))
    assert code == 2 and out == ""
    assert "line 2" in err and "unknown candidate" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "winners", "/does/not/exist.elect")
    assert code == 2 and err != ""


def test_manipulate_requires_instance(capsys):
    code, _, err = run(capsys, "manipulate", TRIVIAL)
    assert code == 2
    assert "manipulators" in err


def test_usage_error_exits_2(capsys):
    assert run_cli([]) == 2
    assert run_cli(["manipulate", TWO, "--mode", "bogus"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_oracle_disagreement_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "brute_force_wcm", lambda *args, **kwargs: (False, None))
    code, out, err = run(capsys, "oracle-check", TWO)
    assert code == 4
    assert out.endswith("oracle: NOT MANIPULABLE\nMISMATCH\n")
    assert err == ""


def test_internal_error_exits_1(monkeypatch, capsys):
    def broken(instance):
        raise InternalInvariantError("boom")

    monkeypatch.setattr(cli, "solve_wcm", broken)
    code, out, err = run(capsys, "manipulate", TWO)
    assert code == 1
    assert out == ""
    assert err == "internal error: boom\n"


@pytest.mark.parametrize(
    "name, code, stdout",
    [
        ("two.elect", 0, "MANIPULABLE\nvote: c > a\nU: a=1 c=inf\n"),
        ("blocked.elect", 3, "NOT MANIPULABLE\nU: a=-2 c=inf\n"),
    ],
)
def test_module_entry_point(name, code, stdout):
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "schulze_wcm.cli", "manipulate", str(DATA / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (code, stdout)


def test_cached_parser_carries_no_state_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    tied = str(DATA / "tied.elect")
    assert run(capsys, "manipulate", tied, "--mode", "cowinner")[0] == 0
    assert run(capsys, "manipulate", tied) == (
        3, "NOT MANIPULABLE\nU: a=0 c=inf\n", ""
    )
    assert run(capsys, "winners", TRIVIAL, "--strengths")[0] == 0
    assert run(capsys, "winners", TRIVIAL) == (0, "winners: a\n", "")
    assert run(capsys, "manipulate", TWO, "--mode", "bogus")[0] == 2
    assert run(capsys, "manipulate", TWO) == (
        0, "MANIPULABLE\nvote: c > a\nU: a=1 c=inf\n", ""
    )


def test_output_is_deterministic(capsys):
    first = run(capsys, "manipulate", TWO, "--json")
    second = run(capsys, "manipulate", TWO, "--json")
    assert first == second
