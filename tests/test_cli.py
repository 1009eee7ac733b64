"""Command-line behaviour: summaries, exit codes, transcript files."""

import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triauth import KINDS, MUTATION_TARGETS, ScenarioConfig, run_scenario, verify_transcript
from triauth.cli import main


@pytest.fixture
def dict_file(tmp_path):
    path = tmp_path / "small.tsv"
    path.write_text("bob\tx1\nalice\tpw123\neve\tz9\n", encoding="utf-8")
    return str(path)


def run_cli(*args):
    return main(list(args))


class TestRunCommand:
    def test_honest_run_reports_agreement(self, tmp_path, capsys):
        out = str(tmp_path / "t.log")
        assert run_cli("run", "honest", "--seed", "1", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "SK agreement: yes" in stdout
        assert f"transcript written: {out}" in stdout

    def test_guess_prints_credentials_and_work(self, dict_file, capsys):
        assert run_cli("run", "guess", "--seed", "1", "--dict", dict_file) == 0
        stdout = capsys.readouterr().out
        assert "recovered credentials: alice pw123" in stdout
        assert "evaluations: 2" in stdout

    def test_replay_reports_acceptance(self, capsys):
        assert run_cli("run", "replay", "--seed", "1") == 0
        stdout = capsys.readouterr().out
        assert "replayed M1 accepted by CS: yes" in stdout
        assert "adversary knows session key: no" in stdout

    def test_masquerade_reports_shared_key(self, capsys):
        assert run_cli("run", "masquerade", "--seed", "1") == 0
        stdout = capsys.readouterr().out
        assert "forged M1 accepted by CS: yes" in stdout
        assert "SK agreement (attacker, server, CS): yes" in stdout

    def test_mutation_reports_expected_abort(self, capsys):
        assert run_cli("run", "mutation", "--seed", "1", "--mutate-field", "m2.m_i") == 0
        assert "abort ServerAuthFailed at cs" in capsys.readouterr().out

    def test_guess_without_dict_is_usage_error(self, capsys):
        assert run_cli("run", "guess", "--seed", "1") == 2
        assert "requires --dict" in capsys.readouterr().err

    def test_mutation_without_target_is_usage_error(self, capsys):
        assert run_cli("run", "mutation", "--seed", "1") == 2

    def test_unknown_kind_is_usage_error(self, capsys):
        assert run_cli("run", "bogus") == 2

    def test_missing_dict_file_is_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "guess", "--dict", str(tmp_path / "nope.tsv")) == 2

    @pytest.mark.parametrize("flag", ["--id", "--password", "--sid", "--attacker-id"])
    def test_text_that_is_not_utf8_is_usage_error(self, flag, capsys):
        # a byte that is not UTF-8 reaches argv as a lone surrogate
        assert run_cli("run", "masquerade", flag, "\udcff") == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_failed_guess_exits_one(self, dict_file, capsys):
        code = run_cli("run", "guess", "--seed", "1", "--dict", dict_file,
                       "--id", "nobody", "--password", "nothing")
        assert code == 1
        assert "recovered credentials: none" in capsys.readouterr().out

    def test_password_with_a_line_separator_is_recovered(self, tmp_path, capsys):
        path = tmp_path / "sep.tsv"
        path.write_text("bob\tx1\nalice\tpw\u2028123\n", encoding="utf-8")
        code = run_cli("run", "guess", "--seed", "1", "--dict", str(path), "--password", "pw\u2028123")
        assert code == 0
        stdout = capsys.readouterr().out
        assert "recovered credentials: alice pw\u2028123" in stdout
        assert "evaluations: 2" in stdout

    def test_cross_product_dictionary(self, tmp_path, capsys):
        path = tmp_path / "cross.tsv"
        # true pair only appears when the cross product is expanded
        path.write_text("alice\tzzz\nbob\tpw123\n", encoding="utf-8")
        assert run_cli("run", "guess", "--seed", "1", "--dict", str(path)) == 1
        assert run_cli("run", "guess", "--seed", "1", "--dict", str(path), "--cross") == 0


class TestDeterminism:
    def test_same_seed_writes_identical_files(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.log"), str(tmp_path / "b.log")
        assert run_cli("run", "honest", "--seed", "7", "--out", a) == 0
        assert run_cli("run", "honest", "--seed", "7", "--out", b) == 0
        assert (tmp_path / "a.log").read_bytes() == (tmp_path / "b.log").read_bytes()


class TestVerifyCommand:
    def test_fresh_transcript_verifies(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        assert run_cli("run", "honest", "--seed", "3", "--out", str(out)) == 0
        assert run_cli("verify", str(out)) == 0
        assert "consistent" in capsys.readouterr().out

    def test_corrupted_hex_digit_fails(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        assert run_cli("run", "honest", "--seed", "3", "--out", str(out)) == 0
        text = out.read_text(encoding="utf-8")
        marker = '"payload":"'
        pos = text.index(marker) + len(marker)
        text = text[:pos] + ("0" if text[pos] != "0" else "1") + text[pos + 1:]
        out.write_text(text, encoding="utf-8")
        assert run_cli("verify", str(out)) == 1

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_copy_with_other_line_ends_fails(self, newline, tmp_path, capsys):
        out = tmp_path / "t.log"
        assert run_cli("run", "honest", "--seed", "3", "--out", str(out)) == 0
        assert b"\r" not in out.read_bytes()
        assert run_cli("verify", str(out)) == 0
        copy = tmp_path / "copy.log"
        copy.write_bytes(out.read_bytes().replace(b"\n", newline))
        assert verify_transcript(copy.read_bytes().decode("utf-8"))[0] == 1
        assert run_cli("verify", str(copy)) == 1

    def test_malformed_file_is_status_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("definitely { not jsonl\n", encoding="utf-8")
        assert run_cli("verify", str(bad)) == 2

    def test_missing_file_is_status_two(self, tmp_path, capsys):
        assert run_cli("verify", str(tmp_path / "absent.log")) == 2

    def test_verify_all_kinds_fresh(self, tmp_path, dict_file, capsys):
        cases = [
            ("honest", []),
            ("replay", []),
            ("masquerade", []),
            ("guess", ["--dict", dict_file]),
            ("mutation", ["--mutate-field", "m4.v_i"]),
        ]
        for kind, extra in cases:
            out = str(tmp_path / f"{kind}.log")
            assert run_cli("run", kind, "--seed", "5", "--out", out, *extra) == 0
            assert run_cli("verify", out) == 0, kind


# Flags whose text is fuzzed.  --out and --dict are left out, so no file is written or read.
FUZZED_FLAGS = ("--seed", "--id", "--password", "--sid", "--attacker-id", "--mutate-field")


class TestRunNeverRaises:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        values=st.dictionaries(
            st.sampled_from(FUZZED_FLAGS),
            st.one_of(st.integers().map(str), st.text(st.characters(exclude_categories=()))),
        ),
    )
    def test_exit_code_is_0_1_or_2(self, kind, values):
        # Lone surrogates stand for argv bytes that are not UTF-8.  --flag=value
        # keeps a value that starts with "-" from being read as another flag.
        argv = ["run", kind, *(f"{flag}={value}" for flag, value in values.items())]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# Names of the paths a property draws from, each mapped to a file made by make_paths.
PATH_NAMES = ("valid.tsv", "malformed.tsv", "latin1.tsv", "dir", "missing", "valid.jsonl", "corrupted.jsonl")


@cache
def transcript_text() -> str:
    return run_scenario(ScenarioConfig(kind="honest", seed=3)).to_jsonl()


def make_paths(root: Path) -> dict[str, str]:
    """One file of each kind a user might name, written under root; "missing" is not created."""
    marker = '"payload":"'
    text = transcript_text()
    pos = text.index(marker) + len(marker)
    (root / "valid.tsv").write_text("bob\tx1\nalice\tpw123\n", encoding="utf-8")
    (root / "malformed.tsv").write_text("no-tab-here\n", encoding="utf-8")
    (root / "latin1.tsv").write_bytes("alice\tpw\u00e9\n".encode("latin-1"))
    (root / "dir").mkdir()
    (root / "valid.jsonl").write_text(text, encoding="utf-8")
    (root / "corrupted.jsonl").write_text(
        text[:pos] + ("0" if text[pos] != "0" else "1") + text[pos + 1:], encoding="utf-8"
    )
    return {name: str(root / name) for name in PATH_NAMES}


@st.composite
def path_argvs(draw):
    """verify PATH, or run KIND with --dict PATH and --out PATH each present or not; paths by name."""
    paths = st.sampled_from(PATH_NAMES)
    if draw(st.booleans()):
        return ["verify", draw(paths)]
    argv = ["run", draw(st.sampled_from(KINDS))]
    if draw(st.booleans()):
        argv += ["--dict", draw(paths)]
    if draw(st.booleans()):
        argv += ["--out", draw(paths)]
    if draw(st.booleans()):
        argv.append("--cross")
    if argv[1] == "mutation" and draw(st.booleans()):
        argv += ["--mutate-field", draw(st.sampled_from(sorted(MUTATION_TARGETS)))]
    return argv


class TestPathsNeverRaise:
    # Each example gets a fresh directory, since --out may overwrite any file in the set.
    @settings(max_examples=200, deadline=None)
    @given(path_argvs())
    def test_exit_code_is_0_1_or_2(self, argv):
        with tempfile.TemporaryDirectory() as root:
            paths = make_paths(Path(root))
            argv = [paths.get(arg, arg) for arg in argv]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2)


class TestStartUp:
    def test_import_loads_neither_dataclasses_nor_inspect(self):
        # Each costs milliseconds at every start of the command.  -S keeps .pth
        # files in site-packages from importing modules of their own.
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, triauth.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        child = subprocess.run(
            [sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert child.stdout == "[]\n"
