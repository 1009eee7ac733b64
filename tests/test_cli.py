"""Command-line behaviour: summaries, exit codes, transcript files."""

import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triauth import KINDS, MUTATION_TARGETS, ConfigError, ScenarioConfig, Transcript, run_scenario, verify_transcript
from triauth.cli import main, summarize

from make_golden import cases

GOLDEN_CASES = cases()


@pytest.fixture
def dict_file(tmp_path):
    path = tmp_path / "small.tsv"
    path.write_text("bob\tx1\nalice\tpw123\neve\tz9\n", encoding="utf-8")
    return str(path)


def run_cli(*args):
    return main(list(args))


# each flag that only some kinds read -> (its arguments, the config field it sets, a value it gives that field)
KIND_FLAGS = {
    "--attacker-id": (["--attacker-id", "eve"], "attacker_id", "eve"),
    "--attacker-password": (["--attacker-password", "x"], "attacker_password", "x"),
    "--dict": (["--dict", "DICT"], "dictionary", (("bob", "x1"), ("alice", "pw123"), ("eve", "z9"))),
    "--cross": (["--cross"], "dictionary", (("bob", "x1"), ("alice", "pw123"), ("eve", "z9"))),
    "--mutate-field": (["--mutate-field", "m1.f_i"], "mutation_target", "m1.f_i"),
}
# what a kind needs to run at all, as flags and as config fields
RUNNABLE_FLAGS = {"guess": ["--dict", "DICT"], "mutation": ["--mutate-field", "m4.v_i"]}
RUNNABLE_FIELDS = {"guess": {"dictionary": (("alice", "pw123"),)}, "mutation": {"mutation_target": "m4.v_i"}}


@cache
def run_help() -> str:
    """What `triauth run --help` prints, its lines joined by single spaces."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["run", "--help"]) == 0
    return " ".join(out.getvalue().split())


class TestRunCommand:
    def test_honest_run_reports_agreement(self, tmp_path, capsys):
        out = str(tmp_path / "t.log")
        assert run_cli("run", "honest", "--seed", "1", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "session keys agree" in stdout
        assert f"transcript written: {out}" in stdout

    def test_guess_prints_credentials_and_work(self, dict_file, capsys):
        assert run_cli("run", "guess", "--seed", "1", "--dict", dict_file) == 0
        stdout = capsys.readouterr().out
        assert "recovered credentials: alice pw123" in stdout
        assert "evaluations: 2" in stdout

    def test_replay_reports_acceptance(self, capsys):
        assert run_cli("run", "replay", "--seed", "1") == 0
        stdout = capsys.readouterr().out
        assert "replayed M1 accepted by CS and server: yes" in stdout
        assert "adversary knows session key: no" in stdout

    def test_masquerade_reports_shared_key(self, capsys):
        assert run_cli("run", "masquerade", "--seed", "1") == 0
        stdout = capsys.readouterr().out
        assert "forged M1 accepted by CS: yes" in stdout
        assert "attacker, server, and CS share one key: yes" in stdout

    def test_masquerade_acceptance_is_read_from_the_cs_key(self):
        # success is three-way key agreement; CS accepts the forged M1 exactly when it derives a key
        transcript = run_scenario(ScenarioConfig(kind="masquerade", seed=1))
        transcript = transcript._replace(report=transcript.report._replace(success=False))
        assert "forged M1 accepted by CS: yes; attacker, server, and CS share one key: yes" in summarize(transcript)

    def test_mutation_reports_expected_abort(self, capsys):
        assert run_cli("run", "mutation", "--seed", "1", "--mutate-field", "m2.m_i") == 0
        assert "abort ServerAuthFailed at cs" in capsys.readouterr().out

    def test_guess_without_dict_is_usage_error(self, capsys):
        assert run_cli("run", "guess", "--seed", "1") == 2
        assert capsys.readouterr().err == "error: guess scenario requires --dict\n"

    def test_mutation_without_target_is_usage_error(self, capsys):
        assert run_cli("run", "mutation", "--seed", "1") == 2
        assert capsys.readouterr().err == "error: mutation scenario requires --mutate-field\n"
        # a target is matched as written, never lower-cased into another one
        assert run_cli("run", "mutation", "--seed", "1", "--mutate-field", "M1.F_I") == 2
        assert capsys.readouterr().err == "error: unknown mutation target: 'M1.F_I'\n"

    def test_empty_dictionary_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        assert run_cli("run", "guess", "--seed", "1", "--dict", str(path)) == 2
        assert capsys.readouterr().err == "error: dictionary is empty\n"

    @pytest.mark.parametrize("kind, flags, flag, valid_kind", [
        ("honest", ["--mutate-field", "m1.f_i"], "--mutate-field", "mutation"),
        ("masquerade", ["--mutate-field", "m4.v_i"], "--mutate-field", "mutation"),
        ("guess", ["--dict", "DICT", "--mutate-field", "m1.f_i"], "--mutate-field", "mutation"),
        ("replay", ["--dict", "DICT"], "--dict", "guess"),
        ("replay", ["--dict", "/nonexistent.tsv"], "--dict", "guess"),
        ("replay", ["--cross"], "--cross", "guess"),
        ("honest", ["--dict", "DICT", "--cross"], "--dict", "guess"),
        ("mutation", ["--mutate-field", "m1.f_i", "--dict", "DICT"], "--dict", "guess"),
        ("honest", ["--attacker-id", "eve"], "--attacker-id", "masquerade"),
        ("guess", ["--dict", "DICT", "--attacker-password", "x"], "--attacker-password", "masquerade"),
    ])
    def test_flag_for_another_kind_is_usage_error(self, kind, flags, flag, valid_kind, dict_file, capsys):
        # rejected by the flag's own name, before any file it names is read
        flags = [dict_file if f == "DICT" else f for f in flags]
        assert run_cli("run", kind, "--seed", "1", *flags) == 2
        assert capsys.readouterr().err == f"error: {flag} is only valid for {valid_kind} scenarios\n"

    @pytest.mark.parametrize("flag", KIND_FLAGS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_flag_is_rejected_exactly_where_its_config_field_is(self, kind, flag, dict_file, capsys):
        # the flag is "only valid for" the kinds the config names when its field is set on another kind
        args, field, value = KIND_FLAGS[flag]
        try:
            ScenarioConfig(kind=kind, seed=1, **RUNNABLE_FIELDS.get(kind, {}) | {field: value})
            config_kinds = None
        except ConfigError as exc:
            config_kinds = str(exc).partition(f"{field} is only valid for ")[2] or None
        argv = [dict_file if arg == "DICT" else arg for arg in [*RUNNABLE_FLAGS.get(kind, []), *args]]
        code = run_cli("run", kind, "--seed", "1", *argv)
        err = capsys.readouterr().err
        if config_kinds is None:
            assert code in (0, 1) and err == ""
        else:
            assert code == 2 and err == f"error: {flag} is only valid for {config_kinds}\n"
            # the flag's help opens with the same kinds
            kinds = config_kinds.removesuffix(" scenarios")
            assert re.search(rf" {flag}(?: [A-Z_]+)? {kinds}: ", run_help()), run_help()

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


class TestSummary:
    @pytest.mark.parametrize("case_id", sorted(GOLDEN_CASES))
    def test_summary_prints_the_verdict_the_run_wrote(self, case_id):
        transcript = run_scenario(GOLDEN_CASES[case_id])
        lines = summarize(transcript)
        assert transcript.result.detail in lines
        assert "\n".join(lines).count(transcript.result.detail) == 1
        assert (lines[-1] == "expectations met: yes") == transcript.result.expectations_met
        guess_lines = [line for line in lines if line.startswith(("recovered credentials: ", "evaluations: "))]
        assert len(guess_lines) == (2 if transcript.config.kind == "guess" else 0)


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
        # u.dict starts with a byte-order mark, which must not join the first identity; only its 3 x 3 cross
        # product holds the non-ASCII victim pair (zoë, pässwörd)
        u_dict = tmp_path / "u.dict"
        u_dict.write_text("\ufeffzo\u00eb\tx1\n\u0431\u043e\u0431\tp\u00e4ssw\u00f6rd\n\u674e\t\u5bc6\u7801\n",
                          encoding="utf-8")
        cases = [
            ("honest", []),
            ("replay", []),
            ("replay", ["--user-link-only"]),
            ("masquerade", []),
            ("guess", ["--dict", dict_file]),
            ("guess", ["--dict", dict_file, "--cross"]),
            ("guess", ["--dict", str(u_dict), "--cross", "--id", "zo\u00eb", "--password", "p\u00e4ssw\u00f6rd"]),
            ("mutation", ["--mutate-field", "m4.v_i"]),
            # m2.cid_i is an M1 field that M2 forwards, so CS's user check must catch its flipped byte
            ("mutation", ["--mutate-field", "m2.cid_i"]),
            ("mutation", ["--mutate-field", "m3.t_i"]),
        ]
        for i, (kind, extra) in enumerate(cases):
            out = tmp_path / f"{i}.log"
            assert run_cli("run", kind, "--seed", "5", "--out", str(out), *extra) == 0, extra
            assert run_cli("verify", str(out)) == 0, extra
            # between them the runs write every record type and adversary action, each read back as written
            text = out.read_bytes().decode("utf-8")
            assert Transcript.from_jsonl(text).to_jsonl() == text, extra


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


# PYTHONUNBUFFERED set and removed: a buffered stream fails at its flush, an unbuffered one at its first write
BUFFERING = pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])


class TestModuleExit:
    # `python -m triauth.cli` passes main()'s return value to sys.exit, so the
    # process status is the command's status.
    def _cli(self, *args, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **env):
        """Run the module in a child process; an env value of None removes that variable."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in (os.environ | {"PYTHONPATH": str(src)} | env).items() if v is not None}
        return subprocess.run(
            [sys.executable, "-m", "triauth.cli", *args], cwd=cwd, stdout=stdout, stderr=stderr, env=env, text=True,
        )

    @BUFFERING
    def test_process_exits_with_the_command_status(self, tmp_path, unbuffered):
        assert self._cli("run", "honest", "--out", "t.jsonl", cwd=tmp_path, PYTHONUNBUFFERED=unbuffered).returncode == 0
        text = (tmp_path / "t.jsonl").read_text(encoding="utf-8")
        marker = '"payload":"'
        pos = text.index(marker) + len(marker)
        (tmp_path / "c.jsonl").write_text(text[:pos] + ("0" if text[pos] != "0" else "1") + text[pos + 1:], encoding="utf-8")
        assert self._cli("verify", "t.jsonl", cwd=tmp_path, PYTHONUNBUFFERED=unbuffered).returncode == 0
        assert self._cli("verify", "c.jsonl", cwd=tmp_path, PYTHONUNBUFFERED=unbuffered).returncode == 1
        assert self._cli("verify", "missing.jsonl", cwd=tmp_path, PYTHONUNBUFFERED=unbuffered).returncode == 2
        usage = self._cli("--help", cwd=tmp_path, PYTHONUNBUFFERED=unbuffered)
        assert usage.returncode == 0 and usage.stdout.startswith("usage: triauth ")
        if os.path.exists("/dev/full"):  # a run that writes nothing to stderr never fails on a full one
            with open("/dev/full", "w") as full:
                proc = self._cli("run", "honest", cwd=tmp_path, stderr=full, PYTHONUNBUFFERED=unbuffered)
            assert proc.returncode == 0

    @BUFFERING
    @pytest.mark.parametrize("stream, args", [
        ("stdout", ["run", "honest"]),
        ("stdout", ["--help"]),
        ("stdout", ["run", "--help"]),
        ("stderr", ["run", "nope"]),
        ("stderr", ["verify", "missing.jsonl"]),
    ])
    @pytest.mark.parametrize("device", [
        pytest.param("full device", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")),
        "closed pipe",
    ])
    def test_an_unwritable_stdout_exits_2_without_a_traceback(self, tmp_path, device, stream, args, unbuffered):
        if device == "full device":
            fd = os.open("/dev/full", os.O_WRONLY)
        else:
            read_end, fd = os.pipe()
            os.close(read_end)  # closed before the child starts, so its first write fails
        try:
            proc = self._cli(*args, cwd=tmp_path, **{stream: fd}, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(fd)
        # a traceback would exit 1, and a failed flush at interpreter exit 120
        assert proc.returncode == 2
        if stream == "stdout":
            assert proc.stderr.startswith("error: cannot write output:") and proc.stderr.count("\n") == 1, proc.stderr

    def test_stdout_escapes_what_its_encoding_cannot_write(self, tmp_path):
        (tmp_path / "u.dict").write_text("bob\tx1\nzo\u00eb\tp\u00e4ssw\u00f6rd\n", encoding="utf-8")
        proc = self._cli("run", "guess", "--dict", "u.dict", "--id", "zo\u00eb", "--password", "p\u00e4ssw\u00f6rd",
                         cwd=tmp_path, PYTHONIOENCODING="ascii")
        assert proc.returncode == 0, proc.stderr
        assert "recovered credentials: zo\\xeb p\\xe4ssw\\xf6rd" in proc.stdout
