"""Command-line front end: run scenarios and verify transcripts.

Exit codes: 0 when the scenario ran and its expectations were met (for
attack scenarios: the attack succeeded), 1 when expectations were violated,
2 on usage or configuration errors, when a file cannot be read or written,
and when stdout or stderr cannot be written, --help included.
"""

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .crypto import HASH_NAME
from .simulator import (
    KINDS,
    MUTATION_TARGETS,
    ConfigError,
    ScenarioConfig,
    Transcript,
    _READERS,
    run_scenario,
    verify_transcript,
)
from .attacks import read_dictionary_file

# each flag that only some kinds read: (the flag, the config field it sets, its argparse keywords);
# its help is prefixed with the kinds that read the field
_KIND_FLAGS = (
    ("--attacker-id", "attacker_id", {"dest": "attacker_id", "help": "attacker identity"}),
    ("--attacker-password", "attacker_password", {"dest": "attacker_password", "help": "attacker password"}),
    ("--dict", "dictionary", {"dest": "dict_path", "help": "candidate file, one id<TAB>password per line"}),
    ("--cross", "dictionary",
     {"dest": "cross", "action": "store_true", "help": "expand the file's ids x passwords cross product"}),
    ("--mutate-field", "mutation_target",
     {"dest": "mutation_target", "help": "target field, e.g. " + ", ".join(sorted(MUTATION_TARGETS)[:3]) + ", ..."}),
)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse's own swallows a failed write
        if message:
            (file or sys.stderr).write(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="triauth",
        description="Three-party smart-card authentication testbed: honest runs and attack demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and print a summary")
    run_p.add_argument("kind", choices=KINDS, help="scenario kind")
    run_p.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    run_p.add_argument("--out", help="write the transcript to this path")
    run_p.add_argument("--id", dest="user_id", help="victim identity")
    run_p.add_argument("--password", help="victim password")
    run_p.add_argument("--sid", help="service server identity")
    for flag, field, keywords in _KIND_FLAGS:
        run_p.add_argument(flag, **keywords | {"help": f"{' or '.join(_READERS[field])}: {keywords['help']}"})
    run_p.add_argument(
        "--user-link-only", action="store_true",
        help="restrict the adversary tap to the user<->server link",
    )

    verify_p = sub.add_parser("verify", help="check a transcript against a deterministic re-run")
    verify_p.add_argument("transcript", help="transcript file to verify")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """The run's config from the flags given; a flag only another kind reads is rejected before any file is read."""
    for flag, field, keywords in _KIND_FLAGS:
        value, reads = getattr(args, keywords["dest"]), args.kind in _READERS[field]
        if value not in (None, False) and not reads:
            raise ConfigError(f"{flag} is only valid for {' or '.join(_READERS[field])} scenarios")
        if value in (None, "") and reads and ScenarioConfig._field_defaults[field] is None:
            raise ConfigError(f"{args.kind} scenario requires {flag}")
    given = {name: value for name in ScenarioConfig._fields if (value := getattr(args, name, None)) is not None}
    return ScenarioConfig(
        **given,
        dictionary=read_dictionary_file(args.dict_path, cross=args.cross) if args.dict_path else None,
        tap_server_cs_link=not args.user_link_only,
    )


def summarize(transcript: Transcript) -> list[str]:
    """Human-readable summary lines for one transcript: its checks and outcomes, then the verdict the run wrote."""
    cfg = transcript.config
    lines = [f"scenario: {cfg.kind}  seed: {cfg.seed}  hash: {HASH_NAME}"]
    for check in transcript.checks:
        state = "ok" if check.ok else "FAILED"
        lines.append(f"[s{check.session}] check {check.check}: {state}")
    for outcome in transcript.outcomes:
        if outcome.abort is not None:
            lines.append(f"[s{outcome.session}] {outcome.party} aborted: {outcome.abort}")
        else:
            lines.append(f"[s{outcome.session}] {outcome.party} session key: {outcome.sk.hex()}")
    lines.append(transcript.result.detail)
    if cfg.kind == "guess":  # the report, not the detail, holds the credentials
        found = transcript.report.recovered
        credentials = f"{found['user_id']} {found['password']}" if found else "none"
        lines += [f"recovered credentials: {credentials}", f"evaluations: {transcript.report.work}"]
    lines.append(f"expectations met: {'yes' if transcript.result.expectations_met else 'no'}")
    return lines


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    transcript = run_scenario(cfg)
    if args.out:
        try:
            Path(args.out).write_bytes(transcript.to_jsonl().encode("utf-8"))
        except OSError as exc:
            print(f"error: cannot write transcript: {exc}", file=sys.stderr)
            return 2
        print(f"transcript written: {args.out}")
    for line in summarize(transcript):
        print(line)
    return 0 if transcript.result.expectations_met else 1


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        # Bytes, not read_text: newline translation would hide a CRLF copy from the comparison.
        text = Path(args.transcript).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read transcript: {exc}", file=sys.stderr)
        return 2
    status, message = verify_transcript(text)
    print(message, file=sys.stderr if status == 2 else sys.stdout)
    return status


def main(argv=None) -> int:
    if hasattr(sys.stdout, "reconfigure"):  # as stderr does, write what stdout cannot encode as escapes
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        try:
            args = _build_parser().parse_args(argv)
            status = cmd_run(args) if args.command == "run" else cmd_verify(args)
        except SystemExit as exc:  # argparse's exit after --help or a usage error
            status = exc.code if isinstance(exc.code, int) else 2
        sys.stdout.flush()
        sys.stderr.flush()
        return status
    except OSError as exc:  # stdout or stderr is a full device or a pipe with no reader
        with contextlib.suppress(OSError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        with open(os.devnull, "wb") as devnull:  # so the flushes at exit cannot fail again
            os.dup2(devnull.fileno(), sys.stdout.fileno())
            os.dup2(devnull.fileno(), sys.stderr.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
