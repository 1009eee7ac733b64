"""Command-line front end: run scenarios and verify transcripts.

Exit codes: 0 when the scenario ran and its expectations were met (for
attack scenarios: the attack succeeded), 1 when expectations were violated,
2 on usage or configuration errors.
"""

import argparse
import sys
from pathlib import Path

from .crypto import HASH_NAME
from .simulator import (
    KINDS,
    MUTATION_TARGETS,
    ConfigError,
    ScenarioConfig,
    Transcript,
    run_scenario,
    verify_transcript,
)
from .attacks import read_dictionary_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triauth",
        description="Three-party smart-card authentication testbed: honest runs and attack demonstrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and print a summary")
    run_p.add_argument("kind", choices=KINDS, help="scenario kind")
    run_p.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    run_p.add_argument("--out", help="write the transcript to this path")
    run_p.add_argument("--id", dest="user_id", default="alice", help="victim identity")
    run_p.add_argument("--password", default="pw123", help="victim password")
    run_p.add_argument("--sid", default="server-1", help="service server identity")
    run_p.add_argument("--attacker-id", default="mallory", help="masquerade: attacker identity")
    run_p.add_argument("--attacker-password", default="letmein", help="masquerade: attacker password")
    run_p.add_argument("--dict", dest="dict_path", help="guess: candidate file, one id<TAB>password per line")
    run_p.add_argument(
        "--cross", action="store_true",
        help="guess: expand the file's ids x passwords cross product",
    )
    run_p.add_argument(
        "--mutate-field", dest="mutation_target",
        help="mutation: target field, e.g. " + ", ".join(sorted(MUTATION_TARGETS)[:3]) + ", ...",
    )
    run_p.add_argument(
        "--user-link-only", action="store_true",
        help="restrict the adversary tap to the user<->server link",
    )

    verify_p = sub.add_parser("verify", help="check a transcript against a deterministic re-run")
    verify_p.add_argument("transcript", help="transcript file to verify")
    return parser


def _config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    dictionary = None
    if args.kind == "guess":
        if not args.dict_path:
            raise ConfigError("guess scenario requires --dict")
        dictionary = read_dictionary_file(args.dict_path, cross=args.cross)
    if args.kind == "mutation" and not args.mutation_target:
        raise ConfigError("mutation scenario requires --mutate-field")
    return ScenarioConfig(
        kind=args.kind,
        seed=args.seed,
        user_id=args.user_id,
        password=args.password,
        sid=args.sid,
        attacker_id=args.attacker_id,
        attacker_password=args.attacker_password,
        dictionary=dictionary,
        mutation_target=args.mutation_target if args.kind == "mutation" else None,
        tap_server_cs_link=not args.user_link_only,
    )


def summarize(transcript: Transcript) -> list[str]:
    """Human-readable summary lines for one transcript."""
    cfg = transcript.config
    lines = [f"scenario: {cfg.kind}  seed: {cfg.seed}  hash: {HASH_NAME}"]
    for check in transcript.checks:
        state = "ok" if check.ok else "FAILED"
        lines.append(f"[s{check.session}] check {check.check}: {state}")
    for outcome in transcript.outcomes:
        if outcome.abort is not None:
            lines.append(f"[s{outcome.session}] {outcome.party} aborted: {outcome.abort}")
        else:
            lines.append(f"[s{outcome.session}] {outcome.party} session key: {outcome.session_key.hex()}")

    report = transcript.report
    keys = transcript.session_keys(1)
    agree = len(keys) == 3 and len(set(keys.values())) == 1
    if cfg.kind == "honest":
        lines.append(f"SK agreement: {'yes' if agree else 'no'}")
    elif cfg.kind == "replay":
        lines.append(f"replayed M1 accepted by CS: {'yes' if report.success else 'no'}")
        lines.append(f"adversary knows session key: {report.recovered['adversary_knows_session_key']}")
    elif cfg.kind == "masquerade":
        lines.append(f"forged M1 accepted by CS: {'yes' if report.success else 'no'}")
        lines.append(f"SK agreement (attacker, server, CS): {'yes' if agree else 'no'}")
    elif cfg.kind == "guess":
        if report.recovered:
            lines.append(
                f"recovered credentials: {report.recovered['user_id']} {report.recovered['password']}"
            )
        else:
            lines.append("recovered credentials: none")
        lines.append(f"evaluations: {report.work}")
    else:  # mutation
        lines.append(transcript.result.detail)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "run":
        return cmd_run(args)
    return cmd_verify(args)


def run_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run_main()
