"""Golden transcript digests: the case list, and a writer for tests/golden.json.

Every case is one scenario configuration.  Its golden entry holds the
SHA-256 of the transcript (`Transcript.to_jsonl()`) and of the CLI summary
lines, so any change to a transcript byte or a summary line shows up.

Regenerate only when the transcript format changes on purpose, that is,
together with a bump of ARTIFACT_VERSION:

    PYTHONPATH=src python3 tests/make_golden.py
"""

import hashlib
import json
from pathlib import Path

from triauth.cli import summarize
from triauth.simulator import MUTATION_TARGETS, ScenarioConfig, run_scenario

GOLDEN_PATH = Path(__file__).with_name("golden.json")

GUESS_DICTIONARY = (("bob", "x1"), ("carol", "pw123"), ("alice", "hunter2"), ("alice", "pw123"))
# A cross product: every identity and every password repeats, the victim's
# identity meets wrong passwords and their password meets wrong identities
# before the match at position 19 of 20.
GUESS_CROSS_DICTIONARY = tuple(
    (ident, password)
    for ident in ("bob", "carol", "dave", "alice")
    for password in ("x1", "hunter2", "letmein", "pw123", "qwerty")
)


def cases() -> dict[str, ScenarioConfig]:
    """Case id -> configuration, for every run the golden set pins."""
    out = {}
    for kind in ("honest", "masquerade", "replay"):
        for tap in (True, False):
            for seed in range(10):
                out[f"{kind}/tap={int(tap)}/seed={seed}"] = ScenarioConfig(
                    kind=kind, seed=seed, tap_server_cs_link=tap
                )
    for label, user_id in (("found", "alice"), ("not-found", "dave")):
        out[f"guess/{label}"] = ScenarioConfig(
            kind="guess", seed=3, user_id=user_id, dictionary=GUESS_DICTIONARY
        )
    out["guess/cross"] = ScenarioConfig(kind="guess", seed=4, dictionary=GUESS_CROSS_DICTIONARY)
    for target in sorted(MUTATION_TARGETS):
        taps = (True, False) if target.startswith(("m1.", "m4.")) else (True,)
        for tap in taps:
            for seed in (0, 1):
                out[f"mutation/{target}/tap={int(tap)}/seed={seed}"] = ScenarioConfig(
                    kind="mutation", seed=seed, mutation_target=target, tap_server_cs_link=tap
                )
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(cfg: ScenarioConfig) -> tuple[str, dict[str, str]]:
    """The transcript text of one run and its golden entry."""
    transcript = run_scenario(cfg)
    text = transcript.to_jsonl()
    summary = "\n".join(summarize(transcript)) + "\n"
    return text, {"jsonl": _sha256(text), "summary": _sha256(summary)}


def main() -> None:
    golden = {case_id: digests(cfg)[1] for case_id, cfg in cases().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
