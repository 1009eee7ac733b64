"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

All checks are exact byte equality unless stated otherwise; the two timed
criteria assert their stated sub-second budgets.
"""

import random
import string
import time

import pytest

from triauth import (
    BlockRng,
    ControlServer,
    CSAuthFailed,
    ScenarioConfig,
    ServerAuthFailed,
    UserAuthFailed,
    card_login,
    card_verify,
    cs_authenticate,
    decode_message,
    guess_credentials,
    run_scenario,
    server_forward,
    server_verify,
)
from triauth.cli import main

from helpers import enroll_user, honest_run
from oracle import ref_concat, ref_h, ref_knows, ref_session, ref_xor


def report(ok: bool, line: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def random_credentials(seed: int) -> tuple[str, str, str]:
    rnd = random.Random(seed)
    alphabet = string.ascii_letters + string.digits
    pick = lambda: "".join(rnd.choices(alphabet, k=rnd.randrange(3, 13)))
    return pick(), pick(), pick()


def test_honest_key_agreement_200_seeds():
    started = time.perf_counter()
    failures = 0
    for seed in range(200):
        user_id, password, sid = random_credentials(seed)
        transcript = run_scenario(
            ScenarioConfig(kind="honest", seed=seed, user_id=user_id, password=password, sid=sid)
        )
        keys = transcript.session_keys(1)
        aborted = any(o.abort for o in transcript.outcomes)
        if aborted or set(keys) != {"card", "server", "cs"} or len(set(keys.values())) != 1:
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        failures == 0 and elapsed < 1.0,
        f"honest-run key agreement: 200/200 seeds, 0 aborts, byte-identical keys ({elapsed:.2f}s)",
    )


def test_verification_math_oracle():
    bad = 0
    for seed in range(200):
        user_id, password, sid = random_credentials(seed)
        run = honest_run(seed=seed, user_id=user_id.encode(), password=password.encode(), sid=sid.encode())
        nonce_xor = ref_xor(ref_xor(run.card_session.n_i1, run.n_i2), run.cs_session.n_i3)
        ok = (
            run.cs_session.a_i == run.card_session.a_i
            and run.cs_session.b_i == run.card_session.b_i
            and run.cs_session.n_i1 == run.card_session.n_i1
            # the server's key hashes the h(a_i || b_i) it recovered from r_i
            and run.server_sk == ref_h(ref_h(run.card_session.a_i, run.card_session.b_i), nonce_xor)
        )
        if not ok:
            bad += 1
    report(
        bad == 0,
        "verification-math oracle: recovered values byte-equal ground truth in 200/200 honest runs",
    )


@pytest.mark.parametrize("tap", [True, False], ids=["full-tap", "user-link-only"])
def test_honest_run_matches_the_protocol_equations_100_seeds(tap):
    # ref_session derives every value from the README's equations, never from the actors.
    bad = 0
    for seed in range(100):
        user_id, password, sid = random_credentials(seed)
        transcript = run_scenario(ScenarioConfig(
            kind="honest", seed=seed, user_id=user_id, password=password, sid=sid, tap_server_cs_link=tap,
        ))
        fields, sk = ref_session(seed, user_id.encode(), password.encode(), sid.encode())
        payloads = [(kind, ref_concat(*parts)) for kind, parts in fields.items()]
        events = [(e.kind, e.payload) for e in transcript.events]
        keys = {o.party: o.sk for o in transcript.outcomes}
        if events != payloads or keys != dict.fromkeys(("card", "server", "cs"), sk):
            bad += 1
    report(
        bad == 0,
        f"protocol equations: payloads and keys match the reference in {100 - bad}/100 honest runs ({tap=})",
    )


# field -> exception every single-byte flip must cause
MUTATION_EXPECTATIONS = {
    ("M1", "f_i"): UserAuthFailed,
    ("M1", "g_i"): UserAuthFailed,
    ("M1", "p_ij"): UserAuthFailed,
    ("M1", "cid_i"): UserAuthFailed,
    ("M2", "f_i"): UserAuthFailed,
    ("M2", "g_i"): UserAuthFailed,
    ("M2", "p_ij"): UserAuthFailed,
    ("M2", "cid_i"): UserAuthFailed,
    ("M2", "sid"): ServerAuthFailed,
    ("M2", "k_i"): ServerAuthFailed,
    ("M2", "m_i"): ServerAuthFailed,
    ("M3", "q_i"): CSAuthFailed,
    ("M3", "r_i"): CSAuthFailed,
    ("M3", "v_i"): CSAuthFailed,
    ("M3", "t_i"): CSAuthFailed,
    ("M4", "v_i"): CSAuthFailed,
    ("M4", "t_i"): CSAuthFailed,
}


def _flip_random_byte(data: bytes, rnd: random.Random) -> bytes:
    pos = rnd.randrange(len(data))
    mask = rnd.randint(1, 255)
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def _expect_abort(run, message_kind, field, trial):
    rnd = random.Random(f"{message_kind}.{field}:{trial}")
    if message_kind == "M1":
        bad = run.m1._replace(**{field: _flip_random_byte(getattr(run.m1, field), rnd)})
        m2, _ = server_forward(run.secrets, bad, BlockRng(trial, "server-mut"))
        cs_authenticate(run.cs, m2, BlockRng(trial, "cs-mut"))
    elif message_kind == "M2":
        bad = run.m2._replace(**{field: _flip_random_byte(getattr(run.m2, field), rnd)})
        cs_authenticate(run.cs, bad, BlockRng(trial, "cs-mut"))
    elif message_kind == "M3":
        bad = run.m3._replace(**{field: _flip_random_byte(getattr(run.m3, field), rnd)})
        m4, _ = server_verify(run.secrets, run.n_i2, bad)
        # t_i is not covered by the server's check; the card catches it
        card_verify(run.card_session, m4)
    else:  # M4
        bad = run.m4._replace(**{field: _flip_random_byte(getattr(run.m4, field), rnd)})
        card_verify(run.card_session, bad)


def test_mutation_rejection_every_field():
    trials_per_field = 50
    runs = [honest_run(seed=trial) for trial in range(trials_per_field)]
    missed = []
    for (message_kind, field), expected in MUTATION_EXPECTATIONS.items():
        for trial in range(trials_per_field):
            try:
                _expect_abort(runs[trial], message_kind, field, trial)
            except expected:
                continue
            except Exception as exc:  # wrong abort type
                missed.append((message_kind, field, trial, type(exc).__name__))
            else:
                missed.append((message_kind, field, trial, "no abort"))
    total = len(MUTATION_EXPECTATIONS) * trials_per_field
    report(
        not missed,
        f"mutation rejection: phase-appropriate abort in {total - len(missed)}/{total} "
        f"field/byte-flip trials" + (f"; first miss: {missed[0]}" if missed else ""),
    )


def test_offline_guess_recovery_100_trials():
    started = time.perf_counter()
    failures = 0
    for trial in range(100):
        rnd = random.Random(10_000 + trial)
        user_id, password, sid = random_credentials(10_000 + trial)
        cs = ControlServer.generate(BlockRng(trial, "cs"))
        card = enroll_user(cs, user_id.encode(), password.encode(), BlockRng(trial, "user"))
        k = rnd.randrange(1000)
        entries = [(f"u{trial}.{i}", f"p{trial}.{i}") for i in range(999)]
        entries.insert(k, (user_id, password))
        result = guess_credentials(card, entries)
        ok = (
            result.found
            and result.evaluations == k + 1
            and (result.user_id, result.password) == (user_id.encode(), password.encode())
        )
        if ok:
            # the recovered pair must pass the card's own local check
            try:
                card_login(card, result.user_id, result.password, sid.encode(), BlockRng(trial, "login"))
            except Exception:
                ok = False
        if not ok:
            failures += 1
    elapsed = time.perf_counter() - started
    report(
        failures == 0 and elapsed < 1.0,
        f"offline guessing: exact recovery at work k+1 in 100/100 trials, "
        f"recovered credentials log in ({elapsed:.2f}s)",
    )


def test_masquerade_acceptance_100_seeds():
    failures = 0
    for seed in range(100):
        user_id, password, sid = random_credentials(20_000 + seed)
        transcript = run_scenario(
            ScenarioConfig(
                kind="masquerade", seed=seed, user_id=user_id, password=password, sid=sid,
                attacker_id=f"mal-{seed}", attacker_password=f"evil-{seed}",
            )
        )
        keys = transcript.session_keys(1)
        ok = (
            transcript.report.success
            and set(keys) == {"attacker", "server", "cs"}
            and len(set(keys.values())) == 1
        )
        if not ok:
            failures += 1
    report(
        failures == 0,
        "masquerade: forged login accepted by CS with three-way key agreement in 100/100 seeds",
    )


def _observed_in_transcript(transcript) -> list[bytes]:
    """The payload and every wire field of each event the adversary tapped or injected."""
    observed = []
    for event in transcript.adversary_view():
        observed += [event.payload, *decode_message(event.kind, event.payload)]
    return observed


def test_replay_acceptance_100_seeds():
    failures = 0
    for seed in range(100):
        user_id, password, sid = random_credentials(30_000 + seed)
        transcript = run_scenario(
            ScenarioConfig(kind="replay", seed=seed, user_id=user_id, password=password, sid=sid)
        )
        ok = (
            transcript.report.success
            and transcript.report.recovered["adversary_knows_session_key"] == "no"
        )
        if ok and seed < 10:
            # independent knowledge-set rebuild from the transcript itself, closed by brute force
            new_sk = transcript.session_keys(2)["cs"]
            ok = not ref_knows(_observed_in_transcript(transcript), new_sk)
        if not ok:
            failures += 1
    report(
        failures == 0,
        "replay: byte-exact M1 re-accepted by server and CS in 100/100 seeds, "
        "session key outside adversary knowledge",
    )


def test_replay_report_matches_brute_force_closure_50_seeds():
    mismatches = []
    for seed in range(50):
        for tap in (True, False):
            transcript = run_scenario(ScenarioConfig(kind="replay", seed=seed, tap_server_cs_link=tap))
            expected = ref_knows(_observed_in_transcript(transcript), transcript.session_keys(2)["cs"])
            if transcript.report.recovered["adversary_knows_session_key"] != ("yes" if expected else "no"):
                mismatches.append((seed, tap))
    report(
        not mismatches,
        "replay: adversary_knows_session_key equals the brute-force one-step closure "
        f"over the tapped values in 100/100 runs (seeds 0-49, both taps); mismatches: {mismatches}",
    )


def test_cli_determinism_and_transcript_verification(tmp_path, capsys):
    dict_path = tmp_path / "dict.tsv"
    dict_path.write_text("bob\tx1\nalice\tpw123\neve\tz9\n", encoding="utf-8")

    first = tmp_path / "first.log"
    second = tmp_path / "second.log"
    ok = main(["run", "honest", "--seed", "7", "--out", str(first)]) == 0
    ok = ok and main(["run", "honest", "--seed", "7", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    cases = [
        ("honest", []),
        ("replay", []),
        ("masquerade", []),
        ("guess", ["--dict", str(dict_path)]),
        ("mutation", ["--mutate-field", "m1.g_i"]),
    ]
    fresh_ok = True
    for kind, extra in cases:
        out = tmp_path / f"{kind}.log"
        fresh_ok = fresh_ok and main(["run", kind, "--seed", "11", "--out", str(out), *extra]) == 0
        fresh_ok = fresh_ok and main(["verify", str(out)]) == 0

    text = first.read_text(encoding="utf-8")
    corrupted_ok = True
    for marker in ('"payload":"', '"sk":"'):
        pos = text.index(marker) + len(marker)
        mutated = text[:pos] + ("0" if text[pos] != "0" else "1") + text[pos + 1:]
        broken = tmp_path / "broken.log"
        broken.write_text(mutated, encoding="utf-8")
        corrupted_ok = corrupted_ok and main(["verify", str(broken)]) == 1

    capsys.readouterr()  # swallow CLI output; the summary line below is the report
    report(
        ok and identical and fresh_ok and corrupted_ok,
        "determinism & verification: identical transcript bytes for one seed, "
        "verify=0 on every fresh kind, verify=1 on hex corruption",
    )
