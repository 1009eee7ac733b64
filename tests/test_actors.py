"""Protocol actor tests: registration, login, authentication, key agreement.

The reference values come from oracle.py, which recomputes each relation
straight from hashlib, independent of the package's own helpers.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triauth import (
    M4,
    BlockRng,
    ControlServer,
    CSAuthFailed,
    LocalCheckFailed,
    ScenarioConfig,
    ServerAuthFailed,
    UserAuthFailed,
    card_login,
    card_verify,
    cs_authenticate,
    register_server,
    register_user,
    run_scenario,
    server_forward,
    server_verify,
    verify_transcript,
)
from triauth import actors

from helpers import count_calls, enroll_user, flip, honest_run
from oracle import ref_h, ref_xor


@pytest.fixture
def cs():
    return ControlServer.generate(BlockRng(1234, "cs"))


class TestRegisterServer:
    def test_deterministic(self, cs):
        assert register_server(cs, b"mail") == register_server(cs, b"mail")

    def test_keys_match_reference(self, cs):
        secrets = register_server(cs, b"mail")
        assert secrets.k_sid_y == ref_h(b"mail", cs.y)
        assert secrets.k_x_y == ref_h(cs.x, cs.y)

    def test_distinct_sids_get_distinct_keys(self, cs):
        rnd = random.Random(7)
        sids = {rnd.randbytes(rnd.randrange(1, 16)) for _ in range(50)}
        keys = {register_server(cs, sid).k_sid_y for sid in sids}
        assert len(keys) == len(sids)

    def test_shared_key_is_sid_independent(self, cs):
        assert register_server(cs, b"a").k_x_y == register_server(cs, b"b").k_x_y

    def test_empty_sid_rejected(self, cs):
        with pytest.raises(ValueError):
            register_server(cs, b"")


class TestRegisterUser:
    def test_card_values_match_reference(self, cs):
        rnd = random.Random(11)
        b = rnd.randbytes(32)
        a_i = ref_h(b, b"hunter2")
        card = register_user(cs, b"alice", a_i, b)
        assert card.c_i == ref_h(b"alice", ref_h(cs.y), a_i)
        # unmasking d_i with h(id || a_i) recovers h(id || x)
        assert ref_xor(card.d_i, ref_h(b"alice", a_i)) == ref_h(b"alice", cs.x)
        assert ref_xor(card.e_i, ref_h(cs.y, cs.x)) == ref_h(b"alice", cs.x)
        assert card.h_y == ref_h(cs.y)
        assert card.b == b

    def test_mask_algebra_links_d_and_e(self, cs):
        card = enroll_user(cs, b"alice", b"pw", BlockRng(5, "user"))
        a_i = ref_h(card.b, b"pw")
        assert ref_xor(card.e_i, card.d_i) == ref_xor(ref_h(cs.y, cs.x), ref_h(b"alice", a_i))

    def test_same_credentials_different_b_different_card(self, cs):
        c1 = enroll_user(cs, b"alice", b"pw", BlockRng(1, "user"))
        c2 = enroll_user(cs, b"alice", b"pw", BlockRng(2, "user"))
        assert c1.b != c2.b
        assert c1.c_i != c2.c_i

    def test_duplicate_registration_is_permitted(self, cs):
        rng = BlockRng(3, "user")
        enroll_user(cs, b"alice", b"pw", rng)
        enroll_user(cs, b"alice", b"pw", rng)  # no uniqueness check anywhere

    def test_empty_id_rejected(self, cs):
        with pytest.raises(ValueError):
            enroll_user(cs, b"", b"pw", BlockRng(0, "user"))


class TestCardLogin:
    def test_wrong_password_rejected(self, cs):
        card = enroll_user(cs, b"alice", b"pw", BlockRng(1, "user"))
        with pytest.raises(LocalCheckFailed):
            card_login(card, b"alice", b"wrong", b"server-1", BlockRng(1, "login"))

    def test_wrong_identity_rejected(self, cs):
        card = enroll_user(cs, b"alice", b"pw", BlockRng(1, "user"))
        with pytest.raises(LocalCheckFailed):
            card_login(card, b"alicia", b"pw", b"server-1", BlockRng(1, "login"))

    def test_message_fields_match_reference(self, cs):
        card = enroll_user(cs, b"alice", b"pw", BlockRng(1, "user"))
        m1, session = card_login(card, b"alice", b"pw", b"server-1", BlockRng(2, "login"))
        # unmasking f_i with the card's h(y) recovers the fresh nonce
        assert ref_xor(m1.f_i, card.h_y) == session.n_i1
        assert m1.g_i == ref_h(session.b_i, session.a_i, session.n_i1)
        assert m1.p_ij == ref_xor(card.e_i, ref_h(card.h_y, session.n_i1, b"server-1"))
        assert m1.cid_i == ref_xor(session.a_i, ref_h(session.b_i, m1.f_i, session.n_i1))
        assert session.a_i == ref_h(card.b, b"pw")
        assert session.b_i == ref_h(b"alice", cs.x)


class TestServerForward:
    def test_fields_match_reference(self, cs):
        run = honest_run(seed=5)
        assert ref_xor(run.m2.k_i, run.secrets.k_sid_y) == run.n_i2
        assert run.m2.m_i == ref_h(run.secrets.k_x_y, run.n_i2)

    def test_m1_passes_through_unchanged(self, cs):
        run = honest_run(seed=6)
        assert run.m2[:len(run.m1)] == run.m1


class TestCsAuthenticate:
    def test_honest_pipeline_succeeds(self):
        run = honest_run(seed=7)
        assert run.m3 is not None

    def test_recovers_the_cards_ground_truth(self):
        run = honest_run(seed=8)
        assert run.cs_session.a_i == run.card_session.a_i
        assert run.cs_session.b_i == run.card_session.b_i
        assert run.cs_session.n_i1 == run.card_session.n_i1
        assert run.cs_session.n_i2 == run.n_i2

    def test_flipped_server_proof_rejected(self):
        run = honest_run(seed=9)
        bad = run.m2._replace(m_i=flip(run.m2.m_i, 3))
        with pytest.raises(ServerAuthFailed):
            cs_authenticate(run.cs, bad, BlockRng(9, "cs2"))

    def test_flipped_login_check_rejected(self):
        run = honest_run(seed=10)
        bad = run.m2._replace(g_i=flip(run.m2.g_i, 0))
        with pytest.raises(UserAuthFailed):
            cs_authenticate(run.cs, bad, BlockRng(10, "cs2"))


class TestServerVerify:
    def test_server_key_equals_cs_key(self):
        run = honest_run(seed=11)
        assert run.server_sk == run.cs_session.session_key

    def test_recovered_hash_matches_direct_hash(self):
        # the server's key hashes the h(a_i || b_i) it recovered from r_i
        run = honest_run(seed=12)
        nonce_xor = ref_xor(ref_xor(run.card_session.n_i1, run.n_i2), run.cs_session.n_i3)
        h_ab = ref_h(run.card_session.a_i, run.card_session.b_i)
        assert run.server_sk == ref_h(h_ab, nonce_xor)

    def test_flipped_r_rejected(self):
        run = honest_run(seed=13)
        bad = run.m3._replace(r_i=flip(run.m3.r_i, 5))
        with pytest.raises(CSAuthFailed):
            server_verify(run.secrets, run.n_i2, bad)

    def test_m4_is_a_pass_through(self):
        run = honest_run(seed=14)
        assert run.m4 == M4(v_i=run.m3.v_i, t_i=run.m3.t_i)


class TestCardVerify:
    def test_three_way_key_agreement(self):
        run = honest_run(seed=15)
        assert run.card_sk == run.server_sk == run.cs_session.session_key

    def test_flipped_t_rejected(self):
        run = honest_run(seed=16)
        with pytest.raises(CSAuthFailed):
            card_verify(run.card_session, run.m4._replace(t_i=flip(run.m4.t_i, 1)))

    def test_stale_m4_rejected_by_fresh_session(self):
        stale = honest_run(seed=17)
        fresh_rng = BlockRng(18, "login")
        _, fresh_session = card_login(stale.card, b"alice", b"pw123", b"server-1", fresh_rng)
        with pytest.raises(CSAuthFailed):
            card_verify(fresh_session, stale.m4)

    def test_nonce_mask_identity(self):
        run = honest_run(seed=19)
        expected = ref_xor(run.n_i2, run.cs_session.n_i3)
        recovered = ref_xor(
            run.m4.t_i,
            ref_h(run.card_session.a_i, run.card_session.b_i, run.card_session.n_i1),
        )
        assert recovered == expected


names = st.text(min_size=1, max_size=12).map(lambda s: s.encode("utf-8"))


@settings(max_examples=40, deadline=None)
@given(user_id=names, password=names, sid=names, seed=st.integers(0, 10_000))
def test_key_agreement_for_any_credentials(user_id, password, sid, seed):
    run = honest_run(seed=seed, user_id=user_id, password=password, sid=sid)
    assert run.card_sk == run.server_sk == run.cs_session.session_key


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), pos=st.integers(0, 31), mask=st.integers(1, 255))
def test_any_single_byte_flip_in_m1_aborts(seed, pos, mask):
    run = honest_run(seed=seed)
    field = ("f_i", "g_i", "p_ij", "cid_i")[seed % 4]
    bad_m1 = run.m1._replace(**{field: flip(getattr(run.m1, field), pos, mask)})
    m2, _ = server_forward(run.secrets, bad_m1, BlockRng(seed, "server2"))
    with pytest.raises(UserAuthFailed):
        cs_authenticate(run.cs, m2, BlockRng(seed, "cs2"))


# Honest-flow hash cost (T_h): (h calls, hash_bytes calls) made inside each
# actor function during one honest run, the figures perfbench's table reports.
HONEST_HASH_COST = {
    "register_user": (6, 6),
    "card_login": (6, 7),
    "server_forward": (1, 2),
    "cs_authenticate": (15, 16),
    "server_verify": (5, 5),
    "card_verify": (5, 5),
}


def hash_calls(counts, scope=None) -> tuple[int, int]:
    """(h, hash_bytes) calls of a count_calls Counter, in all or inside the actor function scope."""
    return tuple(counts[name if scope is None else (scope, name)] for name in ("h", "hash_bytes"))


def test_honest_run_hash_cost_per_actor():
    actor_fns = [getattr(actors, name) for name in HONEST_HASH_COST]
    counts = count_calls(run_scenario, ScenarioConfig(kind="honest", seed=1), scopes=actor_fns)[1]
    assert hash_calls(counts) == (41, 52)
    assert {name: hash_calls(counts, name) for name in HONEST_HASH_COST} == HONEST_HASH_COST


# (h, hash_bytes) totals of one seed-0 run of every other kind: fields of its config -> totals
RUN_HASH_TOTALS = {
    "masquerade": ({"kind": "masquerade"}, (48, 60)),
    "replay-full-tap": ({"kind": "replay"}, (62, 76)),
    "replay-user-link-only": ({"kind": "replay", "tap_server_cs_link": False}, (62, 76)),
    "mutation-m1.f_i": ({"kind": "mutation", "mutation_target": "m1.f_i"}, (24, 35)),
    "mutation-m4.v_i": ({"kind": "mutation", "mutation_target": "m4.v_i"}, (40, 52)),
    "guess": ({"kind": "guess", "dictionary": (("x", "y"), ("alice", "nope"), ("alice", "pw123"))}, (41, 58)),
}


@pytest.mark.parametrize("fields, totals", RUN_HASH_TOTALS.values(), ids=RUN_HASH_TOTALS)
def test_run_hash_totals_per_kind(fields, totals):
    assert hash_calls(count_calls(run_scenario, ScenarioConfig(seed=0, **fields))[1]) == totals


def test_verify_stops_at_the_first_diverging_line():
    """verify re-runs a scenario only up to the first event line the transcript does not hold.

    With the first payload digit flipped, the re-run stops as it logs the
    registration request. Its 11 hash_bytes calls key the five random
    streams, draw the control server's two keys, register the service server
    (two h calls), draw the card's b and blind the password. A flip in M1, the
    first login event, stops it later, but still before CS.
    """
    text = run_scenario(ScenarioConfig(kind="honest", seed=1)).to_jsonl()
    assert count_calls(verify_transcript, text)[1]["hash_bytes"] == 52

    def flipped(nth):
        at = [m.end() for m in re.finditer('"payload":"', text)][nth]
        return text[:at] + "01"[text[at] == "0"] + text[at + 1:]

    assert count_calls(verify_transcript, flipped(0))[1]["hash_bytes"] == 11
    m1_flipped = count_calls(verify_transcript, flipped(2), scopes=[cs_authenticate])[1]
    assert 11 < m1_flipped["hash_bytes"] < 52 and hash_calls(m1_flipped, "cs_authenticate") == (0, 0)


# honest_run attribute -> the digest fields of the record it holds, which is checked when built
CHECKED_RECORDS = {
    "cs": ("x", "y"),
    "secrets": ("k_sid_y", "k_x_y"),
    "card": ("c_i", "d_i", "e_i", "h_y", "b"),
    "m1": ("f_i", "g_i", "p_ij", "cid_i"),
    "m2": ("f_i", "g_i", "p_ij", "cid_i", "k_i", "m_i"),
    "m3": ("q_i", "r_i", "v_i", "t_i"),
    "m4": ("v_i", "t_i"),
}


# how a test builds a checked record from an existing one with some fields changed
BUILDS = {
    "_replace": lambda record, changes: record._replace(**changes),
    "positional": lambda record, changes: type(record)(*(record._asdict() | changes).values()),
    "keyword": lambda record, changes: type(record)(**(record._asdict() | changes)),
}


def build_cases(cases):
    """Each case once per build; a _replace case keeps the id it had before the other builds were added."""
    return [pytest.param(*case, build, id="-".join(case if build == "_replace" else (*case, build)))
            for build in BUILDS for case in cases]


class TestRecordChecks:
    @pytest.mark.parametrize("attr, field, build", build_cases(
        [(a, f) for a, fields in CHECKED_RECORDS.items() for f in fields]))
    def test_replace_with_a_short_digest_raises(self, attr, field, build):
        record = getattr(honest_run(seed=20), attr)
        with pytest.raises(ValueError, match=f"^{field} must be 32 bytes, got 31$"):
            BUILDS[build](record, {field: getattr(record, field)[:31]})

    @pytest.mark.parametrize("attr", CHECKED_RECORDS)
    def test_make_with_a_short_digest_raises(self, attr):
        record = getattr(honest_run(seed=20), attr)
        assert type(record)._make(record) == record
        with pytest.raises(ValueError, match="must be 32 bytes, got 31"):
            type(record)._make((*record[:-1], record[-1][:31]))

    @pytest.mark.parametrize("attr, build", build_cases([("secrets",), ("m2",)]))
    def test_replace_with_an_empty_sid_raises(self, attr, build):
        # sid is checked first, so a short digest beside it is not the error reported
        record = getattr(honest_run(seed=20), attr)
        last = record._fields[-1]
        with pytest.raises(ValueError, match="^sid must be non-empty$"):
            BUILDS[build](record, {"sid": b"", last: getattr(record, last)[:31]})

    @pytest.mark.parametrize("attr", ["card_session", "cs_session", *CHECKED_RECORDS])
    def test_setting_a_field_raises(self, attr):
        record = getattr(honest_run(seed=20), attr)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[-1], b"\0" * 32)

    @pytest.mark.parametrize("attr", ["n_i2", "server_sk"])
    def test_server_state_is_an_immutable_digest(self, attr):
        # the server keeps plain bytes between steps, so no later step can change them in place
        value = getattr(honest_run(seed=20), attr)
        assert type(value) is bytes and len(value) == 32
