"""Attack tests: card extraction, offline guessing, masquerade, replay."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triauth import (
    AdversaryKnowledge,
    BlockRng,
    ConfigError,
    ControlServer,
    ScenarioConfig,
    SmartCard,
    UserAuthFailed,
    card_login,
    card_verify,
    cs_authenticate,
    enroll_user,
    guess_credentials,
    read_dictionary_file,
    register_server,
    server_forward,
    server_verify,
)

from triauth.attacks import GuessResult

from helpers import flip, honest_run
from oracle import ref_guess, ref_h, ref_knows, ref_xor


def encoded(pairs):
    return [(ident.encode("utf-8"), password.encode("utf-8")) for ident, password in pairs]


@pytest.fixture
def cs():
    return ControlServer.generate(BlockRng(777, "cs"))


@pytest.fixture
def victim_card(cs):
    return enroll_user(cs, b"alice", b"pw123", BlockRng(777, "user"))


class TestExtractCard:
    def test_extracted_h_y_is_hash_of_master_secret(self, cs, victim_card):
        assert victim_card.h_y == ref_h(cs.y)


class TestDictionary:
    def test_file_round_trip_preserves_order(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("bob\tx1\nalice\tpw123\neve\tz9\n", encoding="utf-8")
        pairs = read_dictionary_file(path)
        assert pairs == (("bob", "x1"), ("alice", "pw123"), ("eve", "z9"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("a\tb\n\n\nc\td\n", encoding="utf-8")
        assert len(read_dictionary_file(path)) == 2

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_dictionary_file(path)

    def test_only_a_newline_ends_an_entry(self, tmp_path):
        # str.splitlines() would also split at each of these characters
        odd = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        path = tmp_path / "dict.tsv"
        path.write_bytes(f"alice\tpw{odd}x\ncarol\tzz\r\n\r\ndave\ty\rz\n".encode("utf-8"))
        assert read_dictionary_file(path) == (("alice", f"pw{odd}x"), ("carol", "zz"), ("dave", "y\rz"))

    def test_crlf_file_parses_like_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(b"bob\tx1\nalice\tpw123\n")
        crlf.write_bytes(b"bob\tx1\r\nalice\tpw123\r\n")
        assert read_dictionary_file(crlf) == read_dictionary_file(lf) == (("bob", "x1"), ("alice", "pw123"))

    def test_cross_product_expansion(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("u1\tp1\nu2\tp2\n", encoding="utf-8")
        pairs = read_dictionary_file(path, cross=True)
        assert pairs == (("u1", "p1"), ("u1", "p2"), ("u2", "p1"), ("u2", "p2"))

    def test_empty_entry_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="guess", seed=1, dictionary=(("", "pw"),))


class TestGuessCredentials:
    def test_recovers_planted_pair_and_counts_work(self, cs, victim_card):
        decoys = [(f"user{i}", f"pass{i}") for i in range(99)]
        entries = decoys[:40] + [("alice", "pw123")] + decoys[40:]
        result = guess_credentials(victim_card, encoded(entries))
        assert result.found
        assert (result.user_id, result.password) == (b"alice", b"pw123")
        assert result.evaluations == 41

    def test_recovered_pair_logs_in(self, cs, victim_card):
        result = guess_credentials(victim_card, encoded([("x", "y"), ("alice", "pw123")]))
        m1, _ = card_login(victim_card, result.user_id, result.password, b"sid", BlockRng(0, "login"))
        assert m1 is not None

    def test_exhausted_dictionary_reports_not_found(self, victim_card):
        result = guess_credentials(victim_card, encoded([("a", "b"), ("c", "d")]))
        assert not result.found
        assert result.evaluations == 2

    def test_lazy_candidates_counted_without_a_length(self, victim_card):
        assert guess_credentials(victim_card, iter(())) == guess_credentials(victim_card, [])
        assert guess_credentials(victim_card, []).evaluations == 0
        lazy = guess_credentials(victim_card, (pair for pair in encoded([("a", "b"), ("alice", "pw123")])))
        assert (lazy.user_id, lazy.password, lazy.evaluations) == (b"alice", b"pw123", 2)

    def test_soundness_over_randomized_scenarios(self):
        # whenever the true pair is present, exactly it is recovered
        rnd = random.Random(2024)
        for trial in range(100):
            cs = ControlServer.generate(BlockRng(trial, "cs"))
            user_id = f"user-{rnd.randrange(10**6)}"
            password = f"pw-{rnd.randrange(10**6)}"
            card = enroll_user(cs, user_id.encode(), password.encode(), BlockRng(trial, "user"))
            size = rnd.randrange(10, 1001)
            k = rnd.randrange(size)
            entries = [(f"u{trial}-{i}", f"p{trial}-{i}") for i in range(size - 1)]
            entries.insert(k, (user_id, password))
            result = guess_credentials(card, encoded(entries))
            assert result.found
            assert result.evaluations == k + 1
            assert (result.user_id, result.password) == (user_id.encode(), password.encode())


# Identity and password lengths at the edges of the framing: empty, one byte,
# the longest length whose prefix has one nonzero octet (255), and a length
# with two (300); both long ones span several SHA-256 blocks.
guess_parts = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=255, max_size=255),
    st.binary(min_size=300, max_size=300),
)
digests = st.binary(min_size=32, max_size=32)


@st.composite
def guess_inputs(draw):
    """A card and candidates drawn from the cross product of small identity and
    password pools: identities and passwords repeat, the true identity meets wrong
    passwords and the true password wrong identities, and the true pair may be
    missing or present several times."""
    ids = draw(st.lists(guess_parts, min_size=1, max_size=4, unique=True))
    passwords = draw(st.lists(guess_parts, min_size=1, max_size=4, unique=True))
    true_id, true_password = draw(st.sampled_from(ids)), draw(st.sampled_from(passwords))
    b, h_y = draw(digests), draw(digests)
    card = SmartCard(
        c_i=ref_h(true_id, h_y, ref_h(b, true_password)), d_i=draw(digests), e_i=draw(digests), h_y=h_y, b=b
    )
    pairs = [(i, p) for i in ids for p in passwords]
    candidates = draw(st.lists(st.sampled_from(pairs), max_size=16))
    for _ in range(draw(st.integers(0, 2))):
        candidates.insert(draw(st.integers(0, len(candidates))), (true_id, true_password))
    return card, candidates, draw(st.booleans())


class TestGuessMatchesReference:
    @settings(max_examples=300)
    @given(guess_inputs())
    def test_first_match_and_count_equal_brute_force(self, inputs):
        card, candidates, lazy = inputs
        given_candidates = (pair for pair in candidates) if lazy else candidates
        assert guess_credentials(card, given_candidates) == GuessResult(*ref_guess(card, candidates))


class TestForgeLogin:
    def _forged_flow(self, seed):
        cs = ControlServer.generate(BlockRng(seed, "cs"))
        secrets = register_server(cs, b"target-server")
        enroll_user(cs, b"alice", b"pw123", BlockRng(seed, "user"))  # the victim
        attacker_card = enroll_user(cs, b"mallory", b"evilpw", BlockRng(seed, "attacker"))
        m1, session = card_login(
            attacker_card, b"mallory", b"evilpw", b"target-server", BlockRng(seed, "forge")
        )
        return cs, secrets, m1, session

    def test_forged_m1_passes_cs_verification(self):
        cs, secrets, m1, _ = self._forged_flow(seed=1)
        m2, _ = server_forward(secrets, m1, BlockRng(1, "server"))
        m3, _ = cs_authenticate(cs, m2, BlockRng(1, "cs2"))  # no UserAuthFailed
        assert m3 is not None

    def test_forged_run_completes_with_shared_key(self):
        cs, secrets, m1, session = self._forged_flow(seed=2)
        m2, server_session = server_forward(secrets, m1, BlockRng(2, "server"))
        m3, cs_session = cs_authenticate(cs, m2, BlockRng(2, "cs2"))
        m4, server_result = server_verify(secrets, server_session, m3)
        attacker_sk = card_verify(session, m4)
        assert attacker_sk == server_result.session_key == cs_session.session_key

    def test_forgery_differs_from_victims_honest_login(self):
        cs, secrets, m1, _ = self._forged_flow(seed=9)
        victim_card = enroll_user(cs, b"alice2", b"pw", BlockRng(9, "victim"))
        honest_m1, _ = card_login(victim_card, b"alice2", b"pw", b"target-server", BlockRng(9, "login"))
        assert m1 != honest_m1  # yet CS accepts both; nothing attributes the sender

    def test_uses_only_the_attackers_own_data(self):
        # the forgery is constructed from the attacker's extracted card alone;
        # no victim value and no control-server secret is an input
        cs = ControlServer.generate(BlockRng(3, "cs"))
        attacker_card = enroll_user(cs, b"mallory", b"evilpw", BlockRng(3, "attacker"))
        m1, _ = card_login(attacker_card, b"mallory", b"evilpw", b"anywhere", BlockRng(3, "forge"))
        secrets = register_server(cs, b"anywhere")
        m2, _ = server_forward(secrets, m1, BlockRng(3, "server"))
        cs_authenticate(cs, m2, BlockRng(3, "cs2"))


class TestReplayLogin:
    def test_replayed_m1_is_byte_exact(self):
        run = honest_run(seed=4)
        replayed = run.m1
        assert replayed == run.m1

    def test_replay_passes_fresh_verification(self):
        run = honest_run(seed=5)
        replayed = run.m1
        # a brand-new session: fresh server and CS nonces
        m2, server_session = server_forward(run.secrets, replayed, BlockRng(50, "server"))
        m3, cs_session = cs_authenticate(run.cs, m2, BlockRng(50, "cs2"))
        m4, server_result = server_verify(run.secrets, server_session, m3)
        assert m4 is not None
        assert server_result.session_key == cs_session.session_key

    def test_mutated_replay_rejected(self):
        run = honest_run(seed=6)
        bad = run.m1._replace(g_i=flip(run.m1.g_i, 0))
        m2, _ = server_forward(run.secrets, bad, BlockRng(60, "server"))
        with pytest.raises(UserAuthFailed):
            cs_authenticate(run.cs, m2, BlockRng(60, "cs2"))


class TestAdversaryKnowledge:
    def test_direct_membership(self):
        k = AdversaryKnowledge()
        k.observe(b"a" * 32)
        assert k.knows(b"a" * 32)
        assert not k.knows(b"b" * 32)

    def test_one_step_xor_and_hash_closure(self):
        a, b = ref_h(b"a"), ref_h(b"b")
        k = AdversaryKnowledge()
        k.observe(a, b)
        assert k.knows(bytes(x ^ y for x, y in zip(a, b)))
        assert k.knows(ref_h(a))
        assert k.knows(ref_h(a, b))

    def test_replay_adversary_cannot_derive_session_key(self):
        run = honest_run(seed=7)
        k = AdversaryKnowledge()
        k.observe(run.m1.f_i, run.m1.g_i, run.m1.p_ij, run.m1.cid_i)
        k.observe(run.m2.sid, run.m2.k_i, run.m2.m_i)
        k.observe(run.m3.q_i, run.m3.r_i, run.m3.v_i, run.m3.t_i)
        k.observe(run.m4.v_i, run.m4.t_i)
        assert not k.knows(run.card_sk)


# Observed values of the lengths that matter to the closure: empty, one byte,
# one digest, and payload-sized (longer than a SHA-256 block).
observed_values = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    st.binary(min_size=32, max_size=32),
    st.binary(min_size=65, max_size=96),
)


@st.composite
def closure_queries(draw):
    """An observed set and a target: a planted hit of each kind, or a near miss."""
    seen = draw(st.lists(observed_values, min_size=1, max_size=10))
    a = draw(st.sampled_from(seen))
    b = draw(st.sampled_from(seen))
    kind = draw(st.sampled_from([
        "member", "xor", "h", "h_ab", "h_ba", "h_aa", "zero", "xor_aa", "length_mismatch", "h_aba",
    ]))
    if kind == "xor":
        b = draw(st.binary(min_size=len(a), max_size=len(a)))
        seen.append(b)
    target = {
        "member": lambda: a,
        "xor": lambda: ref_xor(a, b),
        "h": lambda: ref_h(a),
        "h_ab": lambda: ref_h(a, b),
        "h_ba": lambda: ref_h(b, a),
        "h_aa": lambda: ref_h(a, a),
        "zero": lambda: bytes(32),
        "xor_aa": lambda: ref_xor(a, a),
        "length_mismatch": lambda: ref_xor(a, b)[:-1] if len(a) == len(b) and a else a + b"\x00",
        "h_aba": lambda: ref_h(a, b, a),
    }[kind]()
    return kind, seen, target


class TestKnowsMatchesReference:
    @settings(max_examples=300)
    @given(closure_queries())
    def test_knows_equals_brute_force_closure(self, query):
        kind, seen, target = query
        k = AdversaryKnowledge()
        k.observe(*seen)
        expected = ref_knows(seen, target)
        assert k.knows(target) == expected
        if kind in ("member", "h", "h_ab", "h_ba", "h_aa"):
            assert expected
