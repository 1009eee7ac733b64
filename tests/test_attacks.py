"""Attack tests: card extraction, offline guessing, masquerade, replay."""

import json
import random
import sys
from collections import Counter

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
    guess_credentials,
    read_dictionary_file,
    register_server,
    server_forward,
    server_verify,
)

from triauth import crypto
from triauth.attacks import GuessResult

from helpers import enroll_user, flip, honest_run
from oracle import ref_concat, ref_guess, ref_h, ref_knows, ref_xor


@pytest.fixture
def cs():
    return ControlServer.generate(BlockRng(777, "cs"))


@pytest.fixture
def victim_card(cs):
    return enroll_user(cs, b"alice", b"pw123", BlockRng(777, "user"))


def profiled_guess(card, candidates):
    """guess_credentials' result, with its h and hash_bytes calls counted by code object
    and its length-prefix packs (one per framed part) counted, under sys.setprofile."""
    names = {crypto.h.__code__: "h", crypto.hash_bytes.__code__: "hash_bytes"}
    counts = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1
        elif event == "c_call" and arg is crypto._pack_len:
            counts["_pack_len"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = guess_credentials(card, candidates)
    finally:
        sys.setprofile(previous)
    return result, counts


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

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_bytes(b"\xef\xbb\xbfalice\tpw123\n\xef\xbb\xbfbob\tx1\n")
        assert read_dictionary_file(path) == (("alice", "pw123"), ("\ufeffbob", "x1"))

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
        result = guess_credentials(victim_card, entries)
        assert result.found
        assert (result.user_id, result.password) == (b"alice", b"pw123")
        assert result.evaluations == 41

    def test_recovered_pair_logs_in(self, cs, victim_card):
        result = guess_credentials(victim_card, [("x", "y"), ("alice", "pw123")])
        m1, _ = card_login(victim_card, result.user_id, result.password, b"sid", BlockRng(0, "login"))
        assert m1 is not None

    def test_exhausted_dictionary_reports_not_found(self, victim_card):
        result = guess_credentials(victim_card, [("a", "b"), ("c", "d")])
        assert not result.found
        assert result.evaluations == 2

    def test_lazy_candidates_counted_without_a_length(self, victim_card):
        assert guess_credentials(victim_card, iter(())) == guess_credentials(victim_card, [])
        assert guess_credentials(victim_card, []).evaluations == 0
        lazy = guess_credentials(victim_card, (pair for pair in [("a", "b"), ("alice", "pw123")]))
        assert (lazy.user_id, lazy.password, lazy.evaluations) == (b"alice", b"pw123", 2)

    @pytest.mark.parametrize("true_at, expected", [((299,), 300), ((), None), ((120, 299), 121)])
    def test_distinct_passwords_match_brute_force(self, victim_card, true_at, expected):
        # 300 pairs with no repeated password but the true one; the true identity meets wrong passwords
        decoys = iter(("alice" if i % 7 == 0 else f"user{i}", f"pass{i}") for i in range(300))
        candidates = [("alice", "pw123") if k in true_at else next(decoys) for k in range(300)]
        result = guess_credentials(victim_card, candidates)
        assert result == GuessResult(*ref_guess(victim_card, [(i.encode(), p.encode()) for i, p in candidates]))
        assert result.found == (expected is not None) and result.evaluations == (expected or 300)

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
            result = guess_credentials(card, entries)
            assert result.found
            assert result.evaluations == k + 1
            assert (result.user_id, result.password) == (user_id.encode(), password.encode())

    @pytest.mark.parametrize("shape", ["cross", "distinct"])
    def test_hash_calls_are_evaluations_plus_distinct_passwords(self, victim_card, shape):
        if shape == "cross":  # 50 x 60, identity-major; the true pair is at 30 * 60 + 40
            ids = [f"user{k}" for k in range(30)] + ["alice"] + [f"user{k}" for k in range(31, 50)]
            passwords = [f"pass{k}" for k in range(40)] + ["pw123"] + [f"pass{k}" for k in range(41, 60)]
            candidates, expected = [(i, p) for i in ids for p in passwords], 1841
        else:
            candidates = [(f"user{k}", f"pass{k}") for k in range(3000)]
            candidates[2000], expected = ("alice", "pw123"), 2001
        result, counts = profiled_guess(victim_card, candidates)
        assert (result.user_id, result.password, result.evaluations) == (b"alice", b"pw123", expected)
        distinct_passwords = len({password for _, password in candidates[:expected]})
        assert distinct_passwords == (60 if shape == "cross" else expected)
        assert (counts["hash_bytes"], counts["h"]) == (expected + distinct_passwords, 0)


@st.composite
def guess_texts(draw):
    """Text whose UTF-8 encoding has a length at an edge of the framing: empty,
    one byte, the longest length whose prefix has one nonzero octet (255), and a
    length with two (300); both long ones span several SHA-256 blocks and may
    hold non-ASCII characters of every UTF-8 width."""
    size = draw(st.sampled_from((0, 1, 255, 300)))
    text, used = "", 0
    for char in draw(st.text(max_size=size)):
        width = len(char.encode("utf-8"))
        if used + width <= size:
            text, used = text + char, used + width
    return text + draw(st.characters(max_codepoint=127)) * (size - used)


digests = st.binary(min_size=32, max_size=32)


@st.composite
def guess_inputs(draw):
    """A card and candidates drawn from the cross product of small identity and
    password pools: identities and passwords repeat, the true identity meets wrong
    passwords and the true password wrong identities, and the true pair may be
    missing or present several times.  The candidates may be in identity-major
    order, as a cross product is, so equal identities run; and they may be equal
    copies of the pools' strings, as a dictionary decoded from JSON holds them."""
    ids = draw(st.lists(guess_texts(), min_size=1, max_size=4, unique=True))
    passwords = draw(st.lists(guess_texts(), min_size=1, max_size=4, unique=True))
    true_id, true_password = draw(st.sampled_from(ids)), draw(st.sampled_from(passwords))
    b, h_y = draw(digests), draw(digests)
    card = SmartCard(
        c_i=ref_h(true_id.encode("utf-8"), h_y, ref_h(b, true_password.encode("utf-8"))),
        d_i=draw(digests), e_i=draw(digests), h_y=h_y, b=b,
    )
    pairs = [(i, p) for i in ids for p in passwords]
    candidates = draw(st.lists(st.sampled_from(pairs), max_size=16))
    for _ in range(draw(st.integers(0, 2))):
        candidates.insert(draw(st.integers(0, len(candidates))), (true_id, true_password))
    if draw(st.booleans()):
        candidates.sort(key=lambda pair: ids.index(pair[0]))
    if draw(st.booleans()):
        candidates = [tuple(pair) for pair in json.loads(json.dumps(candidates))]
    return card, candidates, draw(st.booleans())


class TestGuessMatchesReference:
    @settings(max_examples=300)
    @given(guess_inputs())
    def test_first_match_and_count_equal_brute_force(self, inputs):
        card, candidates, lazy = inputs
        given_candidates = (pair for pair in candidates) if lazy else candidates
        result, counts = profiled_guess(card, given_candidates)
        as_bytes = [(i.encode("utf-8"), p.encode("utf-8")) for i, p in candidates]
        assert result == GuessResult(*ref_guess(card, as_bytes))
        # Beyond the framings made for no candidates: one per distinct password tried, and
        # one per run of equal identities, whether or not the equal strings are one object.
        tried = candidates[:result.evaluations]
        runs = sum(1 for k, (user_id, _) in enumerate(tried) if k == 0 or user_id != tried[k - 1][0])
        framings = counts["_pack_len"] - profiled_guess(card, [])[1]["_pack_len"]
        assert framings == len({password for _, password in tried}) + runs


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
        assert k.knows(ref_h(a), a)
        assert k.knows(ref_h(a, b), ref_concat(a, b))
        assert k.knows(ref_h(b, a), ref_concat(b, a))
        c = ref_h(b"c")
        assert not k.knows(ref_h(a, c), ref_concat(a, c))
        assert not k.knows(ref_h(c, a), ref_concat(c, a))
        # Without its preimage a hash output is matched only by membership or XOR.
        assert not k.knows(ref_h(a))
        assert not k.knows(ref_h(a, b))

    @pytest.mark.parametrize("preimage", [b"b", ref_concat(b"a"), b""])
    def test_a_wrong_preimage_raises(self, preimage):
        k = AdversaryKnowledge()
        k.observe(b"a")
        with pytest.raises(ValueError, match="^preimage does not hash to target$"):
            k.knows(ref_h(b"a"), preimage)

    def test_replay_adversary_cannot_derive_session_key(self):
        run = honest_run(seed=7)
        session = run.cs_session
        preimage = ref_concat(session.h_ab, session.nonce_xor)
        assert ref_h(preimage) == run.server_result.session_key == run.card_sk
        k = AdversaryKnowledge()
        k.observe(run.m1.f_i, run.m1.g_i, run.m1.p_ij, run.m1.cid_i)
        k.observe(run.m2.sid, run.m2.k_i, run.m2.m_i)
        k.observe(run.m3.q_i, run.m3.r_i, run.m3.v_i, run.m3.t_i)
        k.observe(run.m4.v_i, run.m4.t_i)
        assert not k.knows(run.card_sk, preimage)
        k.observe(session.h_ab, session.nonce_xor)
        assert k.knows(run.card_sk, preimage)

    def test_a_query_makes_at_most_one_hash_call(self):
        run = honest_run(seed=8)
        k = AdversaryKnowledge()
        k.observe(*run.m1, *run.m2, *run.m3, *run.m4)
        preimage = ref_concat(run.cs_session.h_ab, run.cs_session.nonce_xor)
        hashes = {crypto.h.__code__, crypto.hash_bytes.__code__}
        calls = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code in hashes:
                calls.append(frame.f_code.co_name)

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            answers = (k.knows(run.card_sk, preimage), k.knows(run.card_sk))
        finally:
            sys.setprofile(previous)
        assert answers == (False, False)
        assert calls == ["hash_bytes"]


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
    """An observed set, a target and the target's preimage if it is a hash:
    a planted hit of each kind, or a near miss."""
    seen = draw(st.lists(observed_values, min_size=1, max_size=10))
    a = draw(st.sampled_from(seen))
    b = draw(st.sampled_from(seen))
    kind = draw(st.sampled_from([
        "member", "xor", "h", "h_ab", "h_ba", "h_aa", "zero", "xor_aa", "length_mismatch", "h_aba", "h_fresh",
        "h_a_fresh",
    ]))
    if kind == "xor":
        b = draw(st.binary(min_size=len(a), max_size=len(a)))
        seen.append(b)
    # 33 bytes is neither an observed length nor the concat() of two observed values.
    fresh = draw(st.binary(min_size=33, max_size=33))
    preimage = {
        "h": a,
        "h_ab": ref_concat(a, b),
        "h_ba": ref_concat(b, a),
        "h_aa": ref_concat(a, a),
        "h_aba": ref_concat(a, b, a),
        "h_fresh": fresh,
        "h_a_fresh": ref_concat(a, fresh),
    }.get(kind)
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
        "h_fresh": lambda: ref_h(fresh),
        "h_a_fresh": lambda: ref_h(a, fresh),
    }[kind]()
    return kind, seen, target, preimage


class TestKnowsMatchesReference:
    @settings(max_examples=300)
    @given(closure_queries())
    def test_knows_equals_brute_force_closure(self, query):
        kind, seen, target, preimage = query
        k = AdversaryKnowledge()
        k.observe(*seen)
        expected = ref_knows(seen, target)
        assert k.knows(target, preimage) == expected
        if kind in ("member", "h", "h_ab", "h_ba", "h_aa"):
            assert expected
        if kind == "h_fresh":
            assert not expected
