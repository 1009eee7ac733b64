"""Scenario runner tests: determinism, transcripts, adversary hooks."""

import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triauth import (
    KINDS,
    MUTATION_TARGETS,
    AdversaryPolicy,
    BlockRng,
    ChannelEvent,
    ConfigError,
    ScenarioConfig,
    Transcript,
    TranscriptFormatError,
    adversary_tap,
    decode_message,
    encode_message,
    run_scenario,
    verify_transcript,
)
from triauth import simulator

from helpers import honest_run


SMALL_DICT = (("bob", "x1"), ("alice", "pw123"), ("eve", "z9"))


def config(kind, seed=1, **kw):
    if kind == "guess" and "dictionary" not in kw:
        kw["dictionary"] = SMALL_DICT
    if kind == "mutation" and "mutation_target" not in kw:
        kw["mutation_target"] = "m2.m_i"
    return ScenarioConfig(kind=kind, seed=seed, **kw)


class TestScenarioConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="nope", seed=1).validate()
        with pytest.raises(ConfigError):
            config("honest")._replace(kind="nope")

    def test_non_integer_seed_rejected(self):
        # a config is validated when built, so _replace() cannot make an invalid one
        with pytest.raises(ConfigError):
            config("honest")._replace(seed="1")

    def test_seed_past_the_decimal_digit_limit_rejected(self):
        # BlockRng writes the seed in decimal, which Python refuses past 4300 digits
        with pytest.raises(ConfigError, match="too many digits"):
            ScenarioConfig(kind="honest", seed=10**5000)
        with pytest.raises(ConfigError, match="too many digits"):
            config("honest")._replace(seed=-(10**5000))
        assert run_scenario(config("honest", seed=10**4299)).result.expectations_met

    def test_replace_and_make_normalise(self):
        cfg = config("mutation")._replace(mutation_target="M4.T_I", tap_server_cs_link=False)
        assert cfg.mutation_target == "m4.t_i" and cfg == ScenarioConfig._make(cfg)
        values = config("guess")._asdict() | {"dictionary": [["alice", "pw123"]]}
        assert ScenarioConfig._make(values.values()).dictionary == (("alice", "pw123"),)
        with pytest.raises(ConfigError, match="not on a tapped link"):
            cfg._replace(mutation_target="m2.m_i")

    @pytest.mark.parametrize("name", ["kind", "seed", "dictionary"])
    def test_setting_a_field_raises(self, name):
        with pytest.raises(AttributeError):
            setattr(config("honest"), name, None)

    def test_guess_requires_dictionary(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="guess", seed=1).validate()

    def test_dictionary_only_for_guess(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="honest", seed=1, dictionary=SMALL_DICT).validate()

    def test_mutation_requires_known_target(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="mutation", seed=1, mutation_target="m9.zz").validate()

    def test_mutation_target_case_normalized(self):
        cfg = ScenarioConfig(kind="mutation", seed=1, mutation_target="M2.M_I")
        cfg.validate()
        assert cfg.mutation_target == "m2.m_i"

    def test_backhaul_target_needs_tapped_link(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                kind="mutation", seed=1, mutation_target="m2.m_i", tap_server_cs_link=False
            ).validate()

    def test_dict_round_trip(self):
        cfg = config("guess", seed=9)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


class TestMessageCodec:
    def test_all_wire_kinds_round_trip(self):
        run = honest_run(seed=21)
        for kind, msg in (("M1", run.m1), ("M2", run.m2), ("M3", run.m3), ("M4", run.m4)):
            assert decode_message(kind, encode_message(kind, msg)) == msg

    def test_decode_rejects_wrong_shape(self):
        run = honest_run(seed=22)
        with pytest.raises(ValueError):
            decode_message("M4", encode_message("M1", run.m1))


class TestHonestScenario:
    def test_four_login_events_and_three_equal_keys(self):
        t = run_scenario(config("honest", seed=42))
        login_kinds = [e.kind for e in t.events if e.session == 1]
        assert login_kinds == ["M1", "M2", "M3", "M4"]
        keys = t.session_keys(1)
        assert set(keys) == {"card", "server", "cs"}
        assert len(set(keys.values())) == 1
        assert t.result.expectations_met

    def test_step_indices_strictly_increasing(self):
        t = run_scenario(config("replay", seed=3))
        steps = [e.step for e in t.events]
        assert steps == sorted(set(steps))

    def test_passive_adversary_observes_login_phase(self):
        t = run_scenario(config("honest", seed=4))
        for event in t.events:
            if event.channel == "open":
                assert event.action == "observed"

    def test_registration_is_invisible_to_the_adversary(self):
        t = run_scenario(config("honest", seed=5))
        secure = [e for e in t.events if e.channel == "secure"]
        assert {e.kind for e in secure} == {"RegistrationRequest", "CardIssue"}
        view_payloads = {e.payload for e in t.adversary_view()}
        assert all(e.payload not in view_payloads for e in secure)

    def test_message_conservation(self):
        t = run_scenario(config("honest", seed=6))
        # every recorded event carries exactly one terminal action
        for event in t.events:
            assert event.action in ("none", "observed", "dropped", "injected", "modified")
        assert len([e for e in t.events if e.session == 1]) == 4

    def test_conservation_across_replay_sessions(self):
        t = run_scenario(config("replay", seed=6))
        per_hop = {}
        for event in t.events:
            per_hop[(event.session, event.kind)] = per_hop.get((event.session, event.kind), 0) + 1
        # each hop of each session appears exactly once
        assert all(count == 1 for count in per_hop.values())
        assert {(s, k) for (s, k) in per_hop if s == 2} == {(2, "M1"), (2, "M2"), (2, "M3"), (2, "M4")}

    @pytest.mark.parametrize("kind", ["honest", "replay", "masquerade", "guess", "mutation"])
    def test_every_payload_decodes_as_its_kind(self, kind):
        from triauth import split_concat

        t = run_scenario(config(kind, seed=6))
        for event in t.events:
            if event.channel == "open":
                decode_message(event.kind, event.payload)
            else:
                assert split_concat(event.payload)


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["honest", "replay", "masquerade", "guess", "mutation"])
    def test_identical_seed_identical_bytes(self, kind):
        a = run_scenario(config(kind, seed=7)).to_jsonl()
        b = run_scenario(config(kind, seed=7)).to_jsonl()
        assert a == b

    def test_different_seed_different_bytes(self):
        assert (
            run_scenario(config("honest", seed=1)).to_jsonl()
            != run_scenario(config("honest", seed=2)).to_jsonl()
        )

    @pytest.mark.parametrize("kind", ["replay", "guess", "mutation"])
    def test_jsonl_round_trip(self, kind):
        t = run_scenario(config(kind, seed=8))
        parsed = Transcript.from_jsonl(t.to_jsonl())
        assert parsed == t


# Dictionary text: any non-empty string that encodes as UTF-8 (no lone surrogates).
dictionary_text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)


@st.composite
def scenario_configs(draw):
    """Any kind, either tap setting, every mutation target its tap allows, small guess dictionaries."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    tap = draw(st.booleans())
    kw = {}
    if kind == "mutation":
        targets = sorted(t for t, (message, *_) in MUTATION_TARGETS.items() if tap or message in ("M1", "M4"))
        kw["mutation_target"] = draw(st.sampled_from(targets))
    if kind == "guess":
        entries = st.tuples(dictionary_text, dictionary_text) | st.just(("alice", "pw123"))
        kw["dictionary"] = tuple(draw(st.lists(entries, min_size=1, max_size=5)))
    return ScenarioConfig(kind=kind, seed=draw(st.integers(0, 2**64)), tap_server_cs_link=tap, **kw)


class TestJsonlRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(scenario_configs())
    def test_from_jsonl_inverts_to_jsonl(self, cfg):
        t = run_scenario(cfg)
        assert Transcript.from_jsonl(t.to_jsonl()) == t


# Text that JSON must escape: quotes, backslashes, control characters, the
# line separators JavaScript rejects, non-ASCII and astral characters.
json_text = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029é€\U0001f600') | st.characters(), max_size=8)
json_ints = st.integers() | st.sampled_from((0, -1, -(2**63), 10**100, -(10**300)))
FIELD_VALUES = {
    str: json_text,
    int: json_ints,
    bool: st.booleans(),
    bytes: st.binary(max_size=300),
    dict: st.dictionaries(json_text, json_text, max_size=4),
}


def field_values(field_type):
    args = typing.get_args(field_type)
    if type(None) in args:
        return st.none() | field_values(next(a for a in args if a is not type(None)))
    return FIELD_VALUES[field_type]


@st.composite
def codec_records(draw):
    """A codec and one of its objects: any record, or any config the scenario_configs strategy draws."""
    codec = draw(st.sampled_from(list(simulator._CODECS.values())))
    if codec.cls is ScenarioConfig:
        return codec, draw(scenario_configs())
    return codec, codec.cls(**{name: draw(field_values(codec.cls.__annotations__[name])) for name in codec.cls._fields})


class TestLinePlanProperty:
    @settings(max_examples=200, deadline=None)
    @given(codec_records())
    def test_line_equals_the_json_encoder(self, codec_record):
        codec, record = codec_record
        encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
        assert codec.line(record) == encoder.encode(codec.encode(record))


class TestReplayScenario:
    def test_second_session_accepted_by_cs_and_server(self):
        t = run_scenario(config("replay", seed=9))
        assert t.report.success
        checks = {(c.session, c.check): c.ok for c in t.checks}
        assert checks[(2, "cs_verifies_user")]
        assert checks[(2, "server_verifies_cs")]

    def test_injected_event_is_byte_identical_to_captured_m1(self):
        t = run_scenario(config("replay", seed=10))
        m1_events = [e for e in t.events if e.kind == "M1"]
        assert len(m1_events) == 2
        assert m1_events[0].payload == m1_events[1].payload
        assert m1_events[1].action == "injected"

    def test_adversary_does_not_learn_the_new_key(self):
        t = run_scenario(config("replay", seed=11))
        assert t.report.recovered["adversary_knows_session_key"] == "no"


class TestMasqueradeScenario:
    def test_forged_login_yields_three_way_key(self):
        t = run_scenario(config("masquerade", seed=12))
        assert t.report.success
        keys = t.session_keys(1)
        assert set(keys) == {"attacker", "server", "cs"}
        assert len(set(keys.values())) == 1

    def test_two_registrations_recorded(self):
        t = run_scenario(config("masquerade", seed=13))
        assert len([e for e in t.events if e.kind == "RegistrationRequest"]) == 2


class TestGuessScenario:
    def test_recovers_credentials_and_validates_them(self):
        t = run_scenario(config("guess", seed=14))
        assert t.report.success
        assert t.report.recovered == {"user_id": "alice", "password": "pw123"}
        assert t.report.work == 2  # second entry in SMALL_DICT
        assert t.result.expectations_met

    def test_missing_pair_reports_failure(self):
        cfg = config("guess", seed=15, dictionary=(("a", "b"), ("c", "d")))
        t = run_scenario(cfg)
        assert not t.report.success
        assert t.report.work == 2
        assert not t.result.expectations_met


class TestMutationScenario:
    @pytest.mark.parametrize("target", sorted(MUTATION_TARGETS))
    def test_every_target_aborts_at_the_right_phase(self, target):
        t = run_scenario(config("mutation", seed=16, mutation_target=target))
        assert t.result.expectations_met, t.result.detail
        expected_abort, expected_party = MUTATION_TARGETS[target][2], MUTATION_TARGETS[target][3]
        aborted = [o for o in t.outcomes if o.abort == expected_abort and o.party == expected_party]
        assert aborted

    def test_modified_event_marked(self):
        t = run_scenario(config("mutation", seed=17, mutation_target="m3.v_i"))
        assert [e.action for e in t.events if e.kind == "M3"] == ["modified"]

    def test_targets_and_expected_aborts(self):
        assert MUTATION_TARGETS == {
            "m1.f_i": ("M1", "f_i", "UserAuthFailed", "cs"),
            "m1.g_i": ("M1", "g_i", "UserAuthFailed", "cs"),
            "m1.p_ij": ("M1", "p_ij", "UserAuthFailed", "cs"),
            "m1.cid_i": ("M1", "cid_i", "UserAuthFailed", "cs"),
            "m2.f_i": ("M2", "f_i", "UserAuthFailed", "cs"),
            "m2.g_i": ("M2", "g_i", "UserAuthFailed", "cs"),
            "m2.p_ij": ("M2", "p_ij", "UserAuthFailed", "cs"),
            "m2.cid_i": ("M2", "cid_i", "UserAuthFailed", "cs"),
            "m2.sid": ("M2", "sid", "ServerAuthFailed", "cs"),
            "m2.k_i": ("M2", "k_i", "ServerAuthFailed", "cs"),
            "m2.m_i": ("M2", "m_i", "ServerAuthFailed", "cs"),
            "m3.q_i": ("M3", "q_i", "CSAuthFailed", "server"),
            "m3.r_i": ("M3", "r_i", "CSAuthFailed", "server"),
            "m3.v_i": ("M3", "v_i", "CSAuthFailed", "server"),
            "m3.t_i": ("M3", "t_i", "CSAuthFailed", "card"),
            "m4.v_i": ("M4", "v_i", "CSAuthFailed", "card"),
            "m4.t_i": ("M4", "t_i", "CSAuthFailed", "card"),
        }


class TestAdversaryTap:
    def _event(self, run, kind="M1", msg=None, channel="open"):
        msg = msg if msg is not None else run.m1
        return ChannelEvent(
            step=0, session=1, sender="user", receiver="server",
            kind=kind, channel=channel, action="none",
            payload=encode_message(kind, msg),
        )

    def test_passive_marks_observed(self):
        run = honest_run(seed=23)
        event = self._event(run)
        tapped = adversary_tap(event, AdversaryPolicy())
        assert tapped.action == "observed"
        assert tapped.payload == event.payload

    def test_secure_channel_cannot_be_tapped(self):
        run = honest_run(seed=24)
        with pytest.raises(ValueError):
            adversary_tap(self._event(run, channel="secure"), AdversaryPolicy())

    def test_drop_policy_marks_dropped(self):
        run = honest_run(seed=25)
        policy = AdversaryPolicy(mode="drop", target_kind="M1")
        assert adversary_tap(self._event(run), policy).action == "dropped"

    def test_modify_policy_changes_exactly_the_target_field(self):
        run = honest_run(seed=26)
        policy = AdversaryPolicy(mode="modify", target_kind="M1", target_field="g_i")
        tapped = adversary_tap(self._event(run), policy, BlockRng(26, "adv"))
        mutated = decode_message("M1", tapped.payload)
        assert tapped.action == "modified"
        assert mutated.g_i != run.m1.g_i
        assert (mutated.f_i, mutated.p_ij, mutated.cid_i) == (run.m1.f_i, run.m1.p_ij, run.m1.cid_i)

    def test_dropped_m4_aborts_the_card_session(self):
        # dropping is not a CLI scenario kind; drive the flow machinery directly
        from triauth.simulator import _Run

        run = _Run(config("honest", seed=27))
        policy = AdversaryPolicy(mode="drop", target_kind="M4")
        flow = run.victim_session(run.user_id, run.password, policy)
        assert flow.sk_card is None
        m4_events = [e for e in run.events if e.kind == "M4"]
        assert [e.action for e in m4_events] == ["dropped"]
        card_outcome = [o for o in run.outcomes if o.party == "card"]
        assert card_outcome and card_outcome[0].abort == "undelivered:M4"


REGISTRATION = [("RegistrationRequest", "none"), ("CardIssue", "none")]
LOCAL_CHECK = [("card", "card_local_check", True)]
CS_CHECKS = [("cs", "cs_verifies_server", True), ("cs", "cs_verifies_user", True)]
SERVER_CHECK = [("server", "server_verifies_cs", True)]


# (dropped kind, tap_server_cs_link): events as (kind, action), checks as
# (party, check, ok), outcomes as (party, abort).  With the backhaul untapped
# the adversary never sees M2 or M3, so dropping them leaves an honest run.
DROP_RUNS = {
    ("M1", True): (REGISTRATION + [("M1", "dropped")], LOCAL_CHECK, [("server", "undelivered:M1")]),
    ("M2", True): (
        REGISTRATION + [("M1", "observed"), ("M2", "dropped")],
        LOCAL_CHECK,
        [("cs", "undelivered:M2")],
    ),
    ("M3", True): (
        REGISTRATION + [("M1", "observed"), ("M2", "observed"), ("M3", "dropped")],
        LOCAL_CHECK + CS_CHECKS,
        [("cs", None), ("server", "undelivered:M3")],
    ),
    ("M4", True): (
        REGISTRATION + [("M1", "observed"), ("M2", "observed"), ("M3", "observed"), ("M4", "dropped")],
        LOCAL_CHECK + CS_CHECKS + SERVER_CHECK,
        [("cs", None), ("server", None), ("card", "undelivered:M4")],
    ),
    ("M1", False): (REGISTRATION + [("M1", "dropped")], LOCAL_CHECK, [("server", "undelivered:M1")]),
    ("M2", False): (
        REGISTRATION + [("M1", "observed"), ("M2", "none"), ("M3", "none"), ("M4", "observed")],
        LOCAL_CHECK + CS_CHECKS + SERVER_CHECK + [("card", "card_verifies_cs", True)],
        [("cs", None), ("server", None), ("card", None)],
    ),
    ("M3", False): (
        REGISTRATION + [("M1", "observed"), ("M2", "none"), ("M3", "none"), ("M4", "observed")],
        LOCAL_CHECK + CS_CHECKS + SERVER_CHECK + [("card", "card_verifies_cs", True)],
        [("cs", None), ("server", None), ("card", None)],
    ),
    ("M4", False): (
        REGISTRATION + [("M1", "observed"), ("M2", "none"), ("M3", "none"), ("M4", "dropped")],
        LOCAL_CHECK + CS_CHECKS + SERVER_CHECK,
        [("cs", None), ("server", None), ("card", "undelivered:M4")],
    ),
}


class TestDropPath:
    # No scenario kind drops a message, so the run object is driven directly.
    @pytest.mark.parametrize("kind, tap", sorted(DROP_RUNS), ids=lambda v: v if isinstance(v, str) else f"tap={v}")
    def test_dropped_message_aborts_its_receiver(self, kind, tap):
        run = simulator._Run(config("honest", seed=27, tap_server_cs_link=tap))
        run.victim_session(run.user_id, run.password, AdversaryPolicy(mode="drop", target_kind=kind))
        events, checks, outcomes = DROP_RUNS[kind, tap]
        assert [(e.kind, e.action) for e in run.events] == events
        assert [(c.party, c.check, c.ok) for c in run.checks] == checks
        assert [(o.party, o.abort) for o in run.outcomes] == outcomes


class TestVerifyTranscript:
    def test_fresh_transcript_consistent(self):
        text = run_scenario(config("honest", seed=30)).to_jsonl()
        assert verify_transcript(text)[0] == 0

    def test_single_hex_digit_edit_detected(self):
        text = run_scenario(config("honest", seed=31)).to_jsonl()
        lines = text.splitlines()
        event = json.loads(lines[1])
        payload = event["payload"]
        digit = payload[10]
        event["payload"] = payload[:10] + ("0" if digit != "0" else "1") + payload[11:]
        lines[1] = json.dumps(event, sort_keys=True, separators=(",", ":"))
        corrupted = "\n".join(lines) + "\n"
        assert verify_transcript(corrupted)[0] == 1

    def test_garbage_is_malformed(self):
        assert verify_transcript("not json at all\n")[0] == 2
        assert verify_transcript("")[0] == 2

    def test_header_with_bad_config_is_malformed(self):
        header = {"record": "header", "config": {"kind": "nope", "seed": 1}}
        text = json.dumps(header) + "\n"
        assert verify_transcript(text) == (2, "malformed transcript: unknown scenario kind: 'nope'")
        # every other damaged header field is reported, never re-run as a different scenario
        lines = run_scenario(config("guess", seed=34)).to_jsonl().splitlines(keepends=True)
        good = json.loads(lines[0])
        damaged = {
            "artifact": {**good, "artifact": "other"},
            "version": {**good, "version": "0.0.0"},
            "hash": {**good, "hash": "md5"},
            "missing version": {k: v for k, v in good.items() if k != "version"},
            "non-string entry": {**good, "config": {**good["config"], "dictionary": [[1, 2]]}},
            "entry not a pair": {**good, "config": {**good["config"], "dictionary": ["ab"]}},
            "non-bool tap": {**good, "config": {**good["config"], "tap_server_cs_link": "no"}},
            "unknown config key": {**good, "config": {**good["config"], "bogus": 1}},
            "user_id not UTF-8": {**good, "config": {**good["config"], "user_id": "\udcff"}},
            "entry not UTF-8": {**good, "config": {**good["config"], "dictionary": [["a", "\udcff"]]}},
        }
        for name, header in damaged.items():
            text = "".join([json.dumps(header) + "\n", *lines[1:]])
            assert verify_transcript(text)[0] == 2, name
            with pytest.raises(TranscriptFormatError):
                Transcript.from_jsonl(text)

    def test_header_integer_past_digit_limit_is_malformed(self):
        # json.dumps cannot write such an int either, so the line is built as text
        text = run_scenario(config("honest", seed=1)).to_jsonl()
        huge = text.replace('"seed":1', '"seed":' + "7" * 5000)
        assert huge != text
        assert verify_transcript(huge)[0] == 2
        with pytest.raises(TranscriptFormatError):
            Transcript.from_jsonl(huge)

    def test_from_jsonl_rejects_missing_result(self):
        text = run_scenario(config("honest", seed=32)).to_jsonl()
        trimmed = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(TranscriptFormatError):
            Transcript.from_jsonl(trimmed)

    @pytest.mark.parametrize("old, new, message", [
        ('"step":3}', '"step":"3"}', "step must be int, not str"),
        ('"ok":true', '"ok":1', "ok must be bool, not int"),
        ('"session":1', '"session":true', "session must be int, not bool"),
        ('"recovered":{"shared_session_key":"yes"}', '"recovered":["yes"]', "recovered must be dict, not list"),
    ])
    def test_from_jsonl_rejects_a_value_of_another_type(self, old, new, message):
        # the line plan writes each value by its declared type, so a decoded
        # record must hold exactly that type to be written back unchanged
        text = run_scenario(config("masquerade", seed=32)).to_jsonl()
        edited = text.replace(old, new, 1)
        assert edited != text
        with pytest.raises(TranscriptFormatError, match=message):
            Transcript.from_jsonl(edited)


@st.composite
def edited_transcripts(draw):
    """An honest or guess transcript after a few edits.

    Characters are replaced, inserted or deleted anywhere, or a run of up to
    5000 digits, which can pass the interpreter's 4300-digit int-string
    limit, goes in front of a header value, where JSON reads it as a number.
    """
    text = run_scenario(config(draw(st.sampled_from(["honest", "guess"])), seed=35)).to_jsonl()
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["replace", "insert", "delete", "digit run"]))
        if edit == "digit run":
            header = text.partition("\n")[0]
            pos = draw(st.sampled_from([0] + [i + 1 for i, c in enumerate(header) if c == ":"]))
            text = text[:pos] + draw(st.sampled_from("0123456789")) * draw(st.integers(1, 5000)) + text[pos:]
            continue
        pos = draw(st.integers(0, len(text)))
        if edit == "delete":
            text = text[:pos] + text[pos + 1:]
        else:
            tail = text[pos + 1:] if edit == "replace" else text[pos:]
            text = text[:pos] + draw(st.characters()) + tail
    return text


class TestVerifyNeverRaises:
    @settings(max_examples=500, deadline=None)
    @given(edited_transcripts())
    def test_status_is_0_1_or_2(self, text):
        status, message = verify_transcript(text)
        assert status in (0, 1, 2)
        assert isinstance(message, str)


class TestLinkRestriction:
    def test_backhaul_untapped_when_restricted(self):
        t = run_scenario(config("honest", seed=33, tap_server_cs_link=False))
        actions = {e.kind: e.action for e in t.events if e.channel == "open"}
        assert actions["M1"] == "observed"
        assert actions["M4"] == "observed"
        assert actions["M2"] == "none"
        assert actions["M3"] == "none"
