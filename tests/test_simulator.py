"""Scenario runner tests: determinism, transcripts, adversary hooks."""

import json
import re
import typing
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triauth import (
    KINDS,
    M1,
    M2,
    M3,
    M4,
    MUTATION_TARGETS,
    BlockRng,
    ChannelEvent,
    ConfigError,
    ControlServer,
    ScenarioConfig,
    ServerSecrets,
    SmartCard,
    Transcript,
    TranscriptFormatError,
    adversary_tap,
    decode_message,
    encode_message,
    flip_byte,
    run_scenario,
    verify_transcript,
)
from triauth import simulator
from triauth.simulator import AttackReport, CheckRecord, PartyOutcome, ScenarioResult

from helpers import flip, honest_run
from make_golden import cases


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

    def test_replace_and_make_store_values_as_given(self):
        cfg = config("mutation")._replace(mutation_target="m4.t_i", tap_server_cs_link=False)
        assert cfg.mutation_target == "m4.t_i" and cfg == ScenarioConfig._make(cfg)
        with pytest.raises(ConfigError, match=r"^unknown mutation target: 'M4.T_I'$"):
            cfg._replace(mutation_target="M4.T_I")
        values = config("guess")._asdict() | {"dictionary": [["alice", "pw123"]]}
        with pytest.raises(ConfigError, match="^dictionary must be a tuple, not list$"):
            ScenarioConfig._make(values.values())
        with pytest.raises(ConfigError, match="not on a tapped link"):
            cfg._replace(mutation_target="m2.m_i")

    def test_entries_are_stored_as_given(self):
        guess = config("guess")
        assert guess._replace(seed=2).dictionary is guess.dictionary
        with pytest.raises(ConfigError, match=re.escape("bad dictionary entry: ['alice', 'pw123']")):
            ScenarioConfig(kind="guess", seed=1, dictionary=(("bob", "x1"), ["alice", "pw123"]))
        # JSON arrays enter only through from_dict, which reads them as tuples
        data = json.loads(json.dumps(reference_encode(guess)))
        assert data["dictionary"] == [list(entry) for entry in SMALL_DICT]
        assert ScenarioConfig.from_dict(data).dictionary == SMALL_DICT

    @pytest.mark.parametrize("dictionary", [0, "ab", [("a", "b")], {"a": "b"}])
    def test_non_tuple_dictionary_rejected_by_type(self, dictionary):
        with pytest.raises(ConfigError, match=f"^dictionary must be a tuple, not {type(dictionary).__name__}$"):
            ScenarioConfig(kind="guess", seed=1, dictionary=dictionary)
        for kind in KINDS:
            if kind != "guess":
                with pytest.raises(ConfigError, match="^dictionary is only valid for guess scenarios$"):
                    config(kind, dictionary=dictionary)

    @pytest.mark.parametrize("name", ["kind", "seed", "dictionary"])
    def test_setting_a_field_raises(self, name):
        with pytest.raises(AttributeError):
            setattr(config("honest"), name, None)

    def test_guess_requires_dictionary(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="guess", seed=1).validate()

    def test_empty_dictionary_has_its_own_message(self):
        with pytest.raises(ConfigError, match="^dictionary is empty$"):
            ScenarioConfig(kind="guess", seed=1, dictionary=())
        with pytest.raises(ConfigError, match="^guess scenario requires a dictionary$"):
            ScenarioConfig(kind="guess", seed=1)

    @pytest.mark.parametrize("entry, message", [
        ("ab", "bad dictionary entry: 'ab'"),
        (("a", "b", "c"), "bad dictionary entry: ('a', 'b', 'c')"),
        (("a",), "bad dictionary entry: ('a',)"),
        (("a", 1), "bad dictionary entry: ('a', 1)"),
        ((None, "pw"), "bad dictionary entry: (None, 'pw')"),
        (("", "pw"), "bad dictionary entry: ('', 'pw')"),
        (("a", ""), "bad dictionary entry: ('a', '')"),
        (("\udcff", "pw"), "dictionary entry is not valid UTF-8: ('\\udcff', 'pw')"),
        (("a", "p\udcffw"), "dictionary entry is not valid UTF-8: ('a', 'p\\udcffw')"),
    ])
    def test_bad_dictionary_entry_message(self, entry, message):
        # the same message whether the entry is built directly or decoded from JSON lists
        dictionary = (("bob", "x1"), entry)
        with pytest.raises(ConfigError) as direct:
            ScenarioConfig(kind="guess", seed=1, dictionary=dictionary)
        assert str(direct.value) == message
        data = json.loads(json.dumps(reference_encode(config("guess")) | {"dictionary": dictionary}))
        assert data["dictionary"][1] == (list(entry) if isinstance(entry, tuple) else entry)
        with pytest.raises(ConfigError) as decoded:
            ScenarioConfig.from_dict(data)
        assert str(decoded.value) == message

    def test_dictionary_only_for_guess(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="honest", seed=1, dictionary=SMALL_DICT).validate()

    def test_mutation_requires_known_target(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="mutation", seed=1, mutation_target="m9.zz").validate()
        with pytest.raises(ConfigError, match="^mutation_target is only valid for mutation scenarios$"):
            ScenarioConfig(kind="honest", seed=0, mutation_target="m1.f_i")

    def test_mutation_target_matched_as_written(self):
        with pytest.raises(ConfigError, match=r"^unknown mutation target: 'M2.M_I'$"):
            ScenarioConfig(kind="mutation", seed=1, mutation_target="M2.M_I")

    def test_backhaul_target_needs_tapped_link(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                kind="mutation", seed=1, mutation_target="m2.m_i", tap_server_cs_link=False
            ).validate()

    def test_dict_round_trip(self):
        cfg = config("guess", seed=9)
        assert ScenarioConfig.from_dict(reference_encode(cfg)) == cfg


class TestMessageCodec:
    def test_all_wire_kinds_round_trip(self):
        run = honest_run(seed=21)
        for kind, msg in (("M1", run.m1), ("M2", run.m2), ("M3", run.m3), ("M4", run.m4)):
            assert decode_message(kind, encode_message(kind, msg)) == msg

    def test_decode_rejects_wrong_shape(self):
        run = honest_run(seed=22)
        with pytest.raises(ValueError):
            decode_message("M4", encode_message("M1", run.m1))
        with pytest.raises(ValueError, match="^payload is not a well-formed M5$"):
            decode_message("M5", b"")

    def test_encode_rejects_a_message_of_another_class(self):
        # an M3 would make a well-formed M4 payload of its first two fields, and a flat M2 one of seven M1 parts
        run = honest_run(seed=22)
        cases = [("M4", run.m3), ("M1", run.m2), ("M2", run.m1), ("M3", run.m4), ("M1", tuple(run.m1)), ("M5", run.m1)]
        for kind, msg in cases:
            with pytest.raises(ValueError, match=f"^{type(msg).__name__} is not a wire message of kind '{kind}'$"):
                encode_message(kind, msg)

    def test_wire_messages_are_m1_to_m4_and_m2_extends_m1(self):
        assert list(simulator.WIRE_MESSAGES.items()) == [("M1", M1), ("M2", M2), ("M3", M3), ("M4", M4)]
        assert M2._fields == (*M1._fields, "sid", "k_i", "m_i")


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
            assert event.action in ("none", "observed", "injected", "modified")
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
    """Any kind, either tap setting, every mutation target its tap allows, small guess dictionaries, and any
    attacker credentials for masquerade, the victim's own among them."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    tap = draw(st.booleans())
    kw = {}
    if kind == "masquerade":
        known = st.sampled_from([("alice", "pw123"), ("mallory", "letmein")])
        kw["attacker_id"], kw["attacker_password"] = draw(st.tuples(dictionary_text, dictionary_text) | known)
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
        text = t.to_jsonl()
        assert Transcript.from_jsonl(text) == t
        assert Transcript.from_jsonl(text).to_jsonl() == text
        # an attack report is named after its kind and succeeds exactly when the run met its expectation
        if cfg.kind in ("honest", "mutation"):
            assert t.report is None
        else:
            assert (t.report.name, t.report.success) == (cfg.kind, t.result.expectations_met)


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
def codec_records(draw, codecs=tuple(simulator._CODECS.values())):
    """A codec drawn from codecs and one of its objects: any record, or any config scenario_configs draws."""
    codec = draw(st.sampled_from(codecs))
    if codec.cls is ScenarioConfig:
        return codec, draw(scenario_configs())
    return codec, codec.cls(**{name: draw(field_values(codec.cls.__annotations__[name])) for name in codec.cls._fields})


class TestLinePlanProperty:
    @settings(max_examples=200, deadline=None)
    @given(codec_records())
    def test_line_equals_the_json_encoder(self, codec_record):
        codec, record = codec_record
        encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
        assert codec.line(record) == encoder.encode(reference_encode(record))


# each record class's "record" tag; the config is written without one
TAGS = {ChannelEvent: "event", CheckRecord: "check", PartyOutcome: "outcome", AttackReport: "report",
        ScenarioResult: "result"}


def reference_encode(record) -> dict:
    """The JSON object of a record, written field by field without the codecs: each field under its name,
    bytes as lowercase hex, a tagged record's None fields left out and its tag."""
    data = {}
    for name, value in zip(record._fields, record):
        if value is None and type(record) in TAGS:
            continue
        data[name] = value.hex() if type(value) is bytes else value
    if type(record) in TAGS:
        data["record"] = TAGS[type(record)]
    return data


@cache
def golden_written_records() -> list:
    """(JSON object, record) of every record each golden case's transcript writes, in order; the config's
    object is the one inside the header."""
    pairs = []
    for cfg in cases().values():
        t = run_scenario(cfg)
        header, *lines = map(json.loads, t.to_jsonl().split("\n")[:-1])
        records = [*t.events, *t.checks, *t.outcomes, *([t.report] if t.report else []), t.result]
        pairs += [(header["config"], t.config), *zip(lines, records, strict=True)]
    return pairs


@pytest.mark.parametrize("cls", [ScenarioConfig, *TAGS], ids=lambda cls: TAGS.get(cls, "config"))
def test_line_keys_are_the_record_field_names(cls):
    """A line's keys are its record's field names, plus "record" on a tagged line, minus each None field of a
    tagged line; the config, inside the header, writes a None field as null."""
    tagged = cls in TAGS
    written = [(data, record) for data, record in golden_written_records() if type(record) is cls]
    assert written
    for data, record in written:
        fields = {name for name, value in zip(cls._fields, record) if not (tagged and value is None)}
        assert sorted(data) == sorted(fields | ({"record"} if tagged else set()))


def field_classes(field_type) -> tuple:
    members = typing.get_args(field_type) if type(None) in typing.get_args(field_type) else (field_type,)
    return tuple(typing.get_origin(member) or member for member in members)


def reference_decode(codec, data: dict):
    """Build codec's tagged record from its JSON object field by field, from the record annotations alone."""
    kwargs = dict(data)
    del kwargs["record"]
    classes = {name: field_classes(t) for name, t in codec.cls.__annotations__.items()}
    for name, allowed in classes.items():
        if bytes in allowed and kwargs.get(name) is not None:
            kwargs[name] = bytes.fromhex(kwargs[name])
    record = codec.cls(**kwargs)
    for name, value in zip(record._fields, record):
        if type(value) not in classes[name]:
            expected = " or ".join(c.__name__ for c in classes[name])
            raise TypeError(f"{name} must be {expected}, not {type(value).__name__}")
    return record


json_values = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | json_text
    | st.sampled_from(["00ff", "0", "zz", "honest", "m3.t_i"])
    | st.lists(st.lists(json_text, max_size=2), max_size=2) | st.dictionaries(json_text, json_text, max_size=2)
)


@st.composite
def codec_objects(draw, codecs=tuple(simulator._BY_TAG.values())):
    """A codec drawn from codecs, by default the tagged ones, and the JSON object of one of its records, as
    written or with one key or value edited."""
    codec, record = draw(codec_records(codecs))
    data = json.loads(codec.line(record))
    edit = draw(st.sampled_from(["none", "drop", "add", "rename", "retype", "hex"]))
    hex_keys = sorted({"payload", "sk"} & data.keys())
    if edit == "hex" and hex_keys:
        data[draw(st.sampled_from(hex_keys))] = draw(st.sampled_from(["zz", "0", "0g", "AB", "00 ff", 7, None]))
    elif edit == "drop":
        del data[draw(st.sampled_from(sorted(data)))]
    elif edit == "add":
        data[draw(st.sampled_from(["bogus", "session_key", "sk", "record", "step"]) | json_text)] = draw(json_values)
    elif edit == "rename":
        old = "sk" if "sk" in data else draw(st.sampled_from(sorted(data)))
        data["session_key" if old == "sk" else draw(json_text)] = data.pop(old)
    elif edit == "retype":
        data[draw(st.sampled_from(sorted(data)))] = draw(json_values)
    return codec, data


def decoded(decode, codec, data):
    """The record decode builds, with its field classes, or the class and text of the error it raises."""
    try:
        record = decode(codec, data)
    except Exception as exc:  # any error must be the reference's, word for word
        return type(exc), str(exc)
    return record, tuple(map(type, record))


OUTCOME = {"record": "outcome", "session": 1, "party": "cs", "sk": "00ff"}
EVENT = {"record": "event", "step": 0, "session": 0, "sender": "user", "receiver": "cs", "kind": "M1",
         "channel": "secure", "action": "none", "payload": "00ff"}
CHECK = {"record": "check", "session": 1, "party": "cs", "check": "cs_verifies_user", "ok": True}


class TestReaderProperty:
    @settings(max_examples=200, deadline=None)
    @given(codec_objects())
    @example((simulator._BY_TAG["outcome"], OUTCOME | {"bogus": 1}))
    @example((simulator._BY_TAG["outcome"], {"session_key" if k == "sk" else k: v for k, v in OUTCOME.items()}))
    @example((simulator._BY_TAG["event"], EVENT | {"payload": None}))
    @example((simulator._BY_TAG["event"], dict(reversed(EVENT.items()))))
    @example((simulator._BY_TAG["outcome"], {k: v for k, v in OUTCOME.items() if k != "sk"}))
    @example((simulator._BY_TAG["outcome"], OUTCOME | {"abort": "CSAuthFailed"}))
    @example((simulator._BY_TAG["check"], {k: v for k, v in CHECK.items() if k != "ok"}))
    @example((simulator._BY_TAG["event"], EVENT | {"payload": 7}))
    def test_compiled_reader_matches_the_reference(self, codec_object):
        codec, data = codec_object
        assert decoded(lambda c, d: c.decode(d), codec, data) == decoded(reference_decode, codec, data)

    @settings(max_examples=200, deadline=None)
    @given(codec_objects((simulator._CODECS[ScenarioConfig],)))
    def test_a_config_is_built_with_its_declared_field_classes_or_not_at_all(self, codec_object):
        # the config has no class check of its own after validate, so validate must reject every other class
        codec, data = codec_object
        try:
            cfg = ScenarioConfig.from_dict(data)
        except ConfigError:
            return
        classes = {name: field_classes(t) for name, t in ScenarioConfig.__annotations__.items()}
        assert all(type(value) in classes[name] for name, value in zip(cfg._fields, cfg))
        assert ScenarioConfig.from_dict(json.loads(codec.line(cfg))) == cfg


class TestGeneratedFunctions:
    def test_each_is_compiled_under_its_own_file_name(self):
        # a profiler keys its rows by file name, so the writers and checked __new__s must not share one
        functions = {}
        for codec in simulator._CODECS.values():
            functions[f"<{codec.cls.__name__}.line>"] = codec.line
        for cls in (ControlServer, ServerSecrets, SmartCard, M1, M2, M3, M4):
            functions[f"<{cls.__name__}.__new__>"] = cls.__new__
        assert len(functions) == 13
        assert {name: function.__code__.co_filename for name, function in functions.items()} == {
            name: name for name in functions}


class TestHeaderLineProperty:
    @settings(max_examples=100, deadline=None)
    @given(scenario_configs())
    def test_header_equals_the_json_encoder(self, cfg):
        header = {
            "record": "header",
            "artifact": simulator.ARTIFACT_NAME,
            "version": simulator.ARTIFACT_VERSION,
            "hash": simulator.HASH_NAME,
            "scenario": cfg.kind,
            "seed": cfg.seed,
            "config": reference_encode(cfg),
        }
        first_line = run_scenario(cfg).to_jsonl().partition("\n")[0]
        assert first_line == json.dumps(header, sort_keys=True, separators=(",", ":"))


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

    def test_recovers_a_non_ascii_pair_as_written(self):
        # a U+2028 in the password must survive both the report and a transcript round trip
        entry = ("zoë", "päss\u2028wörd")
        cfg = config("guess", seed=17, user_id=entry[0], password=entry[1], dictionary=(("bob", "x1"), entry))
        t = run_scenario(cfg)
        assert t.report.success
        assert t.report.recovered == Transcript.from_jsonl(t.to_jsonl()).report.recovered == dict(
            user_id=entry[0], password=entry[1])

    def test_missing_pair_reports_failure(self):
        cfg = config("guess", seed=15, dictionary=(("a", "b"), ("c", "d")))
        t = run_scenario(cfg)
        assert not t.report.success
        assert t.report.work == 2
        assert not t.result.expectations_met

    def test_victim_session_with_a_password_the_card_rejects(self):
        # a guess run logs in only with credentials the card's check accepted, so no scenario reaches this
        run = simulator._Run(config("guess", seed=16))
        registration = list(run.events)
        assert run.victim_session(run.user_id, b"wrong") == {}
        assert run.checks == [simulator.CheckRecord(1, "card", "card_local_check", False)]
        assert run.outcomes == []
        assert run.events == registration
        assert all(e.channel == "secure" for e in run.events)


class TestMutationScenario:
    @pytest.mark.parametrize("target", sorted(MUTATION_TARGETS))
    def test_every_target_aborts_at_the_right_phase(self, target):
        t = run_scenario(config("mutation", seed=16, mutation_target=target))
        assert t.result.expectations_met, t.result.detail
        expected_abort, expected_party = MUTATION_TARGETS[target][2], MUTATION_TARGETS[target][3]
        aborted = [o for o in t.outcomes if o.abort == expected_abort and o.party == expected_party]
        assert aborted

    def test_every_byte_of_every_target_aborts_where_the_table_says(self, monkeypatch):
        """Every byte of each target, flipped by each of three masks on every tap setting that reaches it, is
        first caught by the party and abort that MUTATION_TARGETS names."""
        honest = honest_run(seed=0)
        flips, unexpected = [], []  # each run's (position, mask), appended before it runs
        monkeypatch.setattr(simulator, "flip_byte", lambda data, rng: flip(data, *flips[-1]))
        for target, (kind, field, abort, party) in MUTATION_TARGETS.items():
            size = len(getattr(getattr(honest, kind.lower()), field))
            for tap in (True, False) if kind in ("M1", "M4") else (True,):
                for pos, mask in product(range(size), (0x01, 0x80, 0xFF)):
                    flips.append((pos, mask))
                    t = run_scenario(config("mutation", seed=0, mutation_target=target, tap_server_cs_link=tap))
                    first = next(((o.party, o.abort) for o in t.outcomes if o.abort is not None), None)
                    if first != (party, abort) or not t.result.expectations_met:
                        unexpected.append((target, tap, pos, mask, first))
        assert unexpected == []
        assert len(flips) == 2136

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
    def test_passive_marks_observed(self):
        run = honest_run(seed=23)
        action, passed_on = adversary_tap(run.m1)
        assert action == "observed"
        assert passed_on is run.m1

    def test_modify_policy_changes_exactly_the_target_field(self):
        run = honest_run(seed=26)
        action, mutated = adversary_tap(run.m1, "g_i", BlockRng(26, "adv"))
        assert action == "modified"
        assert type(mutated) is M1
        assert [name for name in M1._fields if getattr(mutated, name) != getattr(run.m1, name)] == ["g_i"]
        assert mutated.g_i == flip_byte(run.m1.g_i, BlockRng(26, "adv"))
        original, modified = encode_message("M1", run.m1), encode_message("M1", mutated)
        assert len(modified) == len(original)
        assert sum(a != b for a, b in zip(original, modified)) == 1
        with pytest.raises(ValueError, match="^cannot flip a byte of empty data$"):
            flip_byte(b"", BlockRng(26, "adv"))


def move_first(lines, tag, before):
    """The transcript lines with the first record of type tag moved to just before the first of type before."""
    lines = list(lines)
    moved = lines.pop(next(i for i, line in enumerate(lines) if f'"record":"{tag}"' in line))
    at = next(i for i, line in enumerate(lines) if f'"record":"{before}"' in line)
    return [*lines[:at], moved, *lines[at:]]


# config field that only some kinds read -> those kinds, as "only valid for" names them
READ_BY = {"attacker_id": "masquerade", "attacker_password": "masquerade", "dictionary": "guess",
           "mutation_target": "mutation"}
# (kind, a field of READ_BY that the kind does not read), each of which must keep its default
UNREAD_FIELDS = [(kind, field) for kind in KINDS for field, kinds in READ_BY.items()
                 if kind not in kinds.split(" or ")]
# values other than each field's default, as a JSON header holds them
NON_DEFAULT_VALUES = {
    "attacker_id": ["eve", ""],
    "attacker_password": ["", "hunter2"],
    "dictionary": [[["alice", "pw123"]], []],
    "mutation_target": ["m1.f_i"],
}


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
            "unknown header key": {**good, "zzz": 1},
            "user_id not UTF-8": {**good, "config": {**good["config"], "user_id": "\udcff"}},
            "entry not UTF-8": {**good, "config": {**good["config"], "dictionary": [["a", "\udcff"]]}},
            "dictionary a string": {**good, "config": {**good["config"], "dictionary": "ab"}},
            "dictionary an object": {**good, "config": {**good["config"], "dictionary": {"a": "b"}}},
            "config an array": {**good, "config": []},
            "config a string": {**good, "config": "honest"},
            "config null": {**good, "config": None},
        }
        for name, header in damaged.items():
            text = "".join([json.dumps(header) + "\n", *lines[1:]])
            assert verify_transcript(text)[0] == 2, name
            with pytest.raises(TranscriptFormatError):
                Transcript.from_jsonl(text)
        text = "".join([json.dumps(damaged["unknown header key"]) + "\n", *lines[1:]])
        assert verify_transcript(text) == (2, "malformed transcript: unknown header key: 'zzz'")
        text = "".join([json.dumps(damaged["config null"]) + "\n", *lines[1:]])
        assert verify_transcript(text) == (2, "malformed transcript: config must be an object")
        with pytest.raises(TranscriptFormatError, match="^line 1: bad record: config must be an object$"):
            Transcript.from_jsonl(text)
        # a mutation target is matched as written, never lower-cased into another header's run
        lines = run_scenario(config("mutation", seed=34, mutation_target="m1.f_i")).to_jsonl().splitlines(keepends=True)
        text = "".join([lines[0].replace('"m1.f_i"', '"M1.F_I"'), *lines[1:]])
        assert verify_transcript(text) == (2, "malformed transcript: unknown mutation target: 'M1.F_I'")
        with pytest.raises(TranscriptFormatError):
            Transcript.from_jsonl(text)
        # a header value is compared by class as well as by value: JSON true and 1.0 equal 1 in Python
        for seed, value in [(1, "true"), (1, "1.0"), (1, "1e0"), (0, "false"), (0, "0.0")]:
            text = run_scenario(config("honest", seed=seed)).to_jsonl()
            edited = text.replace(f'"scenario":"honest","seed":{seed}', f'"scenario":"honest","seed":{value}')
            assert edited != text
            shown = repr(json.loads(value))
            assert verify_transcript(edited) == (2, f"malformed transcript: header seed is {shown}, expected {seed}")
            with pytest.raises(TranscriptFormatError):
                Transcript.from_jsonl(edited)

    @pytest.mark.parametrize("edit, message", [
        (lambda data: dict(reversed(data.items())), None),
        (lambda data: {k: v for k, v in data.items() if k != "seed"},
         "bad config: ScenarioConfig.__new__() missing 1 required positional argument: 'seed'"),
        (lambda data: data | {"bogus": 1}, "bad config: ScenarioConfig.__new__() got an unexpected keyword argument 'bogus'"),
    ], ids=["keys reversed", "seed missing", "extra key"])
    def test_header_config_of_another_key_order_or_set(self, edit, message):
        # a config is the same in any key order, and one without exactly its ten keys fails in the class's words
        text = run_scenario(config("guess", seed=34)).to_jsonl()
        header, rest = text.split("\n", 1)
        record = json.loads(header)
        record["config"] = edit(record["config"])
        edited = json.dumps(record, separators=(",", ":")) + "\n" + rest
        if message is None:
            assert Transcript.from_jsonl(edited) == Transcript.from_jsonl(text)
            assert verify_transcript(edited) == (1, "transcript inconsistent: differs from deterministic re-run")
            return
        assert verify_transcript(edited) == (2, f"malformed transcript: {message}")
        with pytest.raises(TranscriptFormatError, match=f"^line 1: bad record: {re.escape(message)}$"):
            Transcript.from_jsonl(edited)

    @pytest.mark.parametrize("kind, field, value, message", [
        ("honest", "seed", True, "seed must be an integer"),
        ("honest", "tap_server_cs_link", 1, "tap_server_cs_link must be a boolean"),
        ("honest", "user_id", 5, "user_id must be a non-empty string"),
        ("honest", "attacker_id", 5, "attacker_id is only valid for masquerade scenarios"),
        ("guess", "dictionary", [["a", 5]], "bad dictionary entry: ('a', 5)"),
        ("mutation", "mutation_target", 5, "unknown mutation target: 5"),
    ])
    def test_header_config_value_of_another_class_is_malformed(self, kind, field, value, message):
        # validate rejects each such value itself, in its own words, before any class check could
        header, rest = run_scenario(config(kind, seed=1)).to_jsonl().split("\n", 1)
        record = json.loads(header)
        record["config"][field] = value
        edited = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" + rest
        assert verify_transcript(edited) == (2, f"malformed transcript: {message}")
        with pytest.raises(TranscriptFormatError, match=f"{re.escape(message)}$"):
            Transcript.from_jsonl(edited)

    @pytest.mark.parametrize("kind, field", UNREAD_FIELDS)
    def test_header_field_the_kind_does_not_read_is_malformed(self, kind, field):
        # a header that sets such a field would name a second header for one and the same run
        text = run_scenario(config(kind, seed=0)).to_jsonl()
        assert verify_transcript(text)[0] == 0
        header, rest = text.split("\n", 1)
        record = json.loads(header)
        message = f"{field} is only valid for {READ_BY[field]} scenarios"
        for value in NON_DEFAULT_VALUES[field]:
            record["config"][field] = value
            edited = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n" + rest
            assert verify_transcript(edited) == (2, f"malformed transcript: {message}")
            with pytest.raises(TranscriptFormatError, match=f"{message}$"):
                Transcript.from_jsonl(edited)
            with pytest.raises(ConfigError, match=f"^{message}$"):
                config(kind, seed=0, **{field: value})

    def test_header_integer_past_digit_limit_is_malformed(self):
        # json.dumps cannot write such an int either, so the line is built as text
        text = run_scenario(config("honest", seed=1)).to_jsonl()
        huge = text.replace('"seed":1', '"seed":' + "7" * 5000)
        assert huge != text
        assert verify_transcript(huge)[0] == 2
        with pytest.raises(TranscriptFormatError):
            Transcript.from_jsonl(huge)

    def test_raw_line_separator_in_a_header_string(self):
        # JSON allows a raw U+2028 in a string, and ensure_ascii=False writes one
        text = run_scenario(config("honest", seed=36)).to_jsonl()
        header, rest = text.split("\n", 1)
        record = json.loads(header)
        record["config"]["password"] = "pw\u2028123"
        edited = json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n" + rest
        assert "\u2028" in edited
        assert Transcript.from_jsonl(edited).config == config("honest", seed=36, password="pw\u2028123")
        assert verify_transcript(edited)[0] == 1
        # \r is JSON whitespace, so a CRLF copy decodes like the original
        assert Transcript.from_jsonl(text.replace("\n", "\r\n")) == Transcript.from_jsonl(text)

    def test_from_jsonl_rejects_missing_result(self):
        text = run_scenario(config("honest", seed=32)).to_jsonl()
        trimmed = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(TranscriptFormatError):
            Transcript.from_jsonl(trimmed)

    @pytest.mark.parametrize("kind, edit, message", [
        ("honest", lambda lines: [*lines, lines[-1].replace('"expectations_met":true', '"expectations_met":false')],
         "result record after the result record"),
        ("honest", lambda lines: [*lines, lines[-2]], "outcome record after the result record"),
        ("honest", lambda lines: [*lines[:-2], lines[-1], lines[-2]], "outcome record after the result record"),
        ("masquerade", lambda lines: [*lines[:-1], lines[-2], lines[-1]], "report record after the report record"),
        ("masquerade", lambda lines: [*lines[:-2], lines[-1], lines[-2]], "report record after the result record"),
        ("honest", lambda lines: move_first(lines, "check", "event"), "line 3: event record after the check record"),
        ("honest", lambda lines: move_first(lines, "event", "result"), "line 15: event record after the outcome record"),
        ("masquerade", lambda lines: move_first(lines, "report", "outcome"),
         "line 15: outcome record after the report record"),
    ], ids=["second result", "record after the result", "result not last", "second report", "report after the result",
            "check before an event", "event after an outcome", "report before an outcome"])
    def test_from_jsonl_rejects_all_but_one_last_result_and_at_most_one_report(self, kind, edit, message):
        lines = run_scenario(config(kind, seed=32)).to_jsonl().splitlines()
        assert '"expectations_met":true' in lines[-1]
        with pytest.raises(TranscriptFormatError, match=message):
            Transcript.from_jsonl("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize("old, new, message", [
        ('"step":3}', '"step":"3"}', "step must be int, not str"),
        ('"ok":true', '"ok":1', "ok must be bool, not int"),
        ('"session":1', '"session":true', "session must be int, not bool"),
        ('"recovered":{"shared_session_key":"yes"}', '"recovered":["yes"]', "recovered must be dict, not list"),
    ])
    def test_from_jsonl_rejects_a_value_of_another_type(self, old, new, message):
        # the line writer writes each value by its declared type, so a decoded
        # record must hold exactly that type to be written back unchanged
        text = run_scenario(config("masquerade", seed=32)).to_jsonl()
        edited = text.replace(old, new, 1)
        assert edited != text
        lineno = edited[:edited.index(new)].count("\n") + 1
        with pytest.raises(TranscriptFormatError, match=f"^line {lineno}: bad record: {message}$"):
            Transcript.from_jsonl(edited)

    @pytest.mark.parametrize("old, new, message", [
        ('"step":3}', '"step":"3"}', "bad record: step must be int, not str"),
        ('"record":"check"', '"record":"note"', "unknown record type: 'note'"),
    ])
    def test_record_errors_count_blank_lines(self, old, new, message):
        lines = run_scenario(config("honest", seed=32)).to_jsonl().replace(old, new, 1).split("\n")
        edited = "\n".join([lines[0], "", " \t\r", *lines[1:]])
        lineno = edited[:edited.index(new)].count("\n") + 1
        with pytest.raises(TranscriptFormatError, match=f"^line {lineno}: {message}$"):
            Transcript.from_jsonl(edited)

    @pytest.mark.parametrize("before, message", [
        ("\n", "empty transcript"),
        (" \t\r\n", "empty transcript"),
        ("\x0c\n", "line 1 is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ], ids=["blank line", "JSON whitespace", "form feed"])
    def test_header_is_line_1(self, before, message):
        # verify reads line 1 as the header, so from_jsonl must too
        text = before + run_scenario(config("honest", seed=3)).to_jsonl()
        assert verify_transcript(text) == (2, f"malformed transcript: {message}")
        with pytest.raises(TranscriptFormatError, match=f"^{re.escape(message)}$"):
            Transcript.from_jsonl(text)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace('{"party":"cs"', '{"abort":null,"party":"cs"', 1),
        lambda text: re.sub('"payload":"(..)([^"]*)"', lambda m: f'"payload":"{m[1]} {m[2].upper()}"', text, count=1),
    ], ids=["explicit null abort", "upper-case hex and a space"])
    def test_from_jsonl_decodes_values_not_text(self, edit):
        # from_jsonl reads the values a line holds; only verify holds the text to the bytes a run writes
        text = run_scenario(config("honest", seed=3)).to_jsonl()
        edited = edit(text)
        assert edited != text
        assert Transcript.from_jsonl(edited) == Transcript.from_jsonl(text)
        assert verify_transcript(edited)[0] == 1

    @pytest.mark.parametrize("line", ["\x0c", ' {"record":"check"} x', "\t tru", '{"a":1}}', " [1]"],
                             ids=["form feed", "extra data", "bad literal", "extra brace", "array"])
    def test_a_line_that_is_not_a_json_object(self, line):
        # only JSON whitespace makes a line blank, and an error's position is the one the JSON decoder gives
        try:
            expected = "is not a JSON object" if type(json.loads(line)) is not dict else None
        except json.JSONDecodeError as exc:
            expected = f"is not JSON: {exc}"
        header, rest = run_scenario(config("honest", seed=3)).to_jsonl().split("\n", 1)
        with pytest.raises(TranscriptFormatError, match=f"^line 2 {re.escape(expected)}$"):
            Transcript.from_jsonl(f"{header}\n{line}\n{rest}")

    @pytest.mark.parametrize("edit", [lambda line: " " + line, lambda line: line + "\r"],
                             ids=["leading space", "trailing CR"])
    def test_a_record_line_with_json_whitespace_around_it(self, edit):
        # JSON whitespace around a line's object leaves its record as it is
        text = run_scenario(config("honest", seed=3)).to_jsonl()
        lines = text.split("\n")
        check = next(i for i, line in enumerate(lines) if '"record":"check"' in line)
        lines[check] = edit(lines[check])
        assert Transcript.from_jsonl("\n".join(lines)) == Transcript.from_jsonl(text)


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


def whole_file_verify(text):
    """verify's status and message by a whole-file compare: malformed where the header does not decode, else
    consistent exactly when a fresh run writes the same text."""
    try:
        cfg = simulator._decode_header(text.partition("\r")[0])
    except (TranscriptFormatError, ConfigError) as exc:
        return 2, f"malformed transcript: {exc}"
    if run_scenario(cfg).to_jsonl() == text:
        return 0, "transcript consistent: matches deterministic re-run"
    return 1, "transcript inconsistent: differs from deterministic re-run"


def flip_digit(line, at):
    """line with the hex digit at position at changed."""
    return line[:at] + "0123456789abcdef"[int(line[at], 16) ^ 1] + line[at + 1:]


def negate(line):
    """line with each JSON true written false and each false true."""
    return re.sub(":(true|false)", lambda m: ":false" if m[1] == "true" else ":true", line)


def single_line_edits(text):
    """(name, edited copy) of each single-line edit: a hex digit in each event line, a check line, the result
    line, each line dropped, the last line twice, a blank line after each line, no final \\n, CRLF line ends."""
    lines = text.split("\n")[:-1]
    edits = [(f"event line {i + 1}", {i: flip_digit(line, line.index('"payload":"') + 11 + i)})
             for i, line in enumerate(lines) if '"record":"event"' in line]
    check = next(i for i, line in enumerate(lines) if '"record":"check"' in line)
    edits += [("check line", {check: negate(lines[check])}), ("result line", {len(lines) - 1: negate(lines[-1])})]
    edited = [(name, "".join(edit.get(i, line) + "\n" for i, line in enumerate(lines))) for name, edit in edits]
    edited += [(f"line {i + 1} dropped", "".join(line + "\n" for line in lines[:i] + lines[i + 1:]))
               for i in range(len(lines))]
    edited += [(f"blank line after line {i + 1}", "".join(line + "\n" for line in lines[:i + 1] + [""] + lines[i + 1:]))
               for i in range(len(lines))]
    return edited + [("last line twice", text + lines[-1] + "\n"), ("no final newline", text[:-1]),
                     ("CRLF line ends", text.replace("\n", "\r\n"))]


class TestVerifyNeverRaises:
    @settings(max_examples=500, deadline=None)
    @given(edited_transcripts())
    def test_status_is_0_1_or_2(self, text):
        status, message = verify_transcript(text)
        assert status in (0, 1, 2)
        assert isinstance(message, str)
        # verify stops at the first line that differs, and still gives what a whole-file compare gives
        assert (status, message) == whole_file_verify(text)


class TestVerifyMatchesAWholeFileCompare:
    """verify stops at the first line that differs from the re-run; its status and message are always those of
    comparing the whole file the re-run writes."""

    @pytest.mark.parametrize("kind", ["honest", "replay", "masquerade", "guess", "mutation"])
    def test_every_single_line_edit(self, kind):
        target = "m3.t_i" if kind == "mutation" else None
        text = run_scenario(config(kind, seed=37, mutation_target=target)).to_jsonl()
        assert verify_transcript(text) == whole_file_verify(text)
        assert verify_transcript(text)[0] == 0
        for name, edited in single_line_edits(text):
            # a dropped header leaves an event on line 1, which is malformed (2); every other edit is caught (1)
            expected = 2 if name == "line 1 dropped" else 1
            assert edited != text and verify_transcript(edited) == whole_file_verify(edited), name
            assert verify_transcript(edited)[0] == expected, name


class TestLinkRestriction:
    def test_backhaul_untapped_when_restricted(self):
        t = run_scenario(config("honest", seed=33, tap_server_cs_link=False))
        actions = {e.kind: e.action for e in t.events if e.channel == "open"}
        assert actions["M1"] == "observed"
        assert actions["M4"] == "observed"
        assert actions["M2"] == "none"
        assert actions["M3"] == "none"

    @pytest.mark.parametrize("kind, extra, user_link_view", [
        ("honest", {}, [(1, "user", "server", "M1", "observed"), (1, "server", "user", "M4", "observed")]),
        ("replay", {}, [
            (1, "user", "server", "M1", "observed"), (1, "server", "user", "M4", "observed"),
            (2, "adversary", "server", "M1", "injected"), (2, "server", "user", "M4", "observed"),
        ]),
        ("masquerade", {}, [(1, "attacker", "server", "M1", "injected"), (1, "server", "attacker", "M4", "observed")]),
        ("mutation", {"mutation_target": "m4.v_i"},
         [(1, "user", "server", "M1", "observed"), (1, "server", "user", "M4", "modified")]),
    ])
    def test_adversary_view_holds_what_it_tapped_or_injected(self, kind, extra, user_link_view):
        full = run_scenario(config(kind, seed=3, **extra))
        assert full.adversary_view() == tuple(e for e in full.events if e.channel == "open")
        restricted = run_scenario(config(kind, seed=3, tap_server_cs_link=False, **extra))
        view = restricted.adversary_view()
        assert [(e.session, e.sender, e.receiver, e.kind, e.action) for e in view] == user_link_view

    @pytest.mark.parametrize("tap", [True, False], ids=["full-tap", "user-link-only"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_view_kept_at_the_tap_matches_the_wire(self, kind, tap):
        """A run keeps each tapped or injected message as the record it delivered: the same rows, in the same
        order, as decoding the payloads of the transcript's adversary view."""
        targets = [t for t, (message_kind, *_) in MUTATION_TARGETS.items() if tap or message_kind in ("M1", "M4")]
        for seed in range(3):
            extra = {"mutation_target": targets[seed * 5 % len(targets)]} if kind == "mutation" else {}
            cfg = config(kind, seed=seed, tap_server_cs_link=tap, **extra)
            run = simulator._Run(cfg)
            simulator._SCENARIOS[kind][0](run)
            wire = [(e.payload, e.kind, *decode_message(e.kind, e.payload)) for e in run_scenario(cfg).adversary_view()]
            assert wire
            assert [(payload, type(msg).__name__, *msg) for payload, msg in run.view] == wire
