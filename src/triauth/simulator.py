"""Deterministic scenario runner over a simulated network.

Wires the card, the service server, and the control server together,
threads every login-phase message through the adversary's tap, and records
a transcript that can be re-derived byte for byte from the scenario
configuration alone.  Registration traffic runs on a secure channel the
adversary never sees.

Transcript files are JSON Lines: a header record (scenario, seed, hash
function, artifact version, full configuration), one record per channel
event (hex payload), one per verification check, one per party outcome
(session key or abort reason), an attack report where applicable, and a
final result record.
"""

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import NamedTuple, get_args, get_origin

from .actors import (
    M1,
    M2,
    M3,
    M4,
    CardSession,
    ControlServer,
    CSAuthFailed,
    LocalCheckFailed,
    ServerAuthFailed,
    SmartCard,
    UserAuthFailed,
    card_login,
    card_verify,
    checked,
    cs_authenticate,
    register_server,
    register_user,
    server_forward,
    server_verify,
)
from .attacks import AdversaryKnowledge, AttackReport, guess_credentials
from .crypto import HASH_NAME, BlockRng, concat, h, split_concat

ARTIFACT_NAME = "triauth"
ARTIFACT_VERSION = "0.1.0"


# --- wire schema ---------------------------------------------------------

# A login message's wire fields are its actor record's fields in
# declaration order, with a nested message's fields in its place: M2 carries
# the four fields of the M1 it forwards first.  A record class's
# __annotations__ maps each of its _fields to its type, in the same order.
WIRE_MESSAGES = {cls.__name__: cls for cls in (M1, M2, M3, M4)}


def _wire_layout(cls, prefix: str = "") -> list[tuple[str, str, str]]:
    """(field name, attribute path, declaring message) of each wire field, in order."""
    layout = []
    for name, field_type in cls.__annotations__.items():
        if hasattr(field_type, "_fields"):
            layout += _wire_layout(field_type, f"{prefix}{name}.")
        else:
            layout.append((name, prefix + name, cls.__name__))
    return layout


_LAYOUTS = {kind: _wire_layout(cls) for kind, cls in WIRE_MESSAGES.items()}
WIRE_FIELDS = {kind: tuple(name for name, _, _ in layout) for kind, layout in _LAYOUTS.items()}
_WIRE_VALUES = {kind: attrgetter(*(path for _, path, _ in layout)) for kind, layout in _LAYOUTS.items()}
# (position, class) of each field of a message that is itself a message.
_NESTED = {
    cls: tuple((pos, sub) for pos, sub in enumerate(cls.__annotations__.values()) if hasattr(sub, "_fields"))
    for cls in WIRE_MESSAGES.values()
}


# --- login exchange ------------------------------------------------------

def _keyed(msg, state):
    return msg, state, state.session_key


# The login exchange in order; each message's sender is the previous one's
# receiver.  A row is (message kind, receiver, actor call, checks).  The actor
# call maps (run, each receiver's session state, message) to (next message,
# the receiver's new state, its session key or None).  Each check, in the
# order the actor makes them, is (name, actor error that fails it, where a
# flipped byte is first caught by it): a message name covers every field the
# message declares, and a message.field entry overrides that for one field.
# t_i crosses the server unchecked inside M3 and is first verified by the card.
_STEPS = (
    ("M1", "server", lambda run, states, m1: (*server_forward(run.secrets, m1, run.rng_server), None), ()),
    ("M2", "cs", lambda run, states, m2: _keyed(*cs_authenticate(run.cs, m2, run.rng_cs)), (
        ("cs_verifies_server", ServerAuthFailed, ("M2",)),
        ("cs_verifies_user", UserAuthFailed, ("M1",)),
    )),
    ("M3", "server", lambda run, states, m3: _keyed(*server_verify(run.secrets, states["server"], m3)), (
        ("server_verifies_cs", CSAuthFailed, ("M3",)),
    )),
    ("M4", "card", lambda run, states, m4: (None, None, card_verify(states["card"], m4)), (
        ("card_verifies_cs", CSAuthFailed, ("M4", "M3.t_i")),
    )),
)

# message or message.field -> (abort, party that aborts) for a flipped byte in it
_CAUGHT_BY = {
    owner: (abort.__name__, receiver)
    for _, receiver, _, checks in _STEPS
    for _, abort, catches in checks
    for owner in catches
}

# target -> (message kind, field, expected abort, party that aborts)
MUTATION_TARGETS = {
    f"{kind.lower()}.{name}": (kind, name, *_CAUGHT_BY.get(f"{owner}.{name}", _CAUGHT_BY[owner]))
    for kind, layout in _LAYOUTS.items()
    for name, _, owner in layout
}


class ConfigError(ValueError):
    """Scenario configuration is malformed."""


class TranscriptFormatError(ValueError):
    """Transcript text cannot be parsed."""


def _utf8_ok(value: str) -> bool:
    """Whether value can be encoded as UTF-8, that is, holds no lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@checked
class ScenarioConfig(NamedTuple):
    """Everything needed to reproduce one scenario run; normalised and validated when built."""

    kind: str
    seed: int
    user_id: str = "alice"
    password: str = "pw123"
    sid: str = "server-1"
    attacker_id: str = "mallory"
    attacker_password: str = "letmein"
    dictionary: tuple[tuple[str, str], ...] | None = None
    mutation_target: str | None = None
    tap_server_cs_link: bool = True

    def _checked(self) -> "ScenarioConfig":
        """Lower-case the mutation target and make listed dictionary entries tuples, then validate."""
        values = self._asdict()
        if isinstance(self.mutation_target, str):
            values["mutation_target"] = self.mutation_target.lower()
        if self.dictionary is not None:
            values["dictionary"] = tuple(tuple(e) if isinstance(e, list) else e for e in self.dictionary)
        cfg = tuple.__new__(type(self), values.values())
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind: {self.kind!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed must be an integer")
        try:
            str(self.seed)  # BlockRng keys every stream by the seed's decimal text
        except ValueError:
            raise ConfigError("seed has too many digits to write in decimal") from None
        for name in ("user_id", "password", "sid", "attacker_id", "attacker_password"):
            value = getattr(self, name)
            optional = name.startswith("attacker") and self.kind != "masquerade"
            if not isinstance(value, str) or not (value or optional):
                raise ConfigError(f"{name} must be a non-empty string")
            if not (value.isascii() or _utf8_ok(value)):
                raise ConfigError(f"{name} is not valid UTF-8: {value!r}")
        if not isinstance(self.tap_server_cs_link, bool):
            raise ConfigError("tap_server_cs_link must be a boolean")
        if self.kind == "guess":
            if not self.dictionary:
                raise ConfigError("guess scenario requires a dictionary")
            for entry in self.dictionary:
                if not isinstance(entry, tuple) or len(entry) != 2 or not all(isinstance(v, str) and v for v in entry):
                    raise ConfigError(f"bad dictionary entry: {entry!r}")
                if not ((entry[0].isascii() and entry[1].isascii()) or all(map(_utf8_ok, entry))):
                    raise ConfigError(f"dictionary entry is not valid UTF-8: {entry!r}")
        elif self.dictionary is not None:
            raise ConfigError("dictionary is only valid for guess scenarios")
        if self.kind == "mutation":
            if not isinstance(self.mutation_target, str) or self.mutation_target not in MUTATION_TARGETS:
                raise ConfigError(f"unknown mutation target: {self.mutation_target!r}")
            message_kind = MUTATION_TARGETS[self.mutation_target][0]
            if message_kind in ("M2", "M3") and not self.tap_server_cs_link:
                raise ConfigError(f"{self.mutation_target} is not on a tapped link")
        elif self.mutation_target is not None:
            raise ConfigError("mutation_target is only valid for mutation scenarios")

    def to_dict(self) -> dict:
        return _CODECS[ScenarioConfig].encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Decode and validate a config object; anything malformed raises ConfigError."""
        if not isinstance(data, dict):
            raise ConfigError("config must be an object")
        try:
            return _CODECS[cls].decode(data)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc


# --- wire encoding -------------------------------------------------------

def encode_message(kind: str, msg) -> bytes:
    if kind not in WIRE_MESSAGES:
        raise ValueError(f"not a wire message kind: {kind}")
    return concat(*_WIRE_VALUES[kind](msg))


def _wire_parts(kind: str, payload: bytes) -> list[bytes]:
    parts = split_concat(payload)
    if kind not in WIRE_FIELDS or len(parts) != len(WIRE_FIELDS[kind]):
        raise ValueError(f"payload is not a well-formed {kind}")
    return parts


def _build(cls, parts: list[bytes]):
    """Rebuild a message from its flat wire fields."""
    for pos, sub in _NESTED[cls]:
        width = len(WIRE_FIELDS[sub.__name__])
        parts[pos:pos + width] = [_build(sub, parts[pos:pos + width])]
    return cls(*parts)


def decode_message(kind: str, payload: bytes):
    return _build(WIRE_MESSAGES[kind], _wire_parts(kind, payload))


# --- transcript records --------------------------------------------------

class ChannelEvent(NamedTuple):
    """One message crossing a channel, with the adversary's action on it."""

    step: int
    session: int
    sender: str
    receiver: str
    kind: str
    channel: str  # "secure" | "open"
    action: str   # "none" | "observed" | "dropped" | "injected" | "modified"
    payload: bytes


class CheckRecord(NamedTuple):
    """One verification performed by one party."""

    session: int
    party: str
    check: str
    ok: bool


class PartyOutcome(NamedTuple):
    """How one party's session ended: a derived key or an abort reason."""

    session: int
    party: str
    session_key: bytes | None = None
    abort: str | None = None


class ScenarioResult(NamedTuple):
    """Whether the run met the scenario's expectation, with a one-line reason."""

    expectations_met: bool
    detail: str


_JSON_OUT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSON_IN = json.JSONDecoder()

# The JSON text _JSON_OUT writes for a value of each declared field type;
# a bytes field travels as a lowercase hex string.
_TO_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda value: "true" if value else "false",
    bytes: lambda value: f'"{value.hex()}"',
}


def _field_types(field_type) -> tuple:
    """The classes a field's value may have: its declared type, or each member of an optional one."""
    members = get_args(field_type) if type(None) in get_args(field_type) else (field_type,)
    return tuple(get_origin(member) or member for member in members)


def _json_writer(types: tuple, omit_none: bool):
    """The converter for a field of these classes; any other class, such as dict, goes through _JSON_OUT."""
    write = _TO_JSON.get(next(t for t in types if t is not type(None)), _JSON_OUT.encode)
    if type(None) in types and not omit_none:
        return lambda value: "null" if value is None else write(value)
    return write


class _Codec:
    """Converts one record class to and from its JSON object.

    Bytes fields travel as lowercase hex, keys may be renamed, and a codec
    with omit_none leaves None fields out.  Decoding rejects a value whose
    class is not the field's declared type, so every decoded object can be
    written again by its line plan.  The field spec and the line plan are
    computed once.
    """

    def __init__(self, cls, tag: str | None = None, rename: dict | None = None, omit_none: bool = False):
        rename = rename or {}
        self.cls = cls
        self.tag = tag
        self._omit_none = omit_none
        spec = [(name, rename.get(name, name), _field_types(t)) for name, t in cls.__annotations__.items()]
        self._keys = tuple(key for _, key, _ in spec)
        self._renamed = tuple((name, key) for name, key, _ in spec if key != name)
        self._hex = tuple((name, key) for name, key, types in spec if bytes in types)
        self._types = tuple((name, types) for name, _, types in spec)
        # Line plan: ('"key":', position in the record, converter) in sorted
        # key order.  line() appends the tag to the field values, so "record"
        # is one more string value in its sorted place.
        plan = {key: (pos, _json_writer(types, omit_none)) for pos, (_, key, types) in enumerate(spec)}
        if tag is not None:
            plan["record"] = (len(spec), encode_basestring_ascii)
        self._plan = tuple((f"{encode_basestring_ascii(key)}:", *entry) for key, entry in sorted(plan.items()))
        # line() leaves out each value that is this object: None when None
        # fields are omitted, else a sentinel no field holds.
        self._skip = None if omit_none else object()

    def encode(self, obj) -> dict:
        record = dict(zip(self._keys, obj))
        for _, key in self._hex:
            if record[key] is not None:
                record[key] = record[key].hex()
        if self._omit_none:
            record = {key: value for key, value in record.items() if value is not None}
        if self.tag is not None:
            record["record"] = self.tag
        return record

    def line(self, obj) -> str:
        """The JSON text _JSON_OUT.encode(self.encode(obj)) gives, written field by field."""
        values = (*obj, self.tag)
        skip = self._skip
        pairs = [key + write(values[pos]) for key, pos, write in self._plan if values[pos] is not skip]
        return "{" + ",".join(pairs) + "}"

    def decode(self, record: dict):
        """Build the record; absent keys take the field default, unknown keys raise TypeError."""
        kwargs = dict(record)
        if self.tag is not None:
            del kwargs["record"]
        for name, key in self._renamed:
            if name in kwargs:
                raise TypeError(f"unexpected key {name!r}")
            if key in kwargs:
                kwargs[name] = kwargs.pop(key)
        for name, _ in self._hex:
            if kwargs.get(name) is not None:
                kwargs[name] = bytes.fromhex(kwargs[name])
        obj = self.cls(**kwargs)
        for (name, types), value in zip(self._types, obj):
            if type(value) not in types:
                expected = " or ".join(t.__name__ for t in types)
                raise TypeError(f"{name} must be {expected}, not {type(value).__name__}")
        return obj


_CODECS = {
    codec.cls: codec
    for codec in (
        _Codec(ScenarioConfig),
        _Codec(ChannelEvent, "event"),
        _Codec(CheckRecord, "check"),
        _Codec(PartyOutcome, "outcome", rename={"session_key": "sk"}, omit_none=True),
        _Codec(AttackReport, "report"),
        _Codec(ScenarioResult, "result"),
    )
}
_BY_TAG = {codec.tag: codec for codec in _CODECS.values() if codec.tag is not None}


def _loads(line: str, lineno: int) -> dict:
    try:
        record = _JSON_IN.decode(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string digit limit
        raise TranscriptFormatError(f"line {lineno} is not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TranscriptFormatError(f"line {lineno} is not a JSON object")
    return record


def _header(cfg: ScenarioConfig) -> dict:
    return {
        "record": "header",
        "artifact": ARTIFACT_NAME,
        "version": ARTIFACT_VERSION,
        "hash": HASH_NAME,
        "scenario": cfg.kind,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
    }


def _decode_header(lines: list[str]) -> ScenarioConfig:
    """The run a transcript's first line names; raises ConfigError or TranscriptFormatError.

    Every header field must be exactly what a fresh run of that config
    writes, so a damaged header is reported, never re-run as another scenario.
    """
    if not lines or not lines[0].strip():
        raise TranscriptFormatError("empty transcript")
    header = _loads(lines[0], 1)
    if header.get("record") != "header":
        raise TranscriptFormatError("first record must be the header")
    if "config" not in header:
        raise TranscriptFormatError("header lacks a config")
    cfg = ScenarioConfig.from_dict(header["config"])
    for key, expected in _header(cfg).items():
        if key != "config" and header.get(key) != expected:
            raise TranscriptFormatError(f"header {key} is {header.get(key)!r}, expected {expected!r}")
    return cfg


class Transcript(NamedTuple):
    """Full record of one scenario run; serializes to deterministic JSONL."""

    config: ScenarioConfig
    events: tuple[ChannelEvent, ...]
    checks: tuple[CheckRecord, ...]
    outcomes: tuple[PartyOutcome, ...]
    report: AttackReport | None
    result: ScenarioResult

    def to_jsonl(self) -> str:
        records = [*self.events, *self.checks, *self.outcomes]
        if self.report is not None:
            records.append(self.report)
        records.append(self.result)
        lines = [_JSON_OUT.encode(_header(self.config))]
        lines.extend(_CODECS[type(r)].line(r) for r in records)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        lines = [line for line in text.splitlines() if line.strip()]
        found = {tag: [] for tag in _BY_TAG}
        try:
            config = _decode_header(lines)
            for lineno, line in enumerate(lines[1:], start=2):
                record = _loads(line, lineno)
                codec = _BY_TAG.get(record.get("record"))
                if codec is None:
                    raise TranscriptFormatError(f"unknown record type: {record.get('record')!r}")
                found[codec.tag].append(codec.decode(record))
        except TranscriptFormatError:
            raise
        except (TypeError, ValueError) as exc:
            raise TranscriptFormatError(f"bad record: {exc}") from exc
        if not found["result"]:
            raise TranscriptFormatError("missing result record")
        return cls(
            config=config,
            events=tuple(found["event"]),
            checks=tuple(found["check"]),
            outcomes=tuple(found["outcome"]),
            report=found["report"][-1] if found["report"] else None,
            result=found["result"][-1],
        )

    def adversary_view(self) -> tuple[ChannelEvent, ...]:
        """Events the channel adversary can see (open channels only)."""
        return tuple(e for e in self.events if e.channel == "open")

    def session_keys(self, session: int) -> dict[str, bytes]:
        return {
            o.party: o.session_key
            for o in self.outcomes
            if o.session == session and o.session_key is not None
        }


# --- adversary channel hooks ---------------------------------------------

class AdversaryPolicy(NamedTuple):
    """What the channel adversary does to in-flight messages."""

    mode: str = "passive"  # passive | drop | modify
    target_kind: str | None = None
    target_field: str | None = None


PASSIVE = AdversaryPolicy()


def flip_byte(data: bytes, rng: BlockRng) -> bytes:
    """XOR one random byte of data with a random non-zero mask."""
    if not data:
        raise ValueError("cannot flip a byte of empty data")
    block = rng.next_block()
    pos = int.from_bytes(block[:4], "big") % len(data)
    mask = block[4] % 255 + 1
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def adversary_tap(event: ChannelEvent, policy: AdversaryPolicy, rng: BlockRng | None = None) -> ChannelEvent:
    """Apply the adversary's policy to one in-flight event.

    Returns the event marked with the action taken; an action of "dropped"
    means the message must not be delivered.
    """
    if event.channel != "open":
        raise ValueError("adversary cannot tap a secure channel")
    action, payload = "observed", event.payload
    if policy.mode == "drop" and event.kind == policy.target_kind:
        action = "dropped"
    elif policy.mode == "modify" and event.kind == policy.target_kind:
        if rng is None:
            raise ValueError("modify policy needs an rng")
        parts = _wire_parts(event.kind, payload)
        pos = WIRE_FIELDS[event.kind].index(policy.target_field)
        parts[pos] = flip_byte(parts[pos], rng)
        action, payload = "modified", concat(*parts)
    elif policy.mode not in ("passive", "drop", "modify"):
        raise ValueError(f"unknown adversary mode: {policy.mode!r}")
    return ChannelEvent(event.step, event.session, event.sender, event.receiver, event.kind, "open", action, payload)


# --- scenario execution ---------------------------------------------------

class _Flow:
    """Each party's session key after one M1..M4 exchange; the slots are named after the receivers in _STEPS."""

    __slots__ = ("sk_cs", "sk_server", "sk_card")

    def __init__(self):
        self.sk_cs = self.sk_server = self.sk_card = None

    @property
    def agreement(self) -> bool:
        keys = {self.sk_card, self.sk_server, self.sk_cs}
        return None not in keys and len(keys) == 1


class _Run:
    """One scenario run: its seeded streams and actors, and what it records.

    Building it registers the victim.  It holds the event log, checks,
    outcomes and the adversary's knowledge.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.events: list[ChannelEvent] = []
        self.checks: list[CheckRecord] = []
        self.outcomes: list[PartyOutcome] = []
        self.knowledge = AdversaryKnowledge()
        self.rng_cs, self.rng_user, self.rng_server, self.rng_attacker, self.rng_adv = (
            BlockRng(cfg.seed, label) for label in ("cs", "user", "server", "attacker", "adversary")
        )
        self.user_id = cfg.user_id.encode("utf-8")
        self.password = cfg.password.encode("utf-8")
        self.sid = cfg.sid.encode("utf-8")
        self.cs = ControlServer.generate(self.rng_cs)
        self.secrets = register_server(self.cs, self.sid)
        self.card = self.register("user", self.user_id, self.password, self.rng_user)

    def record_secure(self, session: int, sender: str, receiver: str, kind: str, payload: bytes) -> None:
        self.events.append(
            ChannelEvent(len(self.events), session, sender, receiver, kind, "secure", "none", payload)
        )

    def check(self, session: int, party: str, name: str, ok: bool) -> None:
        self.checks.append(CheckRecord(session=session, party=party, check=name, ok=ok))

    def key(self, session: int, party: str, sk: bytes) -> None:
        self.outcomes.append(PartyOutcome(session=session, party=party, session_key=sk))

    def abort(self, session: int, party: str, reason: str) -> None:
        self.outcomes.append(PartyOutcome(session=session, party=party, abort=reason))

    def first_abort(self) -> tuple[str, str] | None:
        for outcome in self.outcomes:
            if outcome.abort is not None:
                return outcome.party, outcome.abort
        return None

    def _observe(self, kind: str, msg, payload: bytes) -> None:
        self.knowledge.observe(payload, *_WIRE_VALUES[kind](msg))

    def register(self, party: str, user_id: bytes, password: bytes, rng: BlockRng) -> SmartCard:
        """Registration ceremony over the secure channel, recorded as two events."""
        b = rng.next_block()
        a_i = h(b, password)
        self.record_secure(0, party, "cs", "RegistrationRequest", concat(user_id, a_i))
        card = register_user(self.cs, user_id, a_i, b)
        # b never crosses the channel: the holder stores it after issuance.
        self.record_secure(0, "cs", party, "CardIssue", concat(card.c_i, card.d_i, card.e_i, card.h_y))
        return card

    def send(
        self,
        session: int,
        sender: str,
        receiver: str,
        kind: str,
        msg,
        policy: AdversaryPolicy,
        injected: bool = False,
    ):
        """Put a message on an open channel; returns the delivered message or None."""
        payload = encode_message(kind, msg)
        # Every event is logged exactly once, so its step is its index in the log.
        step = len(self.events)
        if injected:
            self.events.append(ChannelEvent(step, session, sender, receiver, kind, "open", "injected", payload))
            self._observe(kind, msg, payload)
            return msg
        event = ChannelEvent(step, session, sender, receiver, kind, "open", "none", payload)
        backhaul = {sender, receiver} == {"server", "cs"}
        if backhaul and not self.cfg.tap_server_cs_link:
            self.events.append(event)
            return msg
        event = adversary_tap(event, policy, self.rng_adv)
        self.events.append(event)
        self._observe(kind, msg, payload)
        if event.action == "dropped":
            return None
        if event.action == "modified":
            msg = decode_message(kind, event.payload)
            self._observe(kind, msg, event.payload)
        return msg

    def exchange(
        self,
        session: int,
        m1: M1,
        card_session: CardSession | None,
        policy: AdversaryPolicy = PASSIVE,
        *,
        user_party: str = "card",
        m1_sender: str = "user",
    ) -> _Flow:
        """Drive one M1..M4 exchange through _STEPS, recording checks and outcomes as they happen.

        user_party holds the card and is "user" on the wire when it is the
        victim's card.  An M1 that the user did not send is injected.  With no
        card session, M4 is sent and nobody checks it.
        """
        flow = _Flow()
        states = {"card": card_session}
        sender, msg = m1_sender, m1
        for kind, receiver, act, checks in _STEPS:
            party = user_party if receiver == "card" else receiver
            wire_receiver = "user" if party == "card" else party
            injected = kind == "M1" and sender != "user"
            msg = self.send(session, sender, wire_receiver, kind, msg, policy, injected=injected)
            if receiver == "card" and card_session is None:
                return flow
            if msg is None:
                self.abort(session, party, f"undelivered:{kind}")
                return flow
            failed = None
            try:
                msg, states[receiver], key = act(self, states, msg)
            except tuple(abort for _, abort, _ in checks) as exc:
                failed = type(exc)
            for name, abort, _ in checks:
                self.check(session, party, name, abort is not failed)
                if abort is failed:
                    self.abort(session, party, abort.__name__)
                    return flow
            if key is not None:
                self.key(session, party, key)
                setattr(flow, f"sk_{receiver}", key)
            sender = wire_receiver
        return flow

    def victim_session(self, user_id: bytes, password: bytes, policy: AdversaryPolicy = PASSIVE) -> _Flow:
        """Session 1 from the victim's card; an empty flow if the card rejects the credentials."""
        try:
            m1, card_session = card_login(self.card, user_id, password, self.sid, self.rng_user)
        except LocalCheckFailed:
            self.check(1, "card", "card_local_check", False)
            return _Flow()
        self.check(1, "card", "card_local_check", True)
        return self.exchange(1, m1, card_session, policy)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _honest(run: _Run) -> tuple[AttackReport | None, ScenarioResult]:
    agree = run.victim_session(run.user_id, run.password).agreement
    abort = run.first_abort()
    detail = "session keys agree" if agree else (
        f"abort {abort[1]} at {abort[0]}" if abort else "session keys disagree"
    )
    return None, ScenarioResult(expectations_met=agree, detail=detail)


def _replay(run: _Run) -> tuple[AttackReport | None, ScenarioResult]:
    run.victim_session(run.user_id, run.password)
    # Nothing in M1 binds it to a session, so the byte-exact copy passes again.
    captured = decode_message("M1", next(e.payload for e in run.events if e.kind == "M1"))
    flow = run.exchange(2, captured, None, m1_sender="adversary")
    accepted = flow.sk_cs is not None and flow.sk_server is not None
    knows_sk = flow.sk_cs is not None and run.knowledge.knows(flow.sk_cs)
    report = AttackReport(
        name="replay", success=accepted, work=1,
        recovered={"adversary_knows_session_key": _yes(knows_sk)},
    )
    detail = (
        f"replayed M1 accepted by CS and server: {_yes(accepted)}; "
        f"adversary knows session key: {_yes(knows_sk)}"
    )
    return report, ScenarioResult(expectations_met=accepted, detail=detail)


def _masquerade(run: _Run) -> tuple[AttackReport | None, ScenarioResult]:
    # The attacker's own card and credentials build an M1 that the control
    # server cannot tell apart from any other user's login.
    attacker_id = run.cfg.attacker_id.encode("utf-8")
    attacker_password = run.cfg.attacker_password.encode("utf-8")
    card = run.register("attacker", attacker_id, attacker_password, run.rng_attacker)
    m1, card_session = card_login(card, attacker_id, attacker_password, run.sid, run.rng_attacker)
    flow = run.exchange(1, m1, card_session, user_party="attacker", m1_sender="attacker")
    report = AttackReport(
        name="masquerade", success=flow.agreement, work=1,
        recovered={"shared_session_key": _yes(flow.agreement)},
    )
    detail = (
        f"forged M1 accepted by CS: {_yes(flow.sk_cs is not None)}; "
        f"attacker, server, and CS share one key: {_yes(flow.agreement)}"
    )
    return report, ScenarioResult(expectations_met=flow.agreement, detail=detail)


def _guess(run: _Run) -> tuple[AttackReport | None, ScenarioResult]:
    candidates = ((ident.encode("utf-8"), password.encode("utf-8")) for ident, password in run.cfg.dictionary)
    guess = guess_credentials(run.card, candidates)
    success = guess.found and run.victim_session(guess.user_id, guess.password).agreement
    recovered = {}
    if guess.found:
        recovered = {
            "user_id": guess.user_id.decode("utf-8", "replace"),
            "password": guess.password.decode("utf-8", "replace"),
        }
    report = AttackReport(name="guess", success=success, work=guess.evaluations, recovered=recovered)
    if success:
        detail = f"credentials recovered after {guess.evaluations} evaluations"
    elif guess.found:
        detail = f"recovered credentials failed login validation ({guess.evaluations} evaluations)"
    else:
        detail = f"credentials not in dictionary ({guess.evaluations} evaluations)"
    return report, ScenarioResult(expectations_met=success, detail=detail)


def _mutation(run: _Run) -> tuple[AttackReport | None, ScenarioResult]:
    target = run.cfg.mutation_target
    message_kind, field_name, expected_abort, expected_party = MUTATION_TARGETS[target]
    policy = AdversaryPolicy(mode="modify", target_kind=message_kind, target_field=field_name)
    run.victim_session(run.user_id, run.password, policy)
    abort = run.first_abort()
    expected = f"(expected {expected_abort} at {expected_party})"
    if abort:
        detail = f"{target}: abort {abort[1]} at {abort[0]} {expected}"
    else:
        detail = f"{target}: no abort {expected}"
    return None, ScenarioResult(expectations_met=abort == (expected_party, expected_abort), detail=detail)


_SCENARIOS = {
    "honest": _honest,
    "replay": _replay,
    "masquerade": _masquerade,
    "guess": _guess,
    "mutation": _mutation,
}
KINDS = tuple(_SCENARIOS)


def run_scenario(cfg: ScenarioConfig) -> Transcript:
    """Execute one scenario and return its transcript.

    All randomness derives from the scenario seed through per-actor labeled
    streams, so the same configuration always yields the same transcript.
    Protocol aborts are recorded in the transcript, never raised.
    """
    run = _Run(cfg)
    report, result = _SCENARIOS[cfg.kind](run)
    return Transcript(
        config=cfg,
        events=tuple(run.events),
        checks=tuple(run.checks),
        outcomes=tuple(run.outcomes),
        report=report,
        result=result,
    )


def verify_transcript(text: str) -> tuple[int, str]:
    """Check a transcript against a deterministic re-run of its scenario.

    Because every value in a run derives from the recorded configuration,
    re-executing the scenario re-derives every hash and XOR relation; the
    transcript is consistent exactly when the regenerated file matches byte
    for byte.  Returns (0, ...) when consistent, (1, ...) when any recorded
    value deviates, (2, ...) when the transcript cannot be parsed.
    """
    try:
        cfg = _decode_header(text.splitlines())
    except (TranscriptFormatError, ConfigError) as exc:
        return 2, f"malformed transcript: {exc}"
    regenerated = run_scenario(cfg).to_jsonl()
    if regenerated == text:
        return 0, "transcript consistent: matches deterministic re-run"
    return 1, "transcript inconsistent: differs from deterministic re-run"
