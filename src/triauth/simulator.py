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
from itertools import product
from operator import itemgetter
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
    _build_through,
    card_login,
    card_verify,
    cs_authenticate,
    register_server,
    register_user,
    server_forward,
    server_verify,
)
from .attacks import AdversaryKnowledge, guess_credentials
from .crypto import HASH_NAME, BlockRng, concat, h, split_concat

ARTIFACT_NAME = "triauth"
ARTIFACT_VERSION = "0.1.0"


# --- wire schema ---------------------------------------------------------

# A login message's wire fields are its actor record's fields in declaration
# order: M2 declares the four fields of the M1 it forwards first.
WIRE_MESSAGES = {cls.__name__: cls for cls in (M1, M2, M3, M4)}


# --- login exchange ------------------------------------------------------

# The login exchange in order; each message's sender is the previous one's
# receiver.  A row is (message kind, receiver, actor call, checks).  The actor
# call maps (run, each receiver's session state, message) to (next message,
# the receiver's new state).  A receiver with checks ends with its session key
# as its state, or, for CS, with a state that holds it.  Each check, in the
# order the actor makes them, is (name, actor error that fails it, where a
# flipped byte is first caught by it): a message name covers each of its wire
# fields, and a message.field entry overrides that for one field.  The M1
# fields that M2 forwards are caught where M1's own are.  t_i crosses the
# server unchecked inside M3 and is first verified by the card.
_STEPS = (
    ("M1", "server", lambda run, states, m1: server_forward(run.secrets, m1, run.rng_server), ()),
    ("M2", "cs", lambda run, states, m2: cs_authenticate(run.cs, m2, run.rng_cs), (
        ("cs_verifies_server", ServerAuthFailed, ("M2",)),
        ("cs_verifies_user", UserAuthFailed, ("M1", *(f"M2.{name}" for name in M1._fields))),
    )),
    ("M3", "server", lambda run, states, m3: server_verify(run.secrets, states["server"], m3), (
        ("server_verifies_cs", CSAuthFailed, ("M3",)),
    )),
    ("M4", "card", lambda run, states, m4: (None, card_verify(states["card"], m4)), (
        ("card_verifies_cs", CSAuthFailed, ("M4", "M3.t_i")),
    )),
)

# The login messages that cross the server-CS link, which a user-link-only tap leaves alone.
_SERVER_CS_KINDS = ("M2", "M3")

_STEP_ABORTS = tuple(tuple(abort for _, abort, _ in checks) for *_, checks in _STEPS)

# message or message.field -> (abort, party that aborts) for a flipped byte in it
_CAUGHT_BY = {
    owner: (abort.__name__, receiver)
    for _, receiver, _, checks in _STEPS
    for _, abort, catches in checks
    for owner in catches
}

# target -> (message kind, field, expected abort, party that aborts)
MUTATION_TARGETS = {
    f"{kind.lower()}.{name}": (kind, name, *_CAUGHT_BY.get(f"{kind}.{name}", _CAUGHT_BY[kind]))
    for kind, cls in WIRE_MESSAGES.items()
    for name in cls._fields
}


class ConfigError(ValueError):
    """Scenario configuration is malformed."""


class TranscriptFormatError(ValueError):
    """Transcript text cannot be parsed."""


class _Diverged(Exception):
    """A verifying run wrote a line that the transcript does not hold in its place."""


def _utf8_ok(value: str) -> bool:
    """Whether value can be encoded as UTF-8, that is, holds no lone surrogate."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def checked(cls):
    """Pass every record cls builds, also by _replace and _make, through cls.validate: it returns the record to keep."""
    new = cls.__new__
    return _build_through(cls, lambda klass, *args, **kwargs: new(klass, *args, **kwargs).validate())


@checked
class ScenarioConfig(NamedTuple):
    """Everything needed to reproduce one scenario run; stored as given and validated when built."""

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

    def validate(self) -> "ScenarioConfig":
        """Raise ConfigError for the first malformed field; return the config unchanged."""
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind: {self.kind!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed must be an integer")
        try:
            str(self.seed)  # BlockRng keys every stream by the seed's decimal text
        except ValueError:
            raise ConfigError("seed has too many digits to write in decimal") from None
        if not isinstance(self.tap_server_cs_link, bool):
            raise ConfigError("tap_server_cs_link must be a boolean")
        # Every kind reads the victim's fields; one that only some kinds read must keep its default elsewhere.
        for name in ("user_id", "password", "sid", *_READERS):
            value = getattr(self, name)
            if self.kind not in _READERS.get(name, KINDS):
                if value != self._field_defaults[name]:
                    raise ConfigError(f"{name} is only valid for {' or '.join(_READERS[name])} scenarios")
            elif name == "dictionary":
                if value is None:
                    raise ConfigError(f"{self.kind} scenario requires a dictionary")
                if type(value) is not tuple:
                    raise ConfigError(f"dictionary must be a tuple, not {type(value).__name__}")
                if not value:
                    raise ConfigError("dictionary is empty")
                for entry in value:
                    ident, password = entry if isinstance(entry, tuple) and len(entry) == 2 else (None, None)
                    if not (isinstance(ident, str) and ident and isinstance(password, str) and password):
                        raise ConfigError(f"bad dictionary entry: {entry!r}")
                    if not ((ident.isascii() and password.isascii()) or (_utf8_ok(ident) and _utf8_ok(password))):
                        raise ConfigError(f"dictionary entry is not valid UTF-8: {entry!r}")
            elif name == "mutation_target":
                if not isinstance(value, str) or value not in MUTATION_TARGETS:
                    raise ConfigError(f"unknown mutation target: {value!r}")
                if MUTATION_TARGETS[value][0] in _SERVER_CS_KINDS and not self.tap_server_cs_link:
                    raise ConfigError(f"{value} is not on a tapped link")
            elif not isinstance(value, str) or not value:
                raise ConfigError(f"{name} must be a non-empty string")
            elif not (value.isascii() or _utf8_ok(value)):
                raise ConfigError(f"{name} is not valid UTF-8: {value!r}")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build a config from its JSON object, its arrays read as tuples, checked by its constructor alone."""
        if not isinstance(data, dict):
            raise ConfigError("config must be an object")
        if type(entries := data.get("dictionary")) is list:
            data = data | {"dictionary": tuple(tuple(e) if type(e) is list else e for e in entries)}
        try:
            # By position when every field is given, as in every header a run writes; the keywords raise
            # the class's own error for any other key set.
            return cls(*_CONFIG_VALUES(data)) if data.keys() == _CONFIG_KEYS else cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc


_CONFIG_KEYS = frozenset(ScenarioConfig._fields)
_CONFIG_VALUES = itemgetter(*ScenarioConfig._fields)


# --- wire encoding -------------------------------------------------------

def encode_message(kind: str, msg) -> bytes:
    if type(msg) is not WIRE_MESSAGES.get(kind):
        raise ValueError(f"{type(msg).__name__} is not a wire message of kind {kind!r}")
    return concat(*msg)


def decode_message(kind: str, payload: bytes):
    parts = split_concat(payload)
    if kind not in WIRE_MESSAGES or len(parts) != len(WIRE_MESSAGES[kind]._fields):
        raise ValueError(f"payload is not a well-formed {kind}")
    return WIRE_MESSAGES[kind](*parts)


# --- transcript records --------------------------------------------------

class ChannelEvent(NamedTuple):
    """One message crossing a channel, with the adversary's action on it."""

    step: int
    session: int
    sender: str
    receiver: str
    kind: str
    channel: str  # "secure" | "open"
    action: str   # "none" | "observed" | "injected" | "modified"
    payload: bytes


class CheckRecord(NamedTuple):
    """One verification performed by one party."""

    session: int
    party: str
    check: str
    ok: bool


class PartyOutcome(NamedTuple):
    """How one party's session ended: its session key sk or an abort reason."""

    session: int
    party: str
    sk: bytes | None = None
    abort: str | None = None


class ScenarioResult(NamedTuple):
    """Whether the run met the scenario's expectation, with a one-line reason."""

    expectations_met: bool
    detail: str


class AttackReport(NamedTuple):
    """Machine-checked outcome of one attack scenario."""

    name: str
    success: bool
    work: int
    recovered: dict


# No record or header contains itself, so the encoder skips the cycle check it makes per container.
_JSON_OUT = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_JSON_IN = json.JSONDecoder()
_JSON_SPACE = " \t\n\r"

# Python source for the JSON text _JSON_OUT writes for a value {} of each declared field
# type, a bytes field as a lowercase hex string; any other class, such as dict, goes through _JSON_OUT.
_TO_JSON = {str: "_str({})", int: "_int({})", bool: "('true' if {} else 'false')", bytes: "'\"' + {}.hex() + '\"'"}
_LINE_GLOBALS = {"_str": encode_basestring_ascii, "_int": int.__repr__, "_json": _JSON_OUT.encode}


def _field_types(field_type) -> tuple:
    """The classes a field's value may have: its declared type, or each member of an optional one."""
    members = get_args(field_type) if type(None) in get_args(field_type) else (field_type,)
    return tuple(get_origin(member) or member for member in members)


def _compile_line(codec):
    """The function that writes a record r of codec's class as the JSON text of its sorted "key":value pairs.

    It fills a template of those pairs with each field's converter inlined; like namedtuple's __new__, it
    is one eval of a generated lambda, compiled under the file name <Class.line>.  A tagged record leaves
    a None field's pair out with the comma that joins it to the first pair always written.
    """
    tag = codec.tag
    fields = {name: (f"r[{pos}]", types) for pos, (name, types) in enumerate(codec._spec)}
    if tag is not None:
        fields["record"] = (None, (str,))
    keys = sorted(fields)
    omitted = [tag is not None and type(None) in fields[key][1] for key in keys]
    first = omitted.index(False)
    parts, values = ["{"], []  # the template's text between its %s slots, and each slot's value
    for i, key in enumerate(keys):
        value, types = fields[key]
        pair = "," * (i > first) + encode_basestring_ascii(key) + ":"
        if value is None:
            parts[-1] += pair + encode_basestring_ascii(tag)
            continue
        write = _TO_JSON.get(next(t for t in types if t is not type(None)), "_json({})").format(value)
        if omitted[i]:
            after = " + ','" if i < first else ""
            values.append(f"('' if {value} is None else {pair!r} + {write}{after})")
        else:
            parts[-1] += pair
            values.append(f"('null' if {value} is None else {write})" if type(None) in types else write)
        parts.append("")
    template = "%s".join(part.replace("%", "%%") for part in parts) + "}"
    source = f"lambda r: {template!r} % ({', '.join(values)},)"
    return eval(compile(source, f"<{codec.cls.__name__}.line>", "eval"), _LINE_GLOBALS)


class _Codec:
    """Writes one record class as a transcript line and reads it back from its JSON object.

    Its JSON keys are the class's field names, and a record with a tag adds
    it under "record".  Bytes fields travel as lowercase hex.  A tagged
    record's line leaves out each None field; the config, which the header
    holds untagged, writes null and is read by ScenarioConfig.from_dict.
    decode() rejects a value whose class is not the field's declared type,
    so every decoded object can be written again by line().  line() is
    compiled from the field spec when the codec is built; decode() builds
    the record by position when its JSON object holds every field.
    """

    def __init__(self, cls, tag: str | None = None):
        self.cls = cls
        self.tag = tag
        self._spec = [(name, _field_types(t)) for name, t in cls.__annotations__.items()]  # (name, classes) in order
        self._hex = [name for name, types in self._spec if bytes in types]
        self._hex_at = [cls._fields.index(name) for name in self._hex]
        self._allowed = frozenset(product(*(types for _, types in self._spec)))  # each allowed tuple of field classes
        # A record whose line holds every field is built by position: the JSON scanner makes fresh key strings,
        # which a keyword call must match to the parameter names by comparing their text.
        self._keys = frozenset({*cls._fields, "record"})
        self._values = itemgetter(*cls._fields)
        self.line = _compile_line(self)

    def decode(self, record: dict):
        """Build the tagged record from its JSON object.  Raises the first of: a bad hex string, an unknown or
        missing key (in the class's own words) or a value the class rejects, then a field of another class."""
        if record.keys() == self._keys:
            values = [*self._values(record)]
            for i in self._hex_at:
                if values[i] is not None:
                    values[i] = bytes.fromhex(values[i])
            obj = self.cls(*values)
        else:  # an outcome's line, which leaves out its None field, or a key set the class rejects in its own words
            kwargs = dict(record)
            del kwargs["record"]
            for name in self._hex:
                if kwargs.get(name) is not None:
                    kwargs[name] = bytes.fromhex(kwargs[name])
            obj = self.cls(**kwargs)
        if tuple(map(type, obj)) not in self._allowed:
            name, types, value = next((name, types, value) for (name, types), value in zip(self._spec, obj)
                                      if type(value) not in types)
            raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in types)}, not {type(value).__name__}")
        return obj


_CODECS = {
    codec.cls: codec
    for codec in (
        _Codec(ScenarioConfig),
        _Codec(ChannelEvent, "event"),
        _Codec(CheckRecord, "check"),
        _Codec(PartyOutcome, "outcome"),
        _Codec(AttackReport, "report"),
        _Codec(ScenarioResult, "result"),
    )
}
_BY_TAG = {codec.tag: codec for codec in _CODECS.values() if codec.tag is not None}
_RANK = {tag: rank for rank, tag in enumerate(_BY_TAG)}  # the order in which to_jsonl writes records


def _loads(line: str, lineno: int) -> dict:
    """The JSON object on one line, past any JSON whitespace around it."""
    try:  # the line every record writes: an object from the first character to the last
        record, end = _JSON_IN.scan_once(line, 0)
        if end == len(line) and type(record) is dict:
            return record
    except (StopIteration, ValueError):  # no JSON value at the first character, or a bad one: decode reports it
        pass
    try:
        record = _JSON_IN.decode(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past the int-string digit limit
        raise TranscriptFormatError(f"line {lineno} is not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise TranscriptFormatError(f"line {lineno} is not a JSON object")
    return record


# The header fields every run writes alike; _decode_header checks them in this order.
_HEADER_FIXED = {"artifact": ARTIFACT_NAME, "version": ARTIFACT_VERSION, "hash": HASH_NAME}
# Each header key's JSON value; the config's line, the scenario kind and the seed fill the slots.
_HEADER_VALUES = {
    **{key: encode_basestring_ascii(value) for key, value in _HEADER_FIXED.items()},
    "config": "%s", "record": '"header"', "scenario": "%s", "seed": "%d"}
_HEADER_LINE = "{%s}" % ",".join(f"{encode_basestring_ascii(k)}:{v}" for k, v in sorted(_HEADER_VALUES.items()))
_EVENT_LINE = _CODECS[ChannelEvent].line


def _header_line(cfg: ScenarioConfig) -> str:
    return _HEADER_LINE % (_CODECS[ScenarioConfig].line(cfg), encode_basestring_ascii(cfg.kind), cfg.seed)


def _decode_header(text: str) -> ScenarioConfig:
    """The run a transcript's header, its first line, names; raises ConfigError or TranscriptFormatError.

    Every header field must be exactly what a fresh run of that config writes,
    and no other key may appear, so a damaged header is reported, never re-run
    as another scenario.
    """
    line = text.partition("\n")[0]
    if not line.strip(_JSON_SPACE):
        raise TranscriptFormatError("empty transcript")
    header = _loads(line, 1)
    if header.get("record") != "header":
        raise TranscriptFormatError("first record must be the header")
    if "config" not in header:
        raise TranscriptFormatError("header lacks a config")
    if unknown := header.keys() - _HEADER_VALUES:
        raise TranscriptFormatError(f"unknown header key: {min(unknown)!r}")
    cfg = ScenarioConfig.from_dict(header["config"])
    for key, expected in {**_HEADER_FIXED, "scenario": cfg.kind, "seed": cfg.seed}.items():
        # compared by class too: JSON true and 1.0 equal 1 in Python
        if type(header.get(key)) is not type(expected) or header[key] != expected:
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
        return "\n".join([_header_line(self.config), *map(_EVENT_LINE, self.events), *self._closing_lines()])

    def _closing_lines(self) -> list[str]:
        """The lines after the events: the checks, the outcomes, any report, the result, then "" for the final \\n."""
        lines = [*map(_CODECS[CheckRecord].line, self.checks), *map(_CODECS[PartyOutcome].line, self.outcomes)]
        lines += [] if self.report is None else [_CODECS[AttackReport].line(self.report)]
        return lines + [_CODECS[ScenarioResult].line(self.result), ""]

    @classmethod
    def from_jsonl(cls, text: str) -> "Transcript":
        r"""Decode a transcript with its records in to_jsonl's order, the header on line 1.  Only \n ends a
        line, so a raw U+2028 stays inside its string; a line of JSON whitespace is skipped, and a CRLF copy
        decodes like the original, because \r is JSON whitespace."""
        found = {tag: [] for tag in _BY_TAG}
        last = None
        lineno = 1
        try:
            config = _decode_header(text)
            for lineno, line in enumerate(text.split("\n")[1:], 2):
                if not line.strip(_JSON_SPACE):
                    continue
                record = _loads(line, lineno)
                tag = record.get("record")
                if tag not in _BY_TAG:
                    raise TranscriptFormatError(f"line {lineno}: unknown record type: {tag!r}")
                # events, checks, outcomes, at most one report, then the one result
                if last is not None and (_RANK[tag] < _RANK[last] or tag == last in ("report", "result")):
                    raise TranscriptFormatError(f"line {lineno}: {tag} record after the {last} record")
                found[tag].append(_BY_TAG[tag].decode(record))
                last = tag
        except TranscriptFormatError:
            raise
        except (TypeError, ValueError) as exc:
            raise TranscriptFormatError(f"line {lineno}: bad record: {exc}") from exc
        if last != "result":
            raise TranscriptFormatError("missing result record")
        return cls(
            config=config,
            events=tuple(found["event"]),
            checks=tuple(found["check"]),
            outcomes=tuple(found["outcome"]),
            report=found["report"][0] if found["report"] else None,
            result=found["result"][0],
        )

    def adversary_view(self) -> tuple[ChannelEvent, ...]:
        """Events the channel adversary tapped or injected; secure and untapped events have action "none"."""
        return tuple(e for e in self.events if e.action != "none")

    def session_keys(self, session: int) -> dict[str, bytes]:
        return {
            o.party: o.sk
            for o in self.outcomes
            if o.session == session and o.sk is not None
        }


# --- adversary channel hooks ---------------------------------------------

def flip_byte(data: bytes, rng: BlockRng) -> bytes:
    """XOR one random byte of data with a random non-zero mask."""
    if not data:
        raise ValueError("cannot flip a byte of empty data")
    block = rng.next_block()
    pos = int.from_bytes(block[:4], "big") % len(data)
    mask = block[4] % 255 + 1
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def adversary_tap(msg, field: str | None = None, rng: BlockRng | None = None):
    """The in-flight message as the adversary passes it on, with its action:
    ("observed", msg), or ("modified", msg with one byte of its field `field` flipped by rng)."""
    if field is None:
        return "observed", msg
    return "modified", msg._replace(**{field: flip_byte(getattr(msg, field), rng)})


# --- scenario execution ---------------------------------------------------

def keys_agree(keys: dict) -> bool:
    """True when all three parties of one session hold the same key."""
    return len(keys) == 3 and len(set(keys.values())) == 1


class _Run:
    """One scenario run: its seeded streams and actors, and what it records.

    Building it registers the victim.  It holds the event log, checks and
    outcomes; exchange and victim_session append each record as it happens,
    and view holds (payload, delivered message) of each event the adversary tapped or injected.
    What the channel adversary does to a message is the move its scenario passes for it, if any.
    A verifying run is given expected, an iterator over its transcript's lines from the first event
    on, and logging an event whose line does not come next there raises _Diverged.
    """

    def __init__(self, cfg: ScenarioConfig, expected=None):
        self.cfg = cfg
        self.expected = expected
        self.events: list[ChannelEvent] = []
        self.checks: list[CheckRecord] = []
        self.outcomes: list[PartyOutcome] = []
        self.view: list[tuple[bytes, tuple]] = []
        self.rng_cs, self.rng_user, self.rng_server, self.rng_attacker, self.rng_adv = (
            BlockRng(cfg.seed, label) for label in ("cs", "user", "server", "attacker", "adversary")
        )
        self.user_id = cfg.user_id.encode("utf-8")
        self.password = cfg.password.encode("utf-8")
        self.sid = cfg.sid.encode("utf-8")
        self.cs = ControlServer.generate(self.rng_cs)
        self.secrets = register_server(self.cs, self.sid)
        self.card = self.register("user", self.user_id, self.password, self.rng_user)

    def log(self, session: int, sender: str, receiver: str, kind: str, channel: str, action: str, payload: bytes):
        """Append one event; every event is logged exactly once, so its step is its index in the log."""
        event = ChannelEvent(len(self.events), session, sender, receiver, kind, channel, action, payload)
        self.events.append(event)
        if self.expected is not None and _EVENT_LINE(event) != next(self.expected, None):
            raise _Diverged

    def first_abort(self) -> tuple[str, str] | None:
        for outcome in self.outcomes:
            if outcome.abort is not None:
                return outcome.party, outcome.abort
        return None

    def register(self, party: str, user_id: bytes, password: bytes, rng: BlockRng) -> SmartCard:
        """Registration ceremony over the secure channel, recorded as two events."""
        b = rng.next_block()
        a_i = h(b, password)
        self.log(0, party, "cs", "RegistrationRequest", "secure", "none", concat(user_id, a_i))
        card = register_user(self.cs, user_id, a_i, b)
        # b never crosses the channel: the holder stores it after issuance.
        self.log(0, "cs", party, "CardIssue", "secure", "none", concat(card.c_i, card.d_i, card.e_i, card.h_y))
        return card

    def send(self, session: int, sender: str, receiver: str, kind: str, msg, move=None):
        """Put a message on an open channel; returns the message as delivered.  The adversary's move
        ("injected", sender, record) puts record on the wire from sender in the message's place, and
        ("modified", field) flips one byte of its field; with no move, a tapped message is observed."""
        match move:
            case ("injected", sender, msg):
                action = "injected"
            case ("modified", field):
                action, msg = adversary_tap(msg, field, self.rng_adv)
            case None if self.cfg.tap_server_cs_link or kind not in _SERVER_CS_KINDS:
                action, msg = adversary_tap(msg)
            case None:
                action = "none"
        payload = encode_message(kind, msg)
        self.log(session, sender, receiver, kind, "open", action, payload)
        if action != "none":
            self.view.append((payload, msg))
        return msg

    def exchange(self, session: int, m1: M1 | None, card_session: CardSession | None, moves: dict | None = None,
                 *, user_party: str = "card") -> dict[str, bytes]:
        """Drive one M1..M4 exchange through _STEPS, recording checks and outcomes as they happen.

        Returns the session key of each receiver in _STEPS that reached one.

        moves maps a message kind to the adversary's move on it (see send); the
        user sends M1 unless its move injects another.  user_party holds the
        card and is "user" on the wire when it is the victim's card.  With no
        card session, M4 is sent and nobody checks it.
        """
        keys = {}
        states = self.states = {"card": card_session}
        sender = "user"
        msg = m1
        for (kind, receiver, act, checks), aborts in zip(_STEPS, _STEP_ABORTS):
            party = user_party if receiver == "card" else receiver
            wire_receiver = "user" if party == "card" else party
            msg = self.send(session, sender, wire_receiver, kind, msg, (moves or {}).get(kind))
            if receiver == "card" and card_session is None:
                return keys
            failed = None
            try:
                msg, states[receiver] = act(self, states, msg)
            except aborts as exc:
                failed = type(exc)
            for name, abort, _ in checks:
                self.checks.append(CheckRecord(session, party, name, abort is not failed))
                if abort is failed:
                    self.outcomes.append(PartyOutcome(session, party, None, abort.__name__))
                    return keys
            if checks:
                key = getattr(states[receiver], "session_key", states[receiver])
                self.outcomes.append(PartyOutcome(session, party, key))
                keys[receiver] = key
            sender = wire_receiver
        return keys

    def victim_session(self, user_id: bytes, password: bytes, moves: dict | None = None) -> dict[str, bytes]:
        """Session 1 from the victim's card, with the adversary's moves; no keys if the card rejects the credentials."""
        try:
            m1, card_session = card_login(self.card, user_id, password, self.sid, self.rng_user)
        except LocalCheckFailed:
            self.checks.append(CheckRecord(1, "card", "card_local_check", False))
            return {}
        self.checks.append(CheckRecord(1, "card", "card_local_check", True))
        return self.exchange(1, m1, card_session, moves)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _honest(run: _Run) -> tuple[ScenarioResult, int | None, dict | None]:
    agree = keys_agree(run.victim_session(run.user_id, run.password))
    abort = run.first_abort()
    detail = "session keys agree" if agree else (
        f"abort {abort[1]} at {abort[0]}" if abort else "session keys disagree"
    )
    return ScenarioResult(agree, detail), None, None


def _replay(run: _Run) -> tuple[ScenarioResult, int | None, dict | None]:
    run.victim_session(run.user_id, run.password)
    # Nothing in M1 binds it to a session, so the observed record, sent again byte for byte, passes again.
    captured = next(msg for _, msg in run.view if type(msg) is M1)
    keys = run.exchange(2, None, None, {"M1": ("injected", "adversary", captured)})
    accepted = "cs" in keys and "server" in keys
    knowledge = AdversaryKnowledge()
    knowledge.observe(*[value for payload, msg in run.view for value in (payload, *msg)])
    # CS's session-2 key is h(h_ab || nonce_xor); knows() reads that preimage.
    knows_sk = "cs" in keys and knowledge.knows(keys["cs"], concat(run.states["cs"].h_ab, run.states["cs"].nonce_xor))
    detail = (
        f"replayed M1 accepted by CS and server: {_yes(accepted)}; "
        f"adversary knows session key: {_yes(knows_sk)}"
    )
    return ScenarioResult(accepted, detail), 1, {"adversary_knows_session_key": _yes(knows_sk)}


def _masquerade(run: _Run) -> tuple[ScenarioResult, int | None, dict | None]:
    # The attacker's own card and credentials build an M1 that the control
    # server cannot tell apart from any other user's login.
    attacker_id = run.cfg.attacker_id.encode("utf-8")
    attacker_password = run.cfg.attacker_password.encode("utf-8")
    card = run.register("attacker", attacker_id, attacker_password, run.rng_attacker)
    m1, card_session = card_login(card, attacker_id, attacker_password, run.sid, run.rng_attacker)
    keys = run.exchange(1, m1, card_session, {"M1": ("injected", "attacker", m1)}, user_party="attacker")
    agree = keys_agree(keys)
    detail = (
        f"forged M1 accepted by CS: {_yes('cs' in keys)}; "
        f"attacker, server, and CS share one key: {_yes(agree)}"
    )
    return ScenarioResult(agree, detail), 1, {"shared_session_key": _yes(agree)}


def _guess(run: _Run) -> tuple[ScenarioResult, int | None, dict | None]:
    guess = guess_credentials(run.card, run.cfg.dictionary)
    success = guess.found and keys_agree(run.victim_session(guess.user_id, guess.password))
    recovered = {}
    if guess.found:
        recovered = {
            "user_id": guess.user_id.decode("utf-8"),
            "password": guess.password.decode("utf-8"),
        }
    if success:
        detail = f"credentials recovered after {guess.evaluations} evaluations"
    elif guess.found:
        detail = f"recovered credentials failed login validation ({guess.evaluations} evaluations)"
    else:
        detail = f"credentials not in dictionary ({guess.evaluations} evaluations)"
    return ScenarioResult(success, detail), guess.evaluations, recovered


def _mutation(run: _Run) -> tuple[ScenarioResult, int | None, dict | None]:
    target = run.cfg.mutation_target
    kind, field, expected_abort, expected_party = MUTATION_TARGETS[target]
    run.victim_session(run.user_id, run.password, {kind: ("modified", field)})
    abort = run.first_abort()
    expected = f"(expected {expected_abort} at {expected_party})"
    if abort:
        detail = f"{target}: abort {abort[1]} at {abort[0]} {expected}"
    else:
        detail = f"{target}: no abort {expected}"
    return ScenarioResult(abort == (expected_party, expected_abort), detail), None, None


# kind -> (scenario, the config fields it reads beyond kind, seed, the victim's credentials, sid and tap).
# Each scenario returns its result and its attack's work and recovered values, or None, None.
_SCENARIOS = {
    "honest": (_honest, ()),
    "replay": (_replay, ()),
    "masquerade": (_masquerade, ("attacker_id", "attacker_password")),
    "guess": (_guess, ("dictionary",)),
    "mutation": (_mutation, ("mutation_target",)),
}
KINDS = tuple(_SCENARIOS)
# config field that only some kinds read -> those kinds
_READERS = {name: tuple(kind for kind in KINDS if name in _SCENARIOS[kind][1])
            for _, names in _SCENARIOS.values() for name in names}


def run_scenario(cfg: ScenarioConfig) -> Transcript:
    """Execute one scenario and return its transcript.

    All randomness derives from the scenario seed through per-actor labeled
    streams, so the same configuration always yields the same transcript.
    Protocol aborts are recorded in the transcript, never raised.
    """
    return _play(_Run(cfg))


def _play(run: _Run) -> Transcript:
    result, work, recovered = _SCENARIOS[run.cfg.kind][0](run)
    report = None if work is None else AttackReport(run.cfg.kind, result.expectations_met, work, recovered)
    return Transcript(
        config=run.cfg,
        events=tuple(run.events),
        checks=tuple(run.checks),
        outcomes=tuple(run.outcomes),
        report=report,
        result=result,
    )


def verify_transcript(text: str) -> tuple[int, str]:
    r"""Check a transcript against a deterministic re-run of its scenario.

    Every value in a run derives from the recorded configuration, so the re-run
    re-derives every hash and XOR relation.  Lines, split on \n alone, are compared
    in to_jsonl's order as the re-run writes them; the first that differs stops the
    check, with the status a whole-file compare gives: (0, ...) when consistent,
    (1, ...) when any recorded value deviates, (2, ...) when the transcript cannot be parsed.
    """
    lines = text.split("\n")
    try:
        # A raw \r cannot sit inside a JSON string, so it ends the header too; a CRLF copy's line 1 then differs.
        cfg = _decode_header(lines[0].partition("\r")[0])
    except (TranscriptFormatError, ConfigError) as exc:
        return 2, f"malformed transcript: {exc}"
    expected = iter(lines)
    try:
        if next(expected) != _header_line(cfg) or _play(_Run(cfg, expected))._closing_lines() != [*expected]:
            raise _Diverged
    except _Diverged:
        return 1, "transcript inconsistent: differs from deterministic re-run"
    return 0, "transcript consistent: matches deterministic re-run"
