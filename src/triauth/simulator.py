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
from json.decoder import JSONDecodeError
from json.encoder import encode_basestring_ascii
from itertools import product
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
from .attacks import AdversaryKnowledge, AttackReport, guess_credentials
from .crypto import HASH_NAME, BlockRng, concat, h, split_concat

ARTIFACT_NAME = "triauth"
ARTIFACT_VERSION = "0.1.0"


# --- wire schema ---------------------------------------------------------

# A login message's wire fields are its actor record's fields in declaration
# order: M2 declares the four fields of the M1 it forwards first.
WIRE_MESSAGES = {cls.__name__: cls for cls in (M1, M2, M3, M4)}
WIRE_FIELDS = {kind: cls._fields for kind, cls in WIRE_MESSAGES.items()}


# --- login exchange ------------------------------------------------------

def _keyed(msg, state):
    return msg, state, state.session_key


# The login exchange in order; each message's sender is the previous one's
# receiver.  A row is (message kind, receiver, actor call, checks).  The actor
# call maps (run, each receiver's session state, message) to (next message,
# the receiver's new state, its session key or None).  Each check, in the
# order the actor makes them, is (name, actor error that fails it, where a
# flipped byte is first caught by it): a message name covers each of its wire
# fields, and a message.field entry overrides that for one field.  The M1
# fields that M2 forwards are caught where M1's own are.  t_i crosses the
# server unchecked inside M3 and is first verified by the card.
_STEPS = (
    ("M1", "server", lambda run, states, m1: (*server_forward(run.secrets, m1, run.rng_server), None), ()),
    ("M2", "cs", lambda run, states, m2: _keyed(*cs_authenticate(run.cs, m2, run.rng_cs)), (
        ("cs_verifies_server", ServerAuthFailed, ("M2",)),
        ("cs_verifies_user", UserAuthFailed, ("M1", *(f"M2.{name}" for name in M1._fields))),
    )),
    ("M3", "server", lambda run, states, m3: _keyed(*server_verify(run.secrets, states["server"], m3)), (
        ("server_verifies_cs", CSAuthFailed, ("M3",)),
    )),
    ("M4", "card", lambda run, states, m4: (None, None, card_verify(states["card"], m4)), (
        ("card_verifies_cs", CSAuthFailed, ("M4", "M3.t_i")),
    )),
)

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
    for kind, fields in WIRE_FIELDS.items()
    for name in fields
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


def checked(cls):
    """Pass every record cls builds, also by _replace and _make, through cls._checked: it returns the record to keep."""
    new = cls.__new__
    return _build_through(cls, lambda klass, *args, **kwargs: new(klass, *args, **kwargs)._checked())


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
        cfg, target, entries = self, self.mutation_target, self.dictionary
        if isinstance(target, str) and target != target.lower():
            target = target.lower()
        if entries is not None and (type(entries) is not tuple or set(map(type, entries)) != {tuple}):
            entries = tuple(tuple(e) if isinstance(e, list) else e for e in entries)
        if target is not self.mutation_target or entries is not self.dictionary:
            values = self._asdict() | {"mutation_target": target, "dictionary": entries}
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
                if not isinstance(entry, tuple) or len(entry) != 2:
                    raise ConfigError(f"bad dictionary entry: {entry!r}")
                ident, password = entry
                if not (isinstance(ident, str) and ident and isinstance(password, str) and password):
                    raise ConfigError(f"bad dictionary entry: {entry!r}")
                if not ((ident.isascii() and password.isascii()) or (_utf8_ok(ident) and _utf8_ok(password))):
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
    if type(msg) is not WIRE_MESSAGES.get(kind):
        raise ValueError(f"{type(msg).__name__} is not a wire message of kind {kind!r}")
    return concat(*msg)


def _wire_parts(kind: str, payload: bytes) -> list[bytes]:
    parts = split_concat(payload)
    if kind not in WIRE_FIELDS or len(parts) != len(WIRE_FIELDS[kind]):
        raise ValueError(f"payload is not a well-formed {kind}")
    return parts


def decode_message(kind: str, payload: bytes):
    return WIRE_MESSAGES[kind](*_wire_parts(kind, payload))


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
    """How one party's session ended: a derived key or an abort reason."""

    session: int
    party: str
    session_key: bytes | None = None
    abort: str | None = None


class ScenarioResult(NamedTuple):
    """Whether the run met the scenario's expectation, with a one-line reason."""

    expectations_met: bool
    detail: str


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


def _compile_line(codec, omit_none: bool):
    """The function that writes a record r of codec's class as the JSON text of its sorted "key":value pairs.

    It fills a template of those pairs with each field's converter inlined; like namedtuple's __new__, it
    is one eval of a generated lambda, compiled under the file name <Class.line>.  With omit_none, a None
    field's pair is left out with the comma that joins it to the first pair always written.
    """
    tag = codec.tag
    fields = {key: (f"r[{pos}]", types) for pos, (_, key, types) in enumerate(codec._spec)}
    if tag is not None:
        fields["record"] = (None, (str,))
    keys = sorted(fields)
    omitted = [omit_none and type(None) in fields[key][1] for key in keys]
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


def _compile_decode(codec):
    """The function that builds codec's record from a JSON object d, or raises through _reject.

    When d holds each required key and no unknown one, it builds the record and returns it if each
    field holds exactly its declared type.  A JSON object that is its class's keyword arguments, the
    config's, goes to the class, which normalizes and validates itself; any other record is built as
    a bare tuple of d's values, a bytes field hex-decoded.  Like namedtuple's __new__, it is one eval
    of a generated lambda, compiled under the file name <Class.read>.
    """
    defaults = codec.cls._field_defaults
    keys = {key: name in defaults for name, key, _ in codec._spec}  # key -> whether it may be absent
    if codec.tag is not None:
        keys["record"] = False
    values = []
    for pos, (name, key, types) in enumerate(codec._spec):
        value = f"d.get({key!r}, {defaults[name]!r})" if name in defaults else f"d[{key!r}]"
        if bytes in types:  # a None is left for the type check to report
            value = f"(None if (v{pos} := {value}) is None else _hex(v{pos}))"
        values.append(value)
    build = f"_new(_C, ({', '.join(values)},))"
    if codec.tag is None and all(key == name and bytes not in types for name, key, types in codec._spec):
        build = "_C(**d)"
    scope = {
        "_C": codec.cls, "_new": tuple.__new__, "_hex": bytes.fromhex, "_reject": _reject, "_codec": codec,
        "_K": frozenset(keys), "_R": frozenset(key for key, optional in keys.items() if not optional),
        "_T": frozenset(product(*(types for _, _, types in codec._spec))),  # each allowed tuple of field types
    }
    keyset = "_R <= d.keys() <= _K" if any(keys.values()) else "d.keys() == _K"
    source = f"lambda d: o if {keyset} and tuple(map(type, o := {build})) in _T else _reject(_codec, d)"
    return eval(compile(source, f"<{codec.cls.__name__}.read>", "eval"), scope)


def _reject(codec, record: dict):
    """Raise the error decoding record gives, the first of: a renamed field under its own name, a bad hex
    string, an unknown or missing key (in the class's own words) or a value the class rejects, then a
    field of another type."""
    kwargs = dict(record)
    if codec.tag is not None:
        del kwargs["record"]
    for name, key, types in codec._spec:
        if key != name:
            if name in kwargs:
                raise TypeError(f"unexpected key {name!r}")
            if key in kwargs:
                kwargs[name] = kwargs.pop(key)
        if bytes in types and kwargs.get(name) is not None:
            kwargs[name] = bytes.fromhex(kwargs[name])
    obj = codec.cls(**kwargs)
    name, types, value = next((name, types, value) for (name, _, types), value in zip(codec._spec, obj)
                              if type(value) not in types)
    raise TypeError(f"{name} must be {' or '.join(t.__name__ for t in types)}, not {type(value).__name__}")


class _Codec:
    """Writes one record class as a transcript line and reads it back from its JSON object.

    Bytes fields travel as lowercase hex, keys may be renamed, and a codec
    with omit_none leaves None fields out.  Decoding rejects a value whose
    class is not the field's declared type, so every decoded object can be
    written again by line().  Both are compiled from the field spec: line()
    when the codec is built, decode() when it is first called, so a process
    that reads no transcript compiles no reader.
    """

    def __init__(self, cls, tag: str | None = None, rename: dict | None = None, omit_none: bool = False):
        rename = rename or {}
        self.cls = cls
        self.tag = tag
        # (field name, JSON key, classes its value may have) of each field, in order
        self._spec = [(name, rename.get(name, name), _field_types(t)) for name, t in cls.__annotations__.items()]
        self.line = _compile_line(self, omit_none)

    def decode(self, record: dict):
        """Build the record from its JSON object; the first call compiles the reader, which replaces this method."""
        self.decode = _compile_decode(self)
        return self.decode(record)


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
_RANK = {tag: rank for rank, tag in enumerate(_BY_TAG)}  # the order in which to_jsonl writes records


def _loads(line: str, lineno: int) -> dict:
    """The JSON object on one line, read by the C scanner past any JSON whitespace; an error's position counts
    from the start of the line, as JSONDecoder.decode gives it."""
    try:
        try:
            record, end = _JSON_IN.scan_once(line, len(line) - len(line.lstrip(_JSON_SPACE)))
        except StopIteration as exc:
            raise JSONDecodeError("Expecting value", line, exc.value) from None
        if end != len(line) and line[end:].strip(_JSON_SPACE):
            raise JSONDecodeError("Extra data", line, len(line) - len(line[end:].lstrip(_JSON_SPACE)))
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
        if header.get(key) != expected:
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
        cfg = self.config
        lines = [_HEADER_LINE % (_CODECS[ScenarioConfig].line(cfg), encode_basestring_ascii(cfg.kind), cfg.seed)]
        lines += map(_CODECS[ChannelEvent].line, self.events)
        lines += map(_CODECS[CheckRecord].line, self.checks)
        lines += map(_CODECS[PartyOutcome].line, self.outcomes)
        if self.report is not None:
            lines.append(_CODECS[AttackReport].line(self.report))
        lines.append(_CODECS[ScenarioResult].line(self.result))
        return "\n".join(lines) + "\n"

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
        return _adversary_view(self.events)

    def session_keys(self, session: int) -> dict[str, bytes]:
        return {
            o.party: o.session_key
            for o in self.outcomes
            if o.session == session and o.session_key is not None
        }


# --- adversary channel hooks ---------------------------------------------

def _adversary_view(events) -> tuple[ChannelEvent, ...]:
    """Events the channel adversary tapped or injected; secure and untapped events have action "none"."""
    return tuple(e for e in events if e.action != "none")


def flip_byte(data: bytes, rng: BlockRng) -> bytes:
    """XOR one random byte of data with a random non-zero mask."""
    if not data:
        raise ValueError("cannot flip a byte of empty data")
    block = rng.next_block()
    pos = int.from_bytes(block[:4], "big") % len(data)
    mask = block[4] % 255 + 1
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]


def adversary_tap(event: ChannelEvent, field: str | None = None, rng: BlockRng | None = None) -> ChannelEvent:
    """The in-flight event as the adversary passes it on: observed, or with
    one byte of its wire field `field` flipped by rng and marked modified."""
    if event.channel != "open":
        raise ValueError("adversary cannot tap a secure channel")
    action, payload = "observed", event.payload
    if field is not None:
        parts = _wire_parts(event.kind, payload)
        pos = WIRE_FIELDS[event.kind].index(field)
        parts[pos] = flip_byte(parts[pos], rng)
        action, payload = "modified", concat(*parts)
    return ChannelEvent(event.step, event.session, event.sender, event.receiver, event.kind, "open", action, payload)


# --- scenario execution ---------------------------------------------------

def keys_agree(keys: dict) -> bool:
    """True when all three parties of one session hold the same key."""
    return len(keys) == 3 and len(set(keys.values())) == 1


class _Run:
    """One scenario run: its seeded streams and actors, and what it records.

    Building it registers the victim.  It holds the event log, checks and
    outcomes; exchange and victim_session append each record as it happens.
    The config fixes what the channel adversary does: a mutation run flips
    a byte of its target (message kind, field), and every other run only observes.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.target_kind = self.target_field = None
        if cfg.kind == "mutation":
            self.target_kind, self.target_field = MUTATION_TARGETS[cfg.mutation_target][:2]
        self.events: list[ChannelEvent] = []
        self.checks: list[CheckRecord] = []
        self.outcomes: list[PartyOutcome] = []
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

    def first_abort(self) -> tuple[str, str] | None:
        for outcome in self.outcomes:
            if outcome.abort is not None:
                return outcome.party, outcome.abort
        return None

    def register(self, party: str, user_id: bytes, password: bytes, rng: BlockRng) -> SmartCard:
        """Registration ceremony over the secure channel, recorded as two events."""
        b = rng.next_block()
        a_i = h(b, password)
        self.record_secure(0, party, "cs", "RegistrationRequest", concat(user_id, a_i))
        card = register_user(self.cs, user_id, a_i, b)
        # b never crosses the channel: the holder stores it after issuance.
        self.record_secure(0, "cs", party, "CardIssue", concat(card.c_i, card.d_i, card.e_i, card.h_y))
        return card

    def send(self, session: int, sender: str, receiver: str, kind: str, msg, injected: bool = False):
        """Put a message on an open channel; returns the message as delivered."""
        payload = encode_message(kind, msg)
        # Every event is logged exactly once, so its step is its index in the log.
        step = len(self.events)
        action = "injected" if injected else "none"
        event = ChannelEvent(step, session, sender, receiver, kind, "open", action, payload)
        if not injected and (self.cfg.tap_server_cs_link or {sender, receiver} != {"server", "cs"}):
            field = self.target_field if kind == self.target_kind else None
            event = adversary_tap(event, field, self.rng_adv)
        self.events.append(event)
        if event.action == "modified":
            msg = decode_message(kind, event.payload)
        return msg

    def exchange(
        self,
        session: int,
        m1: M1,
        card_session: CardSession | None,
        *,
        user_party: str = "card",
    ) -> dict[str, bytes]:
        """Drive one M1..M4 exchange through _STEPS, recording checks and outcomes as they happen.

        Returns the session key of each receiver in _STEPS that reached one.

        user_party holds the card and is "user" on the wire when it is the
        victim's card.  It sends M1, or the adversary does when there is no
        card session; an M1 that the user did not send is injected.  With no
        card session, M4 is sent and nobody checks it.
        """
        keys = {}
        states = self.states = {"card": card_session}
        sender = "user" if user_party == "card" else user_party
        if card_session is None:
            sender = "adversary"
        msg = m1
        for (kind, receiver, act, checks), aborts in zip(_STEPS, _STEP_ABORTS):
            party = user_party if receiver == "card" else receiver
            wire_receiver = "user" if party == "card" else party
            injected = kind == "M1" and sender != "user"
            msg = self.send(session, sender, wire_receiver, kind, msg, injected=injected)
            if receiver == "card" and card_session is None:
                return keys
            failed = None
            try:
                msg, states[receiver], key = act(self, states, msg)
            except aborts as exc:
                failed = type(exc)
            for name, abort, _ in checks:
                self.checks.append(CheckRecord(session, party, name, abort is not failed))
                if abort is failed:
                    self.outcomes.append(PartyOutcome(session, party, None, abort.__name__))
                    return keys
            if key is not None:
                self.outcomes.append(PartyOutcome(session, party, key))
                keys[receiver] = key
            sender = wire_receiver
        return keys

    def victim_session(self, user_id: bytes, password: bytes) -> dict[str, bytes]:
        """Session 1 from the victim's card; no keys if the card rejects the credentials."""
        try:
            m1, card_session = card_login(self.card, user_id, password, self.sid, self.rng_user)
        except LocalCheckFailed:
            self.checks.append(CheckRecord(1, "card", "card_local_check", False))
            return {}
        self.checks.append(CheckRecord(1, "card", "card_local_check", True))
        return self.exchange(1, m1, card_session)


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
    # Nothing in M1 binds it to a session, so the byte-exact copy passes again.
    captured = decode_message("M1", next(e.payload for e in run.events if e.kind == "M1"))
    keys = run.exchange(2, captured, None)
    accepted = "cs" in keys and "server" in keys
    knowledge = AdversaryKnowledge()
    for e in _adversary_view(run.events):
        knowledge.observe(e.payload, *_wire_parts(e.kind, e.payload))
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
    keys = run.exchange(1, m1, card_session, user_party="attacker")
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
            "user_id": guess.user_id.decode("utf-8", "replace"),
            "password": guess.password.decode("utf-8", "replace"),
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
    expected_abort, expected_party = MUTATION_TARGETS[target][2:]
    run.victim_session(run.user_id, run.password)
    abort = run.first_abort()
    expected = f"(expected {expected_abort} at {expected_party})"
    if abort:
        detail = f"{target}: abort {abort[1]} at {abort[0]} {expected}"
    else:
        detail = f"{target}: no abort {expected}"
    return ScenarioResult(abort == (expected_party, expected_abort), detail), None, None


# kind -> scenario; each returns its result and its attack's work and recovered values, or None, None.
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
    result, work, recovered = _SCENARIOS[cfg.kind](run)
    report = None if work is None else AttackReport(cfg.kind, result.expectations_met, work, recovered)
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
        # A raw \r cannot sit inside a JSON string, so it ends the header too,
        # and a CR or CRLF copy is re-run and found inconsistent.
        cfg = _decode_header(text.partition("\r")[0])
    except (TranscriptFormatError, ConfigError) as exc:
        return 2, f"malformed transcript: {exc}"
    regenerated = run_scenario(cfg).to_jsonl()
    if regenerated == text:
        return 0, "transcript consistent: matches deterministic re-run"
    return 1, "transcript inconsistent: differs from deterministic re-run"
