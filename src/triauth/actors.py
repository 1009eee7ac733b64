"""Honest protocol participants: cardholder, service server, control server.

Registration provisions a smart card from the control server's master
secrets.  Login and authentication then run a four-message hash-and-XOR
exchange (M1 card->server, M2 server->CS, M3 CS->server, M4 server->card)
after which all three parties hold the same session key.
"""

from typing import NamedTuple

from .crypto import DIGEST_LEN, BlockRng, h, xor


class ProtocolError(Exception):
    """A verification check failed and the session stops."""


class LocalCheckFailed(ProtocolError):
    """The smart card rejected the entered identity/password."""


class ServerAuthFailed(ProtocolError):
    """The control server rejected the service server's proof."""


class UserAuthFailed(ProtocolError):
    """The control server rejected the login message."""


class CSAuthFailed(ProtocolError):
    """The control server's response failed verification downstream."""


def _digests(cls) -> list[str]:
    """The fields of a digest record that must each hold a digest: every field but sid."""
    return [name for name in cls._fields if name != "sid"]


def _reject_fields(cls, values: tuple):
    """Raise for the first field a digest record cannot hold: an empty sid, then a digest of another length."""
    fields = dict(zip(cls._fields, values))
    if not fields.get("sid", True):
        raise ValueError("sid must be non-empty")
    for name in _digests(cls):
        if len(fields[name]) != DIGEST_LEN:
            raise ValueError(f"{name} must be {DIGEST_LEN} bytes, got {len(fields[name])}")


def _build_through(cls, new):
    """Make new cls's __new__, and build through it in _make, which _replace calls and which skips __new__."""
    make = cls._make.__func__
    cls.__new__ = staticmethod(new)
    cls._make = classmethod(lambda klass, iterable: klass(*make(klass, iterable)))
    return cls


def _digest_record(cls):
    """Give cls a __new__ that takes its fields by position or keyword and checks them as it builds the record.

    A sid must be non-empty and every other field a digest.  Like namedtuple's own __new__, the new
    one is one eval of a generated lambda, compiled under the file name <Class.__new__>; it builds the values'
    tuple first, so both branches use it, and names it _t, which no field name can shadow.
    """
    fields = ", ".join(cls._fields)
    test = " == ".join([str(DIGEST_LEN), *(f"len({name})" for name in _digests(cls))])
    if "sid" in cls._fields:
        test = f"sid and {test}"
    source = f"lambda _cls, {fields}: _new(_cls, _t) if (_t := ({fields},)) and {test} else _reject(_cls, _t)"
    new = eval(compile(source, f"<{cls.__name__}.__new__>", "eval"), {"_new": tuple.__new__, "_reject": _reject_fields})
    new.__name__, new.__qualname__ = "__new__", f"{cls.__name__}.__new__"
    return _build_through(cls, new)


@_digest_record
class ControlServer(NamedTuple):
    """Registration authority; its master secrets x and y never leave it."""

    x: bytes
    y: bytes

    @classmethod
    def generate(cls, rng: BlockRng) -> "ControlServer":
        return cls(x=rng.next_block(), y=rng.next_block())

    @property
    def h_y(self) -> bytes:
        return h(self.y)


@_digest_record
class ServerSecrets(NamedTuple):
    """Per-server provisioning: the two derived keys shared with one server."""

    sid: bytes
    k_sid_y: bytes  # h(sid || y)
    k_x_y: bytes    # h(x || y)


@_digest_record
class SmartCard(NamedTuple):
    """Values stored on an issued card, plus the holder's random b."""

    c_i: bytes
    d_i: bytes
    e_i: bytes
    h_y: bytes
    b: bytes


@_digest_record
class M1(NamedTuple):
    """Login request from the card to the service server."""

    f_i: bytes
    g_i: bytes
    p_ij: bytes
    cid_i: bytes


@_digest_record
class M2(NamedTuple):
    """The forwarded M1's four fields, then the server's own proof, sent to the control server."""

    f_i: bytes
    g_i: bytes
    p_ij: bytes
    cid_i: bytes
    sid: bytes
    k_i: bytes
    m_i: bytes


@_digest_record
class M3(NamedTuple):
    """Control server's response to the service server."""

    q_i: bytes
    r_i: bytes
    v_i: bytes
    t_i: bytes


@_digest_record
class M4(NamedTuple):
    """Final confirmation forwarded from the server to the card."""

    v_i: bytes
    t_i: bytes


class CardSession(NamedTuple):
    """Card-side state kept between sending M1 and checking M4."""

    a_i: bytes
    b_i: bytes
    n_i1: bytes


class CsSession(NamedTuple):
    """Everything the control server derived while authenticating one login."""

    a_i: bytes
    b_i: bytes
    n_i1: bytes
    n_i2: bytes
    n_i3: bytes
    h_ab: bytes
    nonce_xor: bytes
    session_key: bytes


def register_server(cs: ControlServer, sid: bytes) -> ServerSecrets:
    """Provision a service server: derive its two shared keys from sid.

    The control server keeps no per-server record; both keys are
    re-derivable from its master secrets.
    """
    return ServerSecrets(sid=sid, k_sid_y=h(sid, cs.y), k_x_y=h(cs.x, cs.y))


def register_user(cs: ControlServer, user_id: bytes, a_i: bytes, b: bytes) -> SmartCard:
    """Issue a smart card for (user_id, a_i) and store the holder's b on it.

    Only user_id and the blinded verifier a_i = h(b || password) are inputs
    to the card values; b itself is written by the holder after issuance and
    never crosses the registration channel.
    """
    if not user_id:
        raise ValueError("user_id must be non-empty")
    b_i = h(user_id, cs.x)
    return SmartCard(
        c_i=h(user_id, cs.h_y, a_i),
        d_i=xor(b_i, h(user_id, a_i)),
        e_i=xor(b_i, h(cs.y, cs.x)),
        h_y=cs.h_y,
        b=b,
    )


def card_login(
    card: SmartCard, user_id: bytes, password: bytes, sid: bytes, rng: BlockRng
) -> tuple[M1, CardSession]:
    """Local password check, then build the login request M1 for sid.

    Raises LocalCheckFailed if (user_id, password) does not match the card's
    stored check value; nothing is sent in that case.
    """
    a_i = h(card.b, password)
    if h(user_id, card.h_y, a_i) != card.c_i:
        raise LocalCheckFailed("identity/password rejected by card")
    n_i1 = rng.next_block()
    b_i = xor(card.d_i, h(user_id, a_i))
    f_i = xor(card.h_y, n_i1)
    p_ij = xor(card.e_i, h(card.h_y, n_i1, sid))
    cid_i = xor(a_i, h(b_i, f_i, n_i1))
    g_i = h(b_i, a_i, n_i1)
    return M1(f_i=f_i, g_i=g_i, p_ij=p_ij, cid_i=cid_i), CardSession(a_i=a_i, b_i=b_i, n_i1=n_i1)


def server_forward(secrets: ServerSecrets, m1: M1, rng: BlockRng) -> tuple[M2, bytes]:
    """Forward a received M1's fields with the server's own masked nonce and proof; return M2 and the nonce n_i2.

    The server performs no check on M1; it cannot, since every M1 field is
    masked with values only the card and the control server know.
    """
    n_i2 = rng.next_block()
    k_i = xor(secrets.k_sid_y, n_i2)
    m_i = h(secrets.k_x_y, n_i2)
    return M2(*m1, secrets.sid, k_i, m_i), n_i2


def cs_authenticate(cs: ControlServer, m2: M2, rng: BlockRng) -> tuple[M3, CsSession]:
    """Verify server and user, then build M3 and derive the session key.

    Raises ServerAuthFailed if the server proof m_i does not check out,
    UserAuthFailed if the recovered login values do not satisfy g_i.
    """
    n_i2 = xor(h(m2.sid, cs.y), m2.k_i)
    if h(h(cs.x, cs.y), n_i2) != m2.m_i:
        raise ServerAuthFailed("server proof mismatch")
    h_y = cs.h_y
    n_i1 = xor(h_y, m2.f_i)
    b_i = xor(xor(m2.p_ij, h(h_y, n_i1, m2.sid)), h(cs.y, cs.x))
    a_i = xor(m2.cid_i, h(b_i, m2.f_i, n_i1))
    if h(b_i, a_i, n_i1) != m2.g_i:
        raise UserAuthFailed("login message inconsistent")
    n_i3 = rng.next_block()
    nonce_xor = xor(xor(n_i1, n_i2), n_i3)
    h_ab = h(a_i, b_i)
    m3 = M3(
        q_i=xor(xor(n_i1, n_i3), h(m2.sid, n_i2)),
        r_i=xor(h_ab, h(nonce_xor)),
        v_i=h(h_ab, h(nonce_xor)),
        t_i=xor(xor(n_i2, n_i3), h(a_i, b_i, n_i1)),
    )
    session = CsSession(
        a_i=a_i, b_i=b_i, n_i1=n_i1, n_i2=n_i2, n_i3=n_i3, h_ab=h_ab, nonce_xor=nonce_xor,
        session_key=h(h_ab, nonce_xor),
    )
    return m3, session


def server_verify(secrets: ServerSecrets, n_i2: bytes, m3: M3) -> tuple[M4, bytes]:
    """Check the control server's response; return the confirmation to pass on and the server's session key.

    The server only ever learns the combined value n_i1 XOR n_i3, never
    n_i1 itself; the session key needs only the three-way XOR, so that is
    enough.  Raises CSAuthFailed on a v_i mismatch.
    """
    n1_xor_n3 = xor(m3.q_i, h(secrets.sid, n_i2))
    nonce_xor = xor(n1_xor_n3, n_i2)
    h_ab = xor(m3.r_i, h(nonce_xor))
    if h(h_ab, h(nonce_xor)) != m3.v_i:
        raise CSAuthFailed("control server response rejected by server")
    return M4(v_i=m3.v_i, t_i=m3.t_i), h(h_ab, nonce_xor)


def card_verify(session: CardSession, m4: M4) -> bytes:
    """Check the final confirmation and return the card's session key.

    Raises CSAuthFailed on a v_i mismatch (stale or tampered response).
    """
    n2_xor_n3 = xor(m4.t_i, h(session.a_i, session.b_i, session.n_i1))
    nonce_xor = xor(session.n_i1, n2_xor_n3)
    h_ab = h(session.a_i, session.b_i)
    if h(h_ab, h(nonce_xor)) != m4.v_i:
        raise CSAuthFailed("control server response rejected by card")
    return h(h_ab, nonce_xor)
