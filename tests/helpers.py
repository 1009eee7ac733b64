"""Helpers shared across test modules: a run of the raw actor pipeline and a hash-call counter."""

import sys
from collections import Counter
from dataclasses import dataclass

from triauth import (
    M1,
    M2,
    M3,
    M4,
    BlockRng,
    CardSession,
    ControlServer,
    CsSession,
    ServerSecrets,
    SmartCard,
    card_login,
    card_verify,
    cs_authenticate,
    register_server,
    register_user,
    server_forward,
    server_verify,
)
from triauth import crypto

from oracle import ref_h


@dataclass
class HonestRun:
    cs: ControlServer
    secrets: ServerSecrets
    card: SmartCard
    m1: M1
    card_session: CardSession
    m2: M2
    n_i2: bytes
    m3: M3
    cs_session: CsSession
    m4: M4
    server_sk: bytes
    card_sk: bytes


def enroll_user(cs: ControlServer, user_id: bytes, password: bytes, rng: BlockRng) -> SmartCard:
    """Register a user as a scenario run does: draw b, blind the password as a_i = h(b || password)
    with the oracle's hash, and have the control server issue the card."""
    b = rng.next_block()
    return register_user(cs, user_id, ref_h(b, password), b)


def honest_run(
    seed: int = 0,
    user_id: bytes = b"alice",
    password: bytes = b"pw123",
    sid: bytes = b"server-1",
) -> HonestRun:
    """Drive registration plus one full login exchange, keeping every intermediate."""
    rng_cs = BlockRng(seed, "cs")
    rng_user = BlockRng(seed, "user")
    rng_server = BlockRng(seed, "server")
    cs = ControlServer.generate(rng_cs)
    secrets = register_server(cs, sid)
    card = enroll_user(cs, user_id, password, rng_user)
    m1, card_session = card_login(card, user_id, password, sid, rng_user)
    m2, n_i2 = server_forward(secrets, m1, rng_server)
    m3, cs_session = cs_authenticate(cs, m2, rng_cs)
    m4, server_sk = server_verify(secrets, n_i2, m3)
    card_sk = card_verify(card_session, m4)
    return HonestRun(
        cs=cs,
        secrets=secrets,
        card=card,
        m1=m1,
        card_session=card_session,
        m2=m2,
        n_i2=n_i2,
        m3=m3,
        cs_session=cs_session,
        m4=m4,
        server_sk=server_sk,
        card_sk=card_sk,
    )


def count_calls(call, *args, scopes=()):
    """call(*args)'s result and a Counter of the calls it made, read from sys.setprofile events.

    It counts "h" and "hash_bytes", matched by code object so nothing in the
    package is replaced while it runs, and "_pack_len", the C length-prefix
    pack.  A hash call made while a function in scopes runs counts once more
    under (that function's name, the hash's name).
    """
    hashes = {crypto.h.__code__: "h", crypto.hash_bytes.__code__: "hash_bytes"}
    scoped = {fn.__code__: fn.__name__ for fn in scopes}
    counts, inside = Counter(), []

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code in hashes:
            counts[hashes[code]] += 1
            if inside:
                counts[inside[-1], hashes[code]] += 1
        elif event == "c_call" and arg is crypto._pack_len:
            counts["_pack_len"] += 1
        elif code in scoped and event == "call":
            inside.append(scoped[code])
        elif code in scoped and event == "return":
            inside.pop()

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call(*args)
    finally:
        sys.setprofile(previous)
    return result, counts


def flip(data: bytes, pos: int, mask: int = 0x01) -> bytes:
    """Return data with one byte XORed by mask."""
    assert 0 <= pos < len(data) and 1 <= mask <= 0xFF
    return data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
