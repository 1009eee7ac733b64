"""Independent reference implementations used as test oracles.

Everything here is built directly on hashlib/struct, never on the package
under test, so the tests compare two separate derivations of each value.
"""

import hashlib
import struct

# Published SHA-256 known-answer vectors (FIPS 180 test values).
SHA256_EMPTY = bytes.fromhex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
SHA256_ABC = bytes.fromhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def ref_concat(*parts: bytes) -> bytes:
    return b"".join(struct.pack(">I", len(p)) + p for p in parts)


def ref_parse(blob: bytes) -> list[bytes]:
    """Decode a length-prefixed encoding back into its parts."""
    parts = []
    pos = 0
    while pos < len(blob):
        length = struct.unpack(">I", blob[pos:pos + 4])[0]
        pos += 4
        assert pos + length <= len(blob), "truncated part"
        parts.append(blob[pos:pos + length])
        pos += length
    return parts


def ref_h(*parts: bytes) -> bytes:
    data = parts[0] if len(parts) == 1 else ref_concat(*parts)
    return hashlib.sha256(data).digest()


def ref_rng(seed: int, label: str, n: int) -> list[bytes]:
    """The first n blocks of the seeded stream: block i is SHA-256 of concat(key, i as
    8 big-endian octets), where key is SHA-256 of concat(decimal seed, label)."""
    key = hashlib.sha256(ref_concat(str(seed).encode("ascii"), label.encode("utf-8"))).digest()
    return [hashlib.sha256(ref_concat(key, struct.pack(">Q", i))).digest() for i in range(n)]


def ref_xor(a: bytes, b: bytes) -> bytes:
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def ref_session(seed: int, user_id: bytes, password: bytes, sid: bytes) -> tuple[dict, bytes]:
    """An honest run derived from the README's protocol equations: the wire fields
    of each message by kind, in the order the messages are sent, and SK."""
    x, y, n3 = ref_rng(seed, "cs", 3)
    b, n1 = ref_rng(seed, "user", 2)
    (n2,) = ref_rng(seed, "server", 1)
    h_y = ref_h(y)
    a = ref_h(b, password)
    user_key = ref_h(user_id, x)  # B
    c = ref_h(user_id, h_y, a)
    d = ref_xor(user_key, ref_h(user_id, a))
    e = ref_xor(user_key, ref_h(y, x))
    f_i = ref_xor(h_y, n1)
    m1 = (f_i, ref_h(user_key, a, n1), ref_xor(e, ref_h(h_y, n1, sid)), ref_xor(a, ref_h(user_key, f_i, n1)))
    nonces = ref_xor(ref_xor(n1, n2), n3)
    h_ab = ref_h(a, user_key)
    v_i = ref_h(h_ab, ref_h(nonces))
    t_i = ref_xor(ref_xor(n2, n3), ref_h(a, user_key, n1))
    fields = {
        "RegistrationRequest": (user_id, a),
        "CardIssue": (c, d, e, h_y),
        "M1": m1,
        "M2": (*m1, sid, ref_xor(ref_h(sid, y), n2), ref_h(ref_h(x, y), n2)),
        "M3": (ref_xor(ref_xor(n1, n3), ref_h(sid, n2)), ref_xor(h_ab, ref_h(nonces)), v_i, t_i),
        "M4": (v_i, t_i),
    }
    return fields, ref_h(h_ab, nonces)


def ref_knows(seen, target: bytes) -> bool:
    """One-step closure by brute force: a member, the XOR of two distinct
    equal-length members, or the hash of one member or of an ordered pair."""
    seen = list(dict.fromkeys(seen))
    if target in seen:
        return True
    for i, a in enumerate(seen):
        for b in seen[i + 1:]:
            if len(a) == len(b) and ref_xor(a, b) == target:
                return True
    if any(ref_h(a) == target for a in seen):
        return True
    return any(ref_h(a, b) == target for a in seen for b in seen)


def ref_guess(card, candidates):
    """Offline guessing by brute force: (id, password, position) of the first
    candidate with h(id, h_y, h(b, password)) == c_i, counted from 1, or
    (None, None, number of candidates) when none matches."""
    count = 0
    for count, (user_id, password) in enumerate(candidates, start=1):
        if ref_h(user_id, card.h_y, ref_h(card.b, password)) == card.c_i:
            return user_id, password, count
    return None, None, count
