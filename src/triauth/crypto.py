"""Byte-level primitives shared by every protocol role.

All digests, nonces, and XOR masks are 32-octet SHA-256 blocks.  Multi-part
hash inputs go through an injective length-prefixed concatenation, so two
different part lists can never produce the same hash input.
"""

import struct
from hashlib import sha256 as _sha256
from itertools import count

DIGEST_LEN = 32
HASH_NAME = "sha256"
_pack_len = struct.Struct(">I").pack
_pack_index = struct.Struct(">Q").pack
_from_bytes = int.from_bytes
# The length prefix of a digest-length part, the one concat() and h() frame most.
_DIGEST_PREFIX = _pack_len(DIGEST_LEN)


def hash_bytes(data: bytes) -> bytes:
    """SHA-256 digest of a raw byte string."""
    return _sha256(data).digest()


def xor(a: bytes, b: bytes) -> bytes:
    """Byte-wise XOR; operands must have equal length."""
    if len(a) != len(b):
        raise ValueError(f"xor operands differ in length ({len(a)} vs {len(b)})")
    return (_from_bytes(a, "big") ^ _from_bytes(b, "big")).to_bytes(len(a), "big")


def concat(*parts: bytes) -> bytes:
    """Join byte strings with 4-octet big-endian length prefixes.

    The prefixes make the encoding injective: concat(b"A", b"B") and
    concat(b"AB") are distinct, unlike raw juxtaposition.
    """
    data = b""
    for part in parts:
        data += _DIGEST_PREFIX + part if len(part) == DIGEST_LEN else _pack_len(len(part)) + part
    return data


def split_concat(blob: bytes) -> list[bytes]:
    """Recover the parts of a concat() encoding; rejects malformed input."""
    parts = []
    offset = 0
    while offset < len(blob):
        if offset + 4 > len(blob):
            raise ValueError("truncated length prefix")
        (length,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise ValueError("part extends past end of input")
        parts.append(blob[offset:offset + length])
        offset += length
    return parts


def h(*parts: bytes) -> bytes:
    """Protocol hash: a single part is hashed raw, several parts as their concat() encoding."""
    if len(parts) == 1:
        return hash_bytes(parts[0])
    # concat()'s loop, inlined: h is the hottest call in every run.
    data = b""
    for part in parts:
        data += _DIGEST_PREFIX + part if len(part) == DIGEST_LEN else _pack_len(len(part)) + part
    return hash_bytes(data)


class BlockRng:
    """Deterministic stream of DIGEST_LEN blocks for one (seed, label) pair.

    With key = hash_bytes(concat(decimal seed, label)), block i is
    hash_bytes(concat(key, i as 8 big-endian octets)).  So streams with
    different labels are independent, and actors can draw in any relative
    order without perturbing each other's values.
    """

    def __init__(self, seed: int, label: str):
        # concat(decimal seed, label) and everything of concat(key, i) but i's own 8 octets, framed inline.
        seed_text, label_text = str(seed).encode("ascii"), label.encode("utf-8")
        key = hash_bytes(_pack_len(len(seed_text)) + seed_text + _pack_len(len(label_text)) + label_text)
        self._head = _DIGEST_PREFIX + key + _pack_len(8)
        self._index = count()

    def next_block(self) -> bytes:
        return hash_bytes(self._head + _pack_index(next(self._index)))
