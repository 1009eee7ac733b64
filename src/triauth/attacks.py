"""Adversary model and the three attacks the protocol is vulnerable to.

The channel adversary sees every login-phase message and may drop, modify,
or inject its own.  A card thief additionally learns everything stored on a
stolen card, but not the password typed by its owner.  Neither capability
includes the control server's master secrets.
"""

from typing import NamedTuple

from .actors import SmartCard
from .crypto import frame, h, h_pairs, h_prefix, hash_bytes, xor


def read_dictionary_file(path, cross: bool = False) -> tuple[tuple[str, str], ...]:
    """Parse a dictionary file: one id<TAB>password pair per line, UTF-8.

    Line order is significant.  With cross=True the distinct identities and
    distinct passwords in the file are expanded to their full cross product
    (identity-major, both in first-seen order).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    pairs = []
    # Only \n ends a line, after an optional \r; str.splitlines() would also split at U+2028 and others.
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line.strip():
            continue
        ident, sep, password = line.partition("\t")
        if not sep or not ident or not password:
            raise ValueError(f"malformed dictionary line {lineno}: {line!r}")
        pairs.append((ident, password))
    if cross:
        ids = list(dict.fromkeys(i for i, _ in pairs))
        passwords = list(dict.fromkeys(p for _, p in pairs))
        pairs = [(i, p) for i in ids for p in passwords]
    return tuple(pairs)


class GuessResult(NamedTuple):
    """Outcome of an offline guessing run, with the work it took."""

    user_id: bytes | None
    password: bytes | None
    evaluations: int

    @property
    def found(self) -> bool:
        return self.user_id is not None


def guess_credentials(extracted: SmartCard, candidates) -> GuessResult:
    """Test candidate (id, password) byte pairs against the stolen card's check value.

    Runs the same computation the card itself does at login, entirely
    offline: a candidate matches when h(id || h_y || h(b || password))
    equals the stored c_i.  Returns the first match in candidate order, or
    a not-found result after exhausting the candidates.
    """
    h_b, c_i = h_prefix(extracted.b), extracted.c_i
    # h(id, h_y, a_i) hashes frame(id) + tail, where tail = frame(h_y) + frame(a_i) and
    # a_i = h(b, password) depends on the password alone: one tail per distinct password.
    framed_h_y = frame(extracted.h_y)
    tails = {}
    evaluations = 0
    for evaluations, (user_id, password) in enumerate(candidates, start=1):
        tail = tails.get(password)
        if tail is None:
            tail = tails[password] = framed_h_y + frame(h_b(password))
        if hash_bytes(frame(user_id) + tail) == c_i:
            return GuessResult(user_id=user_id, password=password, evaluations=evaluations)
    return GuessResult(user_id=None, password=None, evaluations=evaluations)


class AdversaryKnowledge:
    """Values the channel adversary has seen, plus a one-step derivation closure.

    knows() checks membership in the observed set extended by one round of
    the operations available to the adversary: XOR of two observed
    equal-length values, and the protocol hash of one observed value or of
    an observed pair.
    """

    def __init__(self):
        self._seen: set[bytes] = set()

    def observe(self, *values: bytes) -> None:
        for value in values:
            self._seen.add(bytes(value))

    def knows(self, target: bytes) -> bool:
        if target in self._seen:
            return True
        # xor(a, b) == target exactly when xor(a, target) == b; a is never XORed with itself.
        for a in self._seen:
            if h(a) == target or (len(a) == len(target) and (b := xor(a, target)) != a and b in self._seen):
                return True
        return target in h_pairs(self._seen)


class AttackReport(NamedTuple):
    """Machine-checked outcome of one attack scenario."""

    name: str
    success: bool
    work: int
    recovered: dict
