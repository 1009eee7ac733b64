"""Adversary model and the three attacks the protocol is vulnerable to.

The channel adversary sees every login-phase message and may modify one in
transit or inject its own.  A card thief additionally learns everything
stored on a stolen card, but not the password typed by its owner.  Neither
capability includes the control server's master secrets.
"""

from typing import NamedTuple

from .actors import SmartCard
from .crypto import _DIGEST_PREFIX, _pack_len, concat, hash_bytes, split_concat


def read_dictionary_file(path, cross: bool = False) -> tuple[tuple[str, str], ...]:
    """Parse a dictionary file: one id<TAB>password pair per line, UTF-8; a leading BOM is skipped.

    Line order is significant.  With cross=True the distinct identities and
    distinct passwords in the file are expanded to their full cross product
    (identity-major, both in first-seen order).
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
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
    """Outcome of an offline guessing run, with the work it took; found credentials are UTF-8 bytes."""

    user_id: bytes | None
    password: bytes | None
    evaluations: int

    @property
    def found(self) -> bool:
        return self.user_id is not None


def guess_credentials(extracted: SmartCard, candidates) -> GuessResult:
    """Test candidate (id, password) text pairs against the stolen card's check value.

    Runs the card's own login check offline: a candidate matches when
    h(id || h_y || h(b || password)) over the UTF-8 encodings equals c_i.
    Returns the first match in candidate order, as UTF-8 bytes, or a not-found
    result.  Costs one hash per candidate and one per distinct password, and
    frames an identity once per run of equal ones.  A lone surrogate raises UnicodeEncodeError.
    """
    # h(id, h_y, a_i) hashes concat(id) + tail, where tail = concat(h_y) + concat(a_i) and
    # a_i = h(b, password) depends on the password alone: one tail per distinct password.
    # Each hash input is framed inline, as concat() frames it: a_i is a digest.
    framed_b, tail_head, c_i = concat(extracted.b), concat(extracted.h_y) + _DIGEST_PREFIX, extracted.c_i
    tails = {}
    last_id = head = None
    evaluations = 0
    for evaluations, (user_id, password) in enumerate(candidates, start=1):
        tail = tails.get(password)
        if tail is None:
            pw = password.encode("utf-8")
            tail = tails[password] = tail_head + hash_bytes(framed_b + _pack_len(len(pw)) + pw)
        if user_id != last_id:  # a cross product repeats each identity in a row
            last_id, ident = user_id, user_id.encode("utf-8")
            head = _pack_len(len(ident)) + ident
        if hash_bytes(head + tail) == c_i:
            return GuessResult(user_id.encode("utf-8"), password.encode("utf-8"), evaluations)
    return GuessResult(None, None, evaluations)


class AdversaryKnowledge:
    """Values the channel adversary has seen, plus a one-step derivation closure.

    knows(target, preimage) checks membership in the observed set extended by
    one round of the adversary's operations: XOR of two observed equal-length
    values, and the protocol hash of one observed value or pair, tried only
    given preimage, the bytes that hash to target (ValueError if they do not).
    """

    def __init__(self):
        self._seen: set[bytes] = set()

    def observe(self, *values: bytes) -> None:
        """Add values, each a bytes object, to the observed set as given."""
        self._seen.update(values)

    def knows(self, target: bytes, preimage: bytes | None = None) -> bool:
        if preimage is not None and hash_bytes(preimage) != target:
            raise ValueError("preimage does not hash to target")
        seen = self._seen
        # Barring a SHA-256 collision, h(a) == target only for a == preimage, and h(a, b) == target
        # only for concat(a, b) == preimage, which concat's injectivity splits one way.
        if target in seen or preimage in seen:
            return True
        # Two distinct values XOR to target exactly when target is not all zero and a ^ target == b; values
        # of target's width are compared as ints, which is exact at one width.
        if any(target):
            width, t = len(target), int.from_bytes(target, "big")
            ints = {int.from_bytes(a, "big") for a in seen if len(a) == width}
            if not ints.isdisjoint(map(t.__xor__, ints)):
                return True
        try:
            a, b = split_concat(preimage or b"")  # no preimage: no parts
        except ValueError:  # malformed, or not two parts
            return False
        return a in seen and b in seen
