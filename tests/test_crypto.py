"""Primitive-level tests: hashing, XOR, concatenation encoding, seeded streams."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triauth import DIGEST_LEN, BlockRng, concat, h, hash_bytes, split_concat, xor

from oracle import SHA256_ABC, SHA256_EMPTY, ref_concat, ref_h, ref_parse, ref_rng, ref_xor

digests = st.binary(min_size=DIGEST_LEN, max_size=DIGEST_LEN)
# Parts of the lengths the protocol frames: empty, short, digests and both their neighbours,
# and past one SHA-256 block.
framed_parts = st.lists(
    st.one_of(st.just(b""), st.binary(min_size=1, max_size=1), st.binary(min_size=8, max_size=8),
              st.binary(min_size=DIGEST_LEN - 1, max_size=DIGEST_LEN - 1), digests,
              st.binary(min_size=DIGEST_LEN + 1, max_size=DIGEST_LEN + 1), st.binary(min_size=65, max_size=80)),
    max_size=4,
)


class TestHash:
    def test_empty_input_matches_published_vector(self):
        assert hash_bytes(b"") == SHA256_EMPTY

    def test_abc_matches_published_vector(self):
        assert hash_bytes(b"abc") == SHA256_ABC

    def test_output_length(self):
        assert len(hash_bytes(b"x")) == DIGEST_LEN

    def test_deterministic(self):
        assert hash_bytes(b"fixed input") == hash_bytes(b"fixed input")

    def test_avalanche_over_random_inputs(self):
        # flipping one bit must change the digest, over 1000 random inputs
        rnd = random.Random(0xA7A)
        for _ in range(1000):
            data = rnd.randbytes(rnd.randrange(1, 64))
            pos = rnd.randrange(len(data))
            bit = 1 << rnd.randrange(8)
            flipped = data[:pos] + bytes([data[pos] ^ bit]) + data[pos + 1:]
            assert hash_bytes(data) != hash_bytes(flipped)

    def test_h_single_part_is_raw_hash(self):
        assert h(b"abc") == SHA256_ABC

    def test_h_multi_part_hashes_the_encoding(self):
        assert h(b"a", b"b") == hash_bytes(concat(b"a", b"b"))

    @settings(max_examples=60)
    @given(framed_parts)
    def test_h_and_concat_match_the_reference(self, parts):
        assert h(*parts) == ref_h(*parts)
        assert concat(*parts) == ref_concat(*parts)


class TestXor:
    def test_self_inverse(self):
        x = hash_bytes(b"x")
        assert xor(x, x) == bytes(DIGEST_LEN)

    def test_identity(self):
        x = hash_bytes(b"y")
        assert xor(x, bytes(DIGEST_LEN)) == x

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor(b"\x00" * 4, b"\x00" * 5)

    @given(digests, digests)
    def test_round_trip(self, a, b):
        assert xor(xor(a, b), b) == a

    @given(digests, digests)
    def test_commutative(self, a, b):
        assert xor(a, b) == xor(b, a)

    @given(digests, digests, digests)
    def test_associative(self, a, b, c):
        assert xor(xor(a, b), c) == xor(a, xor(b, c))

    def test_exhaustive_at_width_one(self):
        for a in range(256):
            for b in range(256):
                assert xor(bytes([a]), bytes([b])) == bytes([a ^ b])

    @pytest.mark.parametrize("width", [0, 1, DIGEST_LEN - 1, DIGEST_LEN, DIGEST_LEN + 1, 2 * DIGEST_LEN])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_the_reference(self, width, data):
        a, b = (data.draw(st.binary(min_size=width, max_size=width)) for _ in range(2))
        assert xor(a, b) == ref_xor(a, b)


class TestConcat:
    def test_single_part_encoding(self):
        assert concat(b"AB") == b"\x00\x00\x00\x02AB"

    @given(framed_parts)
    def test_is_the_join_of_its_single_part_encodings(self, parts):
        assert concat(*parts) == b"".join(concat(p) for p in parts)

    def test_boundaries_are_preserved(self):
        assert concat(b"A", b"B") != concat(b"AB")

    def test_round_trip_against_independent_parser(self):
        parts = (b"alice", hash_bytes(b"k"), b"", b"\x00\x01")
        assert ref_parse(concat(*parts)) == list(parts)

    @given(st.lists(st.binary(max_size=20), max_size=6))
    def test_split_concat_inverts(self, parts):
        assert split_concat(concat(*parts)) == parts

    @given(
        st.lists(st.binary(max_size=8), max_size=4),
        st.lists(st.binary(max_size=8), max_size=4),
    )
    def test_injective_over_distinct_part_lists(self, xs, ys):
        if xs != ys:
            assert concat(*xs) != concat(*ys)

    def test_split_concat_rejects_truncation(self):
        with pytest.raises(ValueError):
            split_concat(concat(b"abc")[:-1])
        with pytest.raises(ValueError):
            split_concat(b"\x00\x00")


class TestBlockRng:
    def test_same_seed_same_sequence(self):
        a = BlockRng(99, "card")
        b = BlockRng(99, "card")
        assert [a.next_block() for _ in range(10)] == [b.next_block() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert BlockRng(1, "x").next_block() != BlockRng(2, "x").next_block()

    def test_different_labels_differ(self):
        assert BlockRng(5, "card").next_block() != BlockRng(5, "server").next_block()

    def test_block_length(self):
        assert len(BlockRng(0, "root").next_block()) == DIGEST_LEN

    @pytest.mark.parametrize("label", ["cs", "adversary", "é"])
    # -(10**300) has 302 octets of decimal text: a length prefix with two nonzero octets.
    @pytest.mark.parametrize("seed", [0, 1, -7, 2**70, -(10**300)])
    def test_blocks_match_the_reference(self, seed, label):
        rng = BlockRng(seed, label)
        assert [rng.next_block() for _ in range(20)] == ref_rng(seed, label, 20)

    def test_no_repeats_in_ten_thousand_draws(self):
        rng = BlockRng(1234, "birthday")
        draws = {rng.next_block() for _ in range(10_000)}
        assert len(draws) == 10_000
