"""Golden transcripts: every pinned run reproduces its committed digests byte for byte."""

import json

import pytest

from triauth import verify_transcript

from make_golden import GOLDEN_PATH, cases, digests

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = cases()


def test_golden_file_covers_exactly_the_cases():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_transcript_and_summary_match_golden(case_id):
    text, entry = digests(CASES[case_id])
    assert entry == GOLDEN[case_id]
    assert verify_transcript(text)[0] == 0
