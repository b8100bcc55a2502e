"""Failure-injection tests: corruption must be *detected*, never silent.

A production index library's worst failure mode is quietly returning
wrong answers from a damaged index.  These tests corrupt persisted
payloads and in-memory structures and assert the self-checks catch it.
"""

import json

import pytest

from repro import DNA, FMIndex, KMismatchIndex
from repro.bwt.rankall import RankAll
from repro.errors import IndexCorruptionError, SerializationError


@pytest.fixture
def payload():
    return json.loads(KMismatchIndex("acagacagttacgt").dumps())


class TestPayloadCorruption:
    def test_bwt_character_flip_detected(self, payload):
        fm_payload = payload["fm"]
        bwt = fm_payload["bwt"]
        # Flip one non-sentinel character: either the reconstructed text
        # is invalid (rejected at load) or the structures drift (caught
        # by verify) — corruption must never pass silently.
        i = bwt.index("a")
        fm_payload["bwt"] = bwt[:i] + "c" + bwt[i + 1:]
        with pytest.raises((SerializationError, IndexCorruptionError)):
            index = KMismatchIndex.loads(json.dumps(payload))
            index.verify()

    def test_sentinel_removed_rejected_at_load(self, payload):
        payload["fm"]["bwt"] = payload["fm"]["bwt"].replace("$", "a")
        with pytest.raises(SerializationError):
            KMismatchIndex.loads(json.dumps(payload))

    def test_sampled_sa_corruption_detected(self, payload):
        rows = payload["fm"]["sampled_sa"]
        rows[0] = [rows[0][0], rows[0][1] + 1]
        index = KMismatchIndex.loads(json.dumps(payload))
        with pytest.raises(IndexCorruptionError):
            index.verify()

    def test_truncated_json(self):
        good = KMismatchIndex("acgt").dumps()
        with pytest.raises(SerializationError):
            KMismatchIndex.loads(good[: len(good) // 2])

    def test_wrong_container_type(self):
        fm_payload = FMIndex("acgt", DNA).dumps()
        with pytest.raises(SerializationError):
            KMismatchIndex.loads(fm_payload)  # FMIndex magic, not index magic


class TestStructuralChecks:
    def test_rankall_verify_detects_checkpoint_drift(self):
        ra = RankAll("acg$caaa", DNA)
        ra._blocks[ra._size + 1] += 1  # damage one block checkpoint
        with pytest.raises(IndexCorruptionError):
            ra.verify()

    def test_rankall_verify_detects_shadow_drift(self):
        ra = RankAll("acg$caaa", DNA)
        shadow = bytearray(ra._codes_bytes)
        shadow[0] = DNA.code("t")
        ra._codes_bytes = bytes(shadow)
        with pytest.raises(IndexCorruptionError):
            ra.verify()

    def test_clean_structures_pass(self):
        RankAll("acg$caaa", DNA).verify()
        KMismatchIndex("acagacagtt").verify()

    def test_verify_detects_text_mismatch(self):
        index = KMismatchIndex("acagacagtt")
        index._text = "acagacagta"  # simulate facade/text divergence
        with pytest.raises(IndexCorruptionError):
            index.verify()
