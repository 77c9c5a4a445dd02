import dataclasses
import math
import random
import re
import struct
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wire_reference

from meshslam.geometry import Rotation, Se3Pose, Sim3Transform, vec3
from meshslam.map_store import KeyFrame, MapPoint
from meshslam.wire import (
    _PAYLOADS,
    CATEGORIES,
    HEADER_SIZE,
    AlignmentRequest,
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    KeyFramePacket,
    LocalizationLost,
    LocalizationRegained,
    MergeNotify,
    Message,
    MessageType,
    TaggedPoints,
    WireError,
    category_of,
    decode_envelope,
    decode_frame,
    encode_envelope,
    encode_frame,
    encode_message,
)


U128 = (1 << 128) - 1  # the largest id


def sample_keyframe(uid=500):
    return KeyFrame(
        id=uid, origin_agent=2, timestamp=1.25,
        pose=Se3Pose(Rotation.from_axis_angle(vec3(0, 0, 1), 0.5), vec3(1, 2, 3)),
        words={3: 1, 9: 1},
        observed_points={700, 701},
    )


class TestMessageTable:
    def test_one_row_per_message_type(self):
        assert list(_PAYLOADS) == list(MessageType)
        classes = [cls for cls, _, _ in _PAYLOADS.values()]
        assert len(set(classes)) == len(classes)
        assert set(classes) == set(typing.get_args(Message))

    def test_row_declares_category_and_one_codec_per_field(self):
        for mt, (cls, category, codecs) in _PAYLOADS.items():
            assert category in CATEGORIES
            assert category_of(int(mt)) == category
            assert len(codecs) == len(dataclasses.fields(cls)) - 1
        assert set(CATEGORIES) == {category for _, category, _ in _PAYLOADS.values()}


class TestEnvelope:
    def test_header_fields(self):
        data = encode_envelope(MessageType.LOC_LOST, sender=4, sequence=77, payload=b"")
        assert data[:4] == b"DVMS"
        mt, sender, seq, payload = decode_envelope(data)
        assert (mt, sender, seq, payload) == (int(MessageType.LOC_LOST), 4, 77, b"")
        assert len(data) == HEADER_SIZE

    def test_version_check(self):
        data = bytearray(encode_envelope(MessageType.LOC_LOST, 0, 0, b""))
        data[4] = 9
        with pytest.raises(WireError, match="version"):
            decode_envelope(bytes(data))

    def test_unknown_type_rejected(self):
        data = encode_envelope(MessageType.LOC_LOST, 0, 0, b"")
        data = data[:6] + bytes([99]) + data[7:]
        with pytest.raises(WireError, match="unknown message type"):
            decode_frame(data)


class TestMessageRoundTrips:
    def roundtrip(self, msg, sender=3, seq=11):
        return decode_frame(encode_frame(msg, sender, seq))

    def test_bow_announce(self):
        msg = BowAnnounce(3, 12345, {7: 3, 1: 1})
        out = self.roundtrip(msg)
        assert out.sender == 3 and out.kf_id == 12345
        assert list(out.words.items()) == [(1, 1), (7, 3)]
        # the row count, then per row the word id's gap minus one and the count
        assert encode_message(msg)[1][16:] == bytes([2, 1, 1, 5, 3])

    def test_full_map(self):
        msg = FullMapMsg(
            sender=3, hint_kf=999,
            keyframes=[sample_keyframe()],
            points=[MapPoint(700, vec3(0.1, 0.2, 0.3), 3, {500})],
        )
        out = self.roundtrip(msg)
        assert out.hint_kf == 999
        assert out.keyframes[0].id == 500
        assert out.points[0].observers == {500}

    def test_merge_notify(self):
        t = Sim3Transform(1.5, Rotation.from_axis_angle(vec3(0, 0, 1), 0.7),
                          vec3(4, 5, 6))
        msg = MergeNotify(2, t, roster=[0, 1, 2], transform_roster=[1, 2])
        out = self.roundtrip(msg)
        assert out.roster == [0, 1, 2]
        assert out.transform_roster == [1, 2]
        assert out.transform.scale == pytest.approx(1.5)
        assert np.allclose(out.transform.translation, [4, 5, 6])

    def test_alignment_request_and_tagged_points(self):
        assert self.roundtrip(AlignmentRequest(5, [])).sender == 3  # envelope sender wins
        msg = TaggedPoints(1, ([42, 43], np.array([[1.0, 2, 3], [-1, 0, 9]])))
        ids, positions = self.roundtrip(msg).points
        assert ids == [42, 43]
        assert positions.shape == (2, 3) and positions.dtype == np.float64
        assert np.array_equal(positions, msg.points[1])

    @pytest.mark.parametrize("ids", [[42, 42], [43, 42], [1 << 64, 43], [7, 9, 8], [1, 300, 200]],
                             ids=["repeated", "descending", "high-word", "third",
                                  "after-a-long-gap"])
    def test_encoder_rejects_tagged_ids_not_ascending(self, ids):
        msg = TaggedPoints(1, (ids, np.zeros((len(ids), 3))))
        with pytest.raises(ValueError, match=f"id {ids[-1]} at index {len(ids) - 1} is not"):
            encode_frame(msg, 1, 1)

    @pytest.mark.parametrize("ids", [[], [0], [42, 43, 300], [U128 - 2, U128 - 1, U128],
                                     [5, (1 << 127) + 9, U128]],
                             ids=["empty", "zero", "clustered", "top-of-range", "spread"])
    def test_alignment_request(self, ids):
        out = self.roundtrip(AlignmentRequest(5, ids))
        assert out == AlignmentRequest(3, ids)
        # the id list alone: a varint count, then each id's gap minus one
        assert encode_message(out)[1] == varint(len(ids)) + b"".join(
            varint(b - a - 1) for a, b in zip([-1, *ids], ids))

    def test_encoder_rejects_tagged_positions_of_wrong_shape(self):
        with pytest.raises(ValueError):
            encode_frame(TaggedPoints(1, ([1, 2], np.zeros((3, 3)))), 1, 1)

    def test_group_update(self):
        out = self.roundtrip(GroupUpdate(0, [0, 1, 2]))
        assert out == GroupUpdate(3, [0, 1, 2])
        assert encode_message(out)[1] == bytes([3, 0, 0, 0, 1, 0, 2, 0])

    def test_pose_quaternions_round_trip_bit_for_bit(self):
        # renormalizing a unit quaternion moves about 1 in 100 by an ulp
        rng = np.random.default_rng(0)
        kfs = [sample_keyframe(uid) for uid in range(2000)]
        for kf in kfs:
            kf.pose = Se3Pose(Rotation.from_rotvec(rng.uniform(-1, 1, 3)), vec3(0, 0, 0))
        out = self.roundtrip(KeyFramePacket(3, kfs, []))
        assert [kf.pose.rotation.q.tobytes() for kf in out.keyframes] == [
            kf.pose.rotation.q.tobytes() for kf in kfs]

    @pytest.mark.parametrize("q", [(2.0, 0.0, 0.0, 0.0), (-0.6, 0.8, 0.0, 0.0),
                                   (0.0, -1.0, 0.0, 0.0)], ids=["long", "negative-w", "w-zero"])
    def test_non_canonical_quaternion_is_canonicalized(self, q):
        t = Sim3Transform(1.0, Rotation(np.array(q)), vec3(0, 0, 0))
        out = self.roundtrip(MergeNotify(2, t, roster=[0], transform_roster=[]))
        assert out.transform.rotation.q.tolist() == Rotation.from_quat(*q).q.tolist()

    def test_loc_messages(self):
        assert isinstance(self.roundtrip(LocalizationLost(1)), LocalizationLost)
        assert isinstance(self.roundtrip(LocalizationRegained(1)), LocalizationRegained)

    def test_trailing_garbage_rejected(self):
        data = encode_frame(LocalizationLost(1), 1, 0)
        # append a byte and fix the length field so only payload parsing trips
        padded = data[:17] + (1).to_bytes(4, "little") + b"\x00"
        with pytest.raises(WireError):
            decode_frame(padded)


def corrupt(msg, fmt, old, new):
    """Encode `msg`, overwrite the one packed copy of `old` with `new`.

    Returns the frame and the payload offset of the overwritten bytes.
    """
    data = bytearray(encode_frame(msg, 3, 11))
    packed = struct.pack(fmt, *old)
    at = data.find(packed, HEADER_SIZE)
    assert at >= 0 and data.find(packed, at + 1) < 0, "target bytes must be unique"
    struct.pack_into(fmt, data, at, *new)
    return bytes(data), at - HEADER_SIZE


def varint(v):
    """The LEB128 bytes of `v`, as the reference codec writes them."""
    w = wire_reference._Writer()
    w.varint(v)
    return w.getvalue()


def varint_len(v):
    return max(1, (v.bit_length() + 6) // 7)


def splice(msg, old: bytes, new: bytes):
    """Encode `msg` and replace the one copy of `old` in its payload by `new`.

    Returns the frame and the payload offset of the replaced bytes.
    """
    mt, payload = encode_message(msg)
    at = payload.find(old)
    assert at >= 0 and payload.find(old, at + 1) < 0, "target bytes must be unique"
    return encode_envelope(mt, 3, 11, payload[:at] + new + payload[at + len(old):]), at


def kf_packet():
    kf = KeyFrame(
        id=500, origin_agent=2, timestamp=1.25,
        pose=Se3Pose(Rotation.from_axis_angle(vec3(0, 0, 1), 0.5), vec3(1.5, 2.5, 3.5)),
        words={3: 3, 9: 5},
        observed_points={700},
    )
    pt = MapPoint(700, vec3(0.125, 0.875, 4.75), 3, {500})
    return KeyFramePacket(sender=3, keyframes=[kf], points=[pt])


def merge_notice():
    t = Sim3Transform(1.75, Rotation.from_axis_angle(vec3(0, 0, 1), 0.7),
                      vec3(4.5, 5.5, 6.5))
    return MergeNotify(2, t, roster=[0, 1, 2], transform_roster=[1, 2])


def bow_announce():
    return BowAnnounce(3, 12345, {1: 1, 7: 3})


def tagged_points():
    return TaggedPoints(1, ([42], np.array([[1.5, 2.5, 3.5]])))


def two_tagged_points():
    return TaggedPoints(1, ([42, 43], np.array([[1.5, 2.5, 3.5], [4.5, 5.5, 6.5]])))


NAN, INF = float("nan"), float("inf")
KF_Q = tuple(kf_packet().keyframes[0].pose.rotation.q)
SIM3_Q = tuple(merge_notice().transform.rotation.q)
NORM = "has zero, subnormal or non-finite norm"
# nonzero quaternions whose squared norms are subnormal doubles
SUBNORMAL_Q = (3e-162, 1e-161, 2e-162, 0.0)
SUBNORMAL_Q2 = (1e-160, 1e-160, 0.0, 0.0)


class TestFailClosedValues:
    """Frames whose layout is valid but whose values are not are rejected."""

    @pytest.mark.parametrize("make, fmt, old, new, message", [
        pytest.param(kf_packet, "<d", (2.5,), (NAN,), "non-finite translation",
                     id="pose-translation-nan"),
        pytest.param(kf_packet, "<d", (1.25,), (INF,), "non-finite timestamp",
                     id="timestamp-inf"),
        pytest.param(kf_packet, "<d", KF_Q[:1], (NAN,), "non-finite quaternion",
                     id="pose-quaternion-nan"),
        pytest.param(kf_packet, "<4d", KF_Q, (0.0,) * 4, NORM,
                     id="pose-quaternion-zero"),
        pytest.param(kf_packet, "<4d", KF_Q, SUBNORMAL_Q, NORM,
                     id="pose-quaternion-subnormal-norm"),
        pytest.param(kf_packet, "<4d", KF_Q, SUBNORMAL_Q2, NORM,
                     id="pose-quaternion-subnormal-norm-2"),
        pytest.param(kf_packet, "<d", (0.875,), (-INF,), "non-finite position",
                     id="point-position-inf"),
        pytest.param(merge_notice, "<d", (5.5,), (NAN,), "non-finite translation",
                     id="sim3-translation-nan"),
        pytest.param(merge_notice, "<d", SIM3_Q[:1], (INF,), "non-finite quaternion",
                     id="sim3-quaternion-inf"),
        pytest.param(merge_notice, "<4d", SIM3_Q, (0.0,) * 4, NORM,
                     id="sim3-quaternion-zero"),
        pytest.param(merge_notice, "<4d", SIM3_Q, (1e200,) * 4, NORM,
                     id="sim3-quaternion-norm-overflow"),
        pytest.param(merge_notice, "<4d", SIM3_Q, SUBNORMAL_Q, NORM,
                     id="sim3-quaternion-subnormal-norm"),
        pytest.param(merge_notice, "<4d", SIM3_Q, SUBNORMAL_Q2, NORM,
                     id="sim3-quaternion-subnormal-norm-2"),
        pytest.param(merge_notice, "<d", (1.75,), (0.0,), "non-positive scale",
                     id="sim3-scale-zero"),
        pytest.param(merge_notice, "<d", (1.75,), (-1.75,), "non-positive scale",
                     id="sim3-scale-negative"),
        pytest.param(merge_notice, "<d", (1.75,), (NAN,), "non-finite scale",
                     id="sim3-scale-nan"),
        pytest.param(tagged_points, "<d", (3.5,), (NAN,), "non-finite position",
                     id="tagged-position-nan"),
    ])
    def test_rejects_with_offset(self, make, fmt, old, new, message):
        decode_frame(encode_frame(make(), 3, 11))  # the untouched frame is valid
        frame, offset = corrupt(make(), fmt, old, new)
        with pytest.raises(WireError, match=message) as info:
            decode_frame(frame)
        assert f"offset {offset}" in str(info.value)

    def test_non_minimal_gap_before_position_fault(self):
        # both the id list and a position are bad: the id list comes first
        msg = two_tagged_points()
        msg.points[1][1, 0] = NAN
        frame, at = splice(msg, bytes([2, 42, 0]), bytes([2, 42 | 0x80, 0, 0]))
        with pytest.raises(WireError, match=f"non-minimal varint at offset {at + 1}$"):
            decode_frame(frame)
        with pytest.raises(WireError, match=f"non-finite position nan at offset {at + 3 + 24}$"):
            decode_frame(encode_frame(msg, 3, 11))

    # (rows to replace, their replacement, offset of the named count in it)
    @pytest.mark.parametrize("make, old, new, named, message", [
        pytest.param(bow_announce, [2, 1, 1, 5, 3], [2, 1, 0, 5, 3], 2,
                     "word count 0 at offset {} is not", id="bow-count-zero"),
        pytest.param(bow_announce, [2, 1, 1, 5, 3], [2, 1, 1, 5, 0], 4,
                     "word count 0 at offset {} is not", id="bow-count-zero-last"),
        pytest.param(bow_announce, [2, 1, 1, 5, 3], [2, 1, *varint(65535), 5, 3], 6,
                     "word count 3 at offset {} takes the histogram's total to 65538, above 65535",
                     id="bow-count-total"),
        pytest.param(bow_announce, [2, 1, 1, 5, 3], [2, 1, 1, 5, *varint(65535)], 4,
                     "word count 65535 at offset {} takes the histogram's total to 65536",
                     id="bow-count-total-last"),
        pytest.param(kf_packet, [2, 3, 3, 5, 5], [2, 3, 0, 5, 5], 2,
                     "word count 0 at offset {} is not", id="kf-count-zero"),
        pytest.param(kf_packet, [2, 3, 3, 5, 5], [2, 3, 3, 5, *varint(65533)], 4,
                     "word count 65533 at offset {} takes the histogram's total to 65536",
                     id="kf-count-total"),
    ])
    def test_rejects_word_counts(self, make, old, new, named, message):
        frame, at = splice(make(), bytes(old), bytes(new))
        with pytest.raises(WireError, match=message.format(at + named)):
            decode_frame(frame)
        with pytest.raises(WireError, match=message.format(at + named)):
            reference_decode(frame)

    def test_total_of_65535_is_accepted(self):
        frame, _ = splice(bow_announce(), bytes([2, 1, 1, 5, 3]),
                          bytes([2, 1, *varint(65532), 5, 3]))
        assert decode_frame(frame).words == {1: 65532, 7: 3}
        frame, _ = splice(kf_packet(), bytes([2, 3, 3, 5, 5]),
                          bytes([2, 3, 3, 5, *varint(65532)]))
        assert decode_frame(frame).keyframes[0].words == {3: 3, 9: 65532}


def kf_packet_with(words):
    pkt = kf_packet()
    pkt.keyframes[0].words = words
    return pkt


class TestEncoderRejectsWordCounts:
    @pytest.mark.parametrize("words, message", [
        ({1: 1, 7: 0}, "word count 0 at index 1 is not positive"),
        ({7: 2, 1: -1}, "word count -1 at index 0 is not positive"),
        ({1: 65535, 7: 1}, "word count 1 at index 1 takes the histogram's total to 65536"),
        ({1: 70000}, "word count 70000 at index 0 takes the histogram's total to 70000"),
    ], ids=["zero", "negative", "total-above-65535", "count-above-u16"])
    @pytest.mark.parametrize("make", [lambda words: BowAnnounce(3, 12345, words),
                                      kf_packet_with], ids=["bow", "keyframe"])
    def test_raises_value_error(self, make, words, message):
        with pytest.raises(ValueError, match=message):
            encode_frame(make(words), 3, 11)

    def test_total_of_65535_encodes(self):
        words = {1: 65000, 7: 535}
        assert decode_frame(encode_frame(BowAnnounce(3, 1, words), 3, 11)).words == words
        assert decode_frame(encode_frame(kf_packet_with(words), 3, 11)).keyframes[0].words == words


@pytest.mark.parametrize("msg, message", [
    (BowAnnounce(3, 1, {1 << 32: 1}), "word id 4294967296 is outside"),
    (BowAnnounce(3, 1, {-1: 1, 5: 1}), "word id -1 is outside"),
    (KeyFramePacket(3, [], [MapPoint(1, vec3(0, 0, 0), 0, {7, 1 << 128})]),
     f"id {1 << 128} is outside"),
    (TaggedPoints(3, ([-1, 4], np.zeros((2, 3)))), "id -1 is outside"),
    (AlignmentRequest(3, [4, 1 << 128]), f"id {1 << 128} is outside"),
    (AlignmentRequest(3, [-1, 1 << 128]), "id -1 is outside"),
], ids=["word-above", "word-negative", "observer-above", "tagged-negative", "request-above",
        "request-both-ends"])
def test_encoder_rejects_ids_out_of_range(msg, message):
    with pytest.raises(ValueError, match=message):
        encode_frame(msg, 3, 11)


NOT_ASCENDING = pytest.mark.parametrize("ids, bad", [
    ([5, 3], 1), ([5, 5], 1), ([1, 300, 200], 2), ([1 << 64, 43], 1),
    ([0, 1, 1 << 129, 7], 3), ([9, 3, 1 << 128], 1),
], ids=["descending", "repeated", "after-a-long-gap", "high-word", "after-an-id-above-range",
        "before-an-id-above-range"])


class TestEncoderRejectsIdsNotAscending:
    """Every id list is written by one codec, which names the first id that is
    not above the one before it, ahead of any id outside the range (tagged
    ids: ``TestMessageRoundTrips``)."""

    @NOT_ASCENDING
    def test_request_ids(self, ids, bad):
        with pytest.raises(ValueError, match=f"^id {ids[bad]} at index {bad} is not above"):
            encode_frame(AlignmentRequest(3, ids), 3, 11)

    # observed and observer ids are written from a set in sorted order, so
    # only a container that repeats an id reaches the check through a message
    def test_observed_ids(self):
        kf = sample_keyframe()
        kf.observed_points = [7, 5, 7]
        with pytest.raises(ValueError, match="^id 7 at index 2 is not above"):
            encode_frame(KeyFramePacket(3, [kf], []), 3, 11)

    def test_observer_ids(self):
        point = MapPoint(700, vec3(0, 0, 0), 3, [7, 5, 5])
        with pytest.raises(ValueError, match="^id 5 at index 1 is not above"):
            encode_frame(KeyFramePacket(3, [], [point]), 3, 11)


# ---------------------------------------------------------------------------
# Varint id lists
# ---------------------------------------------------------------------------

# a random base and small offsets, as the ids of one agent's map are; or ids
# spread over the whole range, whose gaps reach past 2^64 (the seed field)
CLUSTERED = st.tuples(st.integers(0, 1 << 100),
                      st.lists(st.integers(0, 1 << 16), unique=True, max_size=40))
ID_LISTS = st.one_of(
    CLUSTERED.map(lambda c: sorted(c[0] + d for d in c[1])),
    st.lists(st.integers(0, U128), unique=True, max_size=12).map(sorted))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(ids=ID_LISTS)
@example(ids=[])
@example(ids=[0])
@example(ids=[U128])
@example(ids=[0, 1, U128])
@example(ids=[7, 7 + (1 << 64), 8 + (5 << 64)])  # gaps of at least 2^64
def test_id_lists_round_trip(ids):
    positions = np.arange(3.0 * len(ids)).reshape(-1, 3)
    msg = TaggedPoints(1, (ids, positions))
    mt, payload = encode_message(msg)
    assert payload == wire_reference.encode_message(msg)[1]
    # the count's varint, one varint per gap minus one (the first from -1), the positions
    gaps = [b - a - 1 for a, b in zip([-1, *ids], ids)]
    assert len(payload) == varint_len(len(ids)) + sum(map(varint_len, gaps)) + 24 * len(ids)
    out = decode_frame(encode_envelope(mt, 3, 11, payload))
    assert out.points[0] == ids and np.array_equal(out.points[1], positions)
    # observed and observer sets are built from the ascending list, so their
    # iteration order is that of a set built from it
    kf = sample_keyframe()
    kf.observed_points = set(ids)
    pkt = KeyFramePacket(3, [kf], [MapPoint(700, vec3(0, 0, 0), 3, set(ids))])
    frame = encode_frame(pkt, 3, 11)
    got = decode_frame(frame)
    assert list(got.keyframes[0].observed_points) == list(set(ids))
    assert list(got.points[0].observers) == list(set(ids))
    assert encode_frame(got, 3, 11) == frame


def tagged_frame(*parts):
    return encode_envelope(MessageType.TAGGED_POINTS, 3, 11, b"".join(parts))


def bow_frame(*parts):
    """A BowAnnounce frame: a 16-byte keyframe id, then `parts`."""
    return encode_envelope(MessageType.BOW_ANNOUNCE, 3, 11, bytes(16) + b"".join(parts))


class TestVarintFaults:
    """Each fault of a varint list names its payload offset, as the reference does."""

    @pytest.mark.parametrize("frame, message", [
        pytest.param(tagged_frame(varint(1), varint(U128)[:5]),
                     "truncated payload: need 6 bytes at offset 1, have 5", id="cut-id"),
        pytest.param(tagged_frame(b"\x80"),
                     "truncated payload: need 2 bytes at offset 0, have 1", id="cut-count"),
        pytest.param(bow_frame(varint(1), b"\x85"),
                     "truncated payload: need 2 bytes at offset 17, have 1", id="cut-word-gap"),
        pytest.param(tagged_frame(b"\x81\x00", varint(5), bytes(24)),
                     "non-minimal varint at offset 0", id="non-minimal-count"),
        pytest.param(tagged_frame(varint(2), varint(5), b"\xff\x80\x00", bytes(48)),
                     "non-minimal varint at offset 2", id="non-minimal-id-gap"),
        pytest.param(bow_frame(b"\x81\x00", b"\x01\x01"),
                     "non-minimal varint at offset 16", id="non-minimal-row-count"),
        pytest.param(bow_frame(varint(1), b"\x80\x00", b"\x01"),
                     "non-minimal varint at offset 17", id="non-minimal-word-gap"),
        pytest.param(bow_frame(varint(1), b"\x01", b"\x82\x00"),
                     "non-minimal varint at offset 18", id="non-minimal-word-count"),
        pytest.param(tagged_frame(varint(1), varint(U128 + 1), bytes(24)),
                     f"id {U128 + 1} at offset 1 is above 2^128 - 1", id="first-id-above"),
        pytest.param(tagged_frame(varint(2), varint(U128), varint(0), bytes(48)),
                     f"id {U128 + 1} at offset 20 is above 2^128 - 1", id="later-id-above"),
        pytest.param(tagged_frame(varint(1 << 32)),
                     "list count 4294967296 at offset 0 is above 2^32 - 1", id="id-count-above"),
        pytest.param(bow_frame(varint(1 << 32)),
                     "list count 4294967296 at offset 16 is above 2^32 - 1", id="row-count-above"),
        pytest.param(bow_frame(varint(1), varint(1 << 32), varint(1)),
                     "word id 4294967296 at offset 17 is above 2^32 - 1", id="word-id-above"),
        pytest.param(bow_frame(varint(2), varint((1 << 32) - 1), varint(1), varint(0), varint(1)),
                     "word id 4294967296 at offset 23 is above 2^32 - 1", id="later-word-id-above"),
    ])
    def test_names_offset(self, frame, message):
        with pytest.raises(WireError) as info:
            decode_frame(frame)
        assert str(info.value) == message
        with pytest.raises(WireError) as ref:
            reference_decode(frame)
        assert str(ref.value) == message

    def test_minimal_multi_byte_varints_are_accepted(self):
        frame = bow_frame(varint(2), b"\x80\x01", b"\x01", b"\x00", b"\xff\x7f")
        assert decode_frame(frame).words == {128: 1, 129: 16383}


# ---------------------------------------------------------------------------
# Random messages of every type, and the reference codec
# ---------------------------------------------------------------------------

def _uuid(rnd):
    return rnd.getrandbits(128)


def _words(rnd):
    ids = rnd.sample(range(1 << 32), rnd.randint(0, 6))
    return {w: rnd.randint(1, 65535 // 6) for w in ids}


def _rotation(rnd):
    return Rotation.from_quat(*(rnd.gauss(0.0, 1.0) for _ in range(4)))


def _vec(rnd):
    return np.array([rnd.uniform(-50.0, 50.0) for _ in range(3)])


def _keyframe(rnd):
    return KeyFrame(_uuid(rnd), rnd.randrange(1 << 16), rnd.uniform(0.0, 100.0),
                    Se3Pose(_rotation(rnd), _vec(rnd)), _words(rnd),
                    {_uuid(rnd) for _ in range(rnd.randint(0, 5))})


def _point(rnd):
    return MapPoint(_uuid(rnd), _vec(rnd), rnd.randrange(1 << 32),
                    {_uuid(rnd) for _ in range(rnd.randint(0, 4))})


def _map(rnd):
    return ([_keyframe(rnd) for _ in range(rnd.randint(0, 3))],
            [_point(rnd) for _ in range(rnd.randint(0, 4))])


def _tagged(rnd):
    n = rnd.randint(0, 5)
    return TaggedPoints(3, (sorted(_uuid(rnd) for _ in range(n)),
                            np.array([_vec(rnd) for _ in range(n)]).reshape(-1, 3)))


def _roster(rnd):
    return [rnd.randrange(1 << 16) for _ in range(rnd.randint(0, 5))]


def _request(rnd):
    """A request's strictly ascending ids: clustered above a random base, as
    one agent's points are, or spread over the whole range."""
    n = rnd.randint(0, 6)
    if rnd.random() < 0.5:
        base = _uuid(rnd) >> 16
        return AlignmentRequest(3, sorted({base + rnd.randrange(400) for _ in range(n)}))
    return AlignmentRequest(3, sorted({_uuid(rnd) for _ in range(n)}))


MAKERS = {
    MessageType.BOW_ANNOUNCE: lambda rnd: BowAnnounce(3, _uuid(rnd), _words(rnd)),
    MessageType.FULL_MAP: lambda rnd: FullMapMsg(3, _uuid(rnd), *_map(rnd)),
    MessageType.MERGE_NOTIFY: lambda rnd: MergeNotify(
        3, Sim3Transform(rnd.uniform(0.1, 10.0), _rotation(rnd), _vec(rnd)),
        _roster(rnd), _roster(rnd), rnd.getrandbits(64)),
    MessageType.KEYFRAME_PACKET: lambda rnd: KeyFramePacket(3, *_map(rnd)),
    MessageType.ALIGNMENT_REQUEST: _request,
    MessageType.TAGGED_POINTS: _tagged,
    MessageType.GROUP_UPDATE: lambda rnd: GroupUpdate(3, _roster(rnd)),
    MessageType.LOC_LOST: lambda rnd: LocalizationLost(3),
    MessageType.LOC_REGAINED: lambda rnd: LocalizationRegained(3),
}
assert set(MAKERS) == set(MessageType)


def random_message(kind, seed):
    return MAKERS[kind](random.Random(seed))


def plain(x):
    """A comparable form of a decoded message: floats and arrays by their bits."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v) for v in x)
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(x)))
    if isinstance(x, dict):
        return ("dict", tuple((k, plain(v)) for k, v in x.items()))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple(plain(getattr(x, f.name))
                                        for f in dataclasses.fields(x) if f.compare))
    return x


def reference_decode(frame):
    return wire_reference.decode_message(*decode_envelope(frame))


class TestAgainstReferenceCodec:
    """The batched codec writes and reads exactly what the per-field one did."""

    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda k: k.name)
    def test_equal_bytes_and_values(self, kind):
        for seed in range(40):
            msg = random_message(kind, seed)
            want = wire_reference.encode_message(msg)
            assert encode_message(msg) == want
            frame = encode_frame(msg, 3, 11)
            assert plain(decode_frame(frame)) == plain(reference_decode(frame))


WORD_KINDS = (MessageType.BOW_ANNOUNCE, MessageType.FULL_MAP, MessageType.KEYFRAME_PACKET)


def word_rows(msg):
    if isinstance(msg, BowAnnounce):
        return len(msg.words)
    return sum(len(kf.words) for kf in msg.keyframes)


TRUNCATED = re.compile(r"truncated payload: need (\d+) bytes at offset (\d+), have (\d+)")


class TestTruncationSweep:
    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda k: k.name)
    def test_every_cut_names_an_offset(self, kind):
        # the largest of a few random messages, so every field kind is cut;
        # the two types without a payload have nothing to cut
        msg = max((random_message(kind, seed) for seed in range(8)),
                  key=lambda m: len(encode_message(m)[1]))
        if kind in WORD_KINDS:
            # cuts land in several word rows, past the first row's running total
            assert word_rows(msg) >= 2
        mt, payload = encode_message(msg)
        for cut in range(len(payload)):
            frame = encode_envelope(mt, 3, 11, payload[:cut])
            with pytest.raises(WireError) as info:
                decode_frame(frame)
            m = TRUNCATED.fullmatch(str(info.value))
            assert m, str(info.value)
            need, offset, have = map(int, m.groups())
            assert offset + have == cut and have < need
            with pytest.raises(WireError) as ref:
                reference_decode(frame)
            assert str(info.value) == str(ref.value)
        frame = encode_envelope(mt, 3, 11, payload)
        assert plain(decode_frame(frame)) == plain(reference_decode(frame))


# ---------------------------------------------------------------------------
# Mutated frames fail closed
# ---------------------------------------------------------------------------

def assert_finite(values):
    assert all(math.isfinite(v) for v in np.asarray(values, dtype=float).ravel())


def assert_rotation(rotation):
    q = rotation.q
    assert_finite(q)
    assert abs(float(np.dot(q, q)) - 1.0) < 1e-12
    assert next(v for v in q if v != 0.0) > 0.0   # canonical sign


def assert_words(words):
    assert list(words) == sorted(words)
    assert all(type(c) is int and c >= 1 for c in words.values())
    assert sum(words.values()) <= 65535


def assert_well_formed(msg):
    if isinstance(msg, BowAnnounce):
        assert_words(msg.words)
    if isinstance(msg, (FullMapMsg, KeyFramePacket)):
        for kf in msg.keyframes:
            assert math.isfinite(kf.timestamp)
            assert_rotation(kf.pose.rotation)
            assert_finite(kf.pose.translation)
            assert_words(kf.words)
        for p in msg.points:
            assert_finite(p.position)
    if isinstance(msg, MergeNotify):
        t = msg.transform
        assert math.isfinite(t.scale) and t.scale > 0.0
        assert_rotation(t.rotation)
        assert_finite(t.translation)
    if isinstance(msg, TaggedPoints):
        ids, positions = msg.points
        assert ids == sorted(set(ids)) and all(0 <= i <= U128 for i in ids)
        assert positions.shape == (len(ids), 3)
        assert_finite(positions)
    if isinstance(msg, AlignmentRequest):
        assert msg.ids == sorted(set(msg.ids)) and all(0 <= i <= U128 for i in msg.ids)


EDIT = st.tuples(st.sampled_from(["flip", "insert", "cut"]),
                 st.integers(0, 1 << 16), st.integers(1, 255))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(list(MessageType)), seed=st.integers(0, 1 << 32),
       refit=st.booleans(), edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_frames_fail_closed(kind, seed, refit, edits):
    """Byte flips, insertions and cuts either raise WireError or decode to a
    well-formed message equal to what the reference decoder makes of them.
    A rejected word count is rejected by the reference with the same message.

    With ``refit`` the edits hit the payload and the envelope is rebuilt
    around it, so they reach the payload parser instead of the length check.
    """
    frame = encode_frame(random_message(kind, seed), 3, 11)
    data = bytearray(frame[HEADER_SIZE:] if refit else frame)
    for op, pos, byte in edits:
        at = pos % (len(data) + 1)
        if op == "flip" and at < len(data):
            data[at] ^= byte
        elif op == "insert":
            data.insert(at, byte)
        elif op == "cut":
            del data[at:]
    if refit:
        data = encode_envelope(kind, 3, 11, bytes(data))
    try:
        out = decode_frame(bytes(data))
    except WireError as exc:
        if "word count" in str(exc):
            # both decoders check a histogram's counts row by row, in payload order
            with pytest.raises(WireError) as ref:
                reference_decode(bytes(data))
            assert str(ref.value) == str(exc)
        return
    assert_well_formed(out)
    assert plain(out) == plain(reference_decode(bytes(data)))
