import dataclasses
import math
import random
import re
import struct
import tracemalloc
import typing
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scenario_defs
import wire_reference

from meshslam import simulation
from meshslam.geometry import Rotation, Se3Pose, Sim3Transform, vec3
from meshslam.map_store import KeyFrame, MapPoint, make_uuid, uuid_agent
from meshslam.simulation import Simulation
from meshslam.wire import (
    _PAYLOADS,
    CATEGORIES,
    HEADER_SIZE,
    MAX_PAYLOAD,
    AlignmentRequest,
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    KeyFramePacket,
    LocalizationState,
    MergeNotify,
    Message,
    MessageType,
    TaggedPoints,
    WireError,
    category_of,
    decode_envelope,
    decode_frame,
    decode_message,
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
        data = encode_envelope(MessageType.LOCALIZATION_STATE, sender=4, payload=b"\x07")
        # the payload as one raw DEFLATE stream, level 6, 4 KiB window
        stream = zlib.compress(b"\x07", 6, -12)
        # magic, version 8, type 8, sender 4, the stream's length: 13 bytes, no sequence
        assert data == b"DVMS" + bytes([8, 0, 8, 4, 0, len(stream), 0, 0, 0]) + stream
        assert HEADER_SIZE == 13
        assert decode_envelope(data) == (int(MessageType.LOCALIZATION_STATE), 4, b"\x07", 0)

    def test_version_check(self):
        data = bytearray(encode_envelope(MessageType.GROUP_UPDATE, 0, b""))
        data[4] = 7  # the layout whose full maps carried keyframes and observer lists
        with pytest.raises(WireError, match="^unsupported version 7 at offset 4$"):
            decode_envelope(bytes(data))

    def test_unknown_type_rejected(self):
        data = encode_envelope(MessageType.GROUP_UPDATE, 0, b"")
        for tag in (0, 9, 99):  # no type has these tags; 9 is one above the last
            frame = data[:6] + bytes([tag]) + data[7:]
            with pytest.raises(WireError, match=f"^unknown message type {tag}$"):
                decode_frame(frame)
            with pytest.raises(WireError, match=f"^unknown message type {tag}$"):
                wire_reference.decode_frame(frame)

    def test_length_field_names_its_offset(self):
        data = encode_frame(LocalizationState(1, 2), 1)
        for frame in (data[:-1], data + b"\x00"):
            message = (f"payload length field {len(data) - 13} does not match "
                       f"{len(frame) - 13} bytes present (offset 9)")
            with pytest.raises(WireError) as info:
                decode_frame(frame)
            assert str(info.value) == message
            with pytest.raises(WireError) as ref:
                wire_reference.decode_frame(frame)
            assert str(ref.value) == message


def deflate_frame(stream, kind=MessageType.GROUP_UPDATE):
    """A version 8 frame from sender 3 whose header announces `stream`, whatever it holds."""
    return b"DVMS" + struct.pack("<HBHI", 8, kind, 3, len(stream)) + stream


def assert_rejected(frame, message):
    """Both decoders reject `frame` with exactly `message`."""
    with pytest.raises(WireError) as info:
        decode_frame(frame)
    assert str(info.value) == message
    with pytest.raises(WireError) as ref:
        reference_decode(frame)
    assert str(ref.value) == message


class TestCompressedStream:
    """Each fault of the DEFLATE layer names a frame offset, as the reference does."""

    def test_inflating_past_the_bound_fails_before_it_holds_more(self):
        # 1 MiB of zeros as byte-aligned blocks that refer to nothing before
        # them, so that copies of them make one stream; then an empty last block
        c = zlib.compressobj(6, zlib.DEFLATED, -12)
        mib = c.compress(bytes(1 << 20)) + c.flush(zlib.Z_FULL_FLUSH)
        frame = deflate_frame(mib * (4 * MAX_PAYLOAD >> 20) + b"\x03\x00")
        tracemalloc.start()
        try:
            with pytest.raises(WireError) as info:
                decode_frame(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        message = f"deflate stream at offset 13 inflates past {MAX_PAYLOAD} bytes"
        assert str(info.value) == message
        # the bound plus one byte, and one joined copy of it: not the 4 x
        # MAX_PAYLOAD that inflating the whole stream would hold
        assert peak < 2 * MAX_PAYLOAD + (1 << 20)
        with pytest.raises(WireError) as ref:
            reference_decode(frame)
        assert str(ref.value) == message
        # a payload of the bound itself inflates
        bound = deflate_frame(mib * (MAX_PAYLOAD >> 20) + b"\x03\x00")
        assert decode_envelope(bound)[2] == bytes(MAX_PAYLOAD)
        assert wire_reference.inflate(bound) == (bytes(MAX_PAYLOAD), 0)

    def test_encoder_rejects_a_payload_past_the_bound(self):
        with pytest.raises(ValueError, match=f"^payload of {MAX_PAYLOAD + 1} bytes before its "
                                             f"f64 values is above {MAX_PAYLOAD}$"):
            encode_envelope(MessageType.GROUP_UPDATE, 3, bytes(MAX_PAYLOAD + 1))

    def test_stream_that_does_not_end(self):
        mt, payload, f64_bytes = encode_message(kf_packet())
        # every byte of the payload, but no last block
        c = zlib.compressobj(6, zlib.DEFLATED, -12)
        frame = deflate_frame(c.compress(payload) + c.flush(zlib.Z_SYNC_FLUSH), mt)
        assert_rejected(frame, f"deflate stream at offset 13 does not end by offset {len(frame)}")
        # every cut of a whole frame's stream
        stream = encode_frame(kf_packet(), 3)[HEADER_SIZE:-f64_bytes]
        for cut in range(len(stream)):
            assert_rejected(deflate_frame(stream[:cut], mt),
                            f"deflate stream at offset 13 does not end by offset {13 + cut}")

    def test_bytes_after_the_stream_end_are_the_payloads_f64_values(self):
        mt, payload, f64_bytes = encode_message(kf_packet())
        whole = encode_frame(kf_packet(), 3)
        assert whole[-f64_bytes:] == payload[-f64_bytes:]
        assert decode_envelope(whole) == (mt, 3, payload, f64_bytes)
        # the f64 values inside the stream: the first is missing after it
        assert_rejected(encode_envelope(mt, 3, payload),
                        f"truncated payload: need 8 bytes at offset {len(payload)}, have 0")
        # a byte more than the payload's fields take, or one less
        assert_rejected(deflate_frame(whole[HEADER_SIZE:] + b"\x00", mt),
                        f"trailing garbage: 1 bytes at offset {len(payload)}")
        assert_rejected(deflate_frame(whole[HEADER_SIZE:-1], mt),
                        f"truncated payload: need 8 bytes at offset {len(payload) - 8}, have 7")
        # a message with no f64 values
        stream = encode_frame(LocalizationState(1, 5), 1)[HEADER_SIZE:]
        assert_rejected(deflate_frame(stream + b"\x03\x00", MessageType.LOCALIZATION_STATE),
                        "trailing garbage: 2 bytes at offset 4")

    def test_back_reference_further_than_the_window(self):
        # written against a preset dictionary, the stream copies bytes from
        # before its own start, which no decoder window holds
        mt, payload, _ = encode_message(kf_packet())
        c = zlib.compressobj(6, zlib.DEFLATED, -12, zdict=payload)
        frame = deflate_frame(c.compress(payload) + c.flush(), mt)
        with pytest.raises(WireError) as info:
            decode_frame(frame)
        m = re.fullmatch(r"bad deflate stream at offset (\d+): invalid distance too far back",
                         str(info.value))
        assert m, str(info.value)
        assert_rejected(frame, str(info.value))
        # the named byte is the one whose arrival shows the fault
        at = int(m.group(1))
        assert_rejected(deflate_frame(frame[HEADER_SIZE:at], mt),
                        f"deflate stream at offset 13 does not end by offset {at}")
        d = zlib.decompressobj(-15)
        d.decompress(frame[HEADER_SIZE:at])
        with pytest.raises(zlib.error):
            d.decompress(frame[at:at + 1])

    def test_back_reference_within_a_32_kib_window(self):
        # the encoder writes 4 KiB windows; the decoder reads any raw DEFLATE stream
        block = random.Random(1).randbytes(6000)
        frame = deflate_frame(zlib.compress(block * 2, 9, -15))
        assert decode_envelope(frame)[2:] == wire_reference.inflate(frame) == (block * 2, 0)
        assert_rejected(deflate_frame(zlib.compress(block * 2, 9, -15)[:-1]),
                        f"deflate stream at offset 13 does not end by offset {len(frame) - 1}")

    @pytest.mark.parametrize("stream, message", [
        # a last block of the reserved type 3
        pytest.param(b"\x07", "bad deflate stream at offset 13: invalid block type",
                     id="reserved-block-type"),
        # a stored block whose length 1 has a check of 0, not 0xfffe: the
        # fault shows once the check's second byte arrives
        pytest.param(b"\x01\x01\x00\x00\x00",
                     "bad deflate stream at offset 17: invalid stored block lengths",
                     id="stored-length-check"),
        # a dynamic block that declares 31 + 1 distance codes; zlib reads the
        # 14 bits of the three code counts at once, which end in the third byte
        pytest.param(b"\x05\xff\xff",
                     "bad deflate stream at offset 15: too many length or distance symbols",
                     id="dynamic-symbol-counts"),
        pytest.param(b"", "deflate stream at offset 13 does not end by offset 13", id="empty"),
    ])
    def test_bad_stream_names_the_byte_that_shows_it(self, stream, message):
        assert_rejected(deflate_frame(stream), message)


class TestMessageRoundTrips:
    def roundtrip(self, msg, sender=3):
        return decode_frame(encode_frame(msg, sender))

    def test_bow_announce(self):
        msg = BowAnnounce(3, 12345, {7: 3, 1: 1})
        out = self.roundtrip(msg)
        assert out.sender == 3 and out.kf_id == 12345
        assert list(out.words.items()) == [(1, 1), (7, 3)]
        # the id's difference from 0, zigzagged; the row count, then per row
        # the word id's gap minus one and the count
        assert encode_message(msg)[1] == varint(2 * 12345) + bytes([2, 1, 1, 5, 3])

    def test_full_map(self):
        msg = FullMapMsg(sender=3, hint_kf=999, points=[MapPoint(700, vec3(0.1, 0.2, 0.3), 3)])
        out = self.roundtrip(msg)
        assert plain(out) == plain(msg)
        # the hint's difference from 0; one point: its difference from the
        # hint, its word and an empty observer list; then its position
        assert encode_message(msg)[1] == (zz(999) + bytes([1]) + zz(700 - 999) + bytes([3, 0])
                                          + struct.pack("<3d", 0.1, 0.2, 0.3))

    def test_ids_travel_as_differences(self):
        """The worked example of README "Wire format"."""
        kfs = [KeyFrame(40, 0, 0.0, Se3Pose.identity(), {3: 1}, {38, 41}),
               KeyFrame(42, 0, 0.0, Se3Pose.identity(), {3: 2}, {41, 43})]
        msg = KeyFramePacket(3, kfs, [MapPoint(41, vec3(0, 0, 0), 5, {40, 42})])
        pose = struct.pack("<8d", 0.0, 1.0, *[0.0] * 6)  # timestamp, identity pose
        assert encode_message(msg)[1] == (
            bytes([2, 0x50, 0, 0])         # two keyframes; keyframe 40, origin 0
            + bytes([1, 3, 1])             # word 3 counts 1
            + bytes([2, 3, 2])             # observes 38 and 41
            + bytes([0x02, 0, 0])          # keyframe 42, origin 0
            + bytes([1, 3, 2])             # word 3 counts 2
            + bytes([2, 1, 1])             # observes 41 and 43
            + bytes([1, 3])                # one point, 41
            + bytes([5, 2, 1, 1])          # word 5; observed by 40 and 42
            + pose + pose + bytes(24))     # the f64 values: both keyframes', the point's
        assert plain(self.roundtrip(msg)) == plain(msg)

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
            encode_frame(msg, 1)

    @pytest.mark.parametrize("ids", [[], [0], [42, 43, 300], [U128 - 2, U128 - 1, U128],
                                     [5, (1 << 127) + 9, U128]],
                             ids=["empty", "zero", "clustered", "top-of-range", "spread"])
    def test_alignment_request(self, ids):
        out = self.roundtrip(AlignmentRequest(5, ids))
        assert out == AlignmentRequest(3, ids)
        # the id list alone: a varint count, the first id's difference from 0
        # zigzagged, then each later id's gap minus one
        assert encode_message(out)[1] == varint(len(ids)) + b"".join(
            [varint(2 * i) for i in ids[:1]] + [varint(b - a - 1) for a, b in zip(ids, ids[1:])])

    def test_encoder_rejects_tagged_positions_of_wrong_shape(self):
        with pytest.raises(ValueError):
            encode_frame(TaggedPoints(1, ([1, 2], np.zeros((3, 3)))), 1)

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
        for epoch in (0, 1, 2, 0xFFFFFFFF):
            assert self.roundtrip(LocalizationState(1, epoch)) == LocalizationState(3, epoch)
            # the epoch alone, as a u32
            assert encode_message(LocalizationState(1, epoch)) == (
                MessageType.LOCALIZATION_STATE, epoch.to_bytes(4, "little"), 0)

    @pytest.mark.parametrize("epoch", [-1, 1 << 32])
    def test_encoder_rejects_epoch_outside_u32(self, epoch):
        with pytest.raises(struct.error):
            encode_frame(LocalizationState(1, epoch), 1)

    def test_trailing_garbage_rejected(self):
        mt, payload, _ = encode_message(LocalizationState(1, 5))
        # a byte after the payload, compressed with it, so only payload parsing trips
        padded = encode_envelope(mt, 1, payload + b"\x00")
        with pytest.raises(WireError, match="^trailing garbage: 1 bytes at offset 4$"):
            decode_frame(padded)
        with pytest.raises(WireError, match="^trailing garbage: 1 bytes at offset 4$"):
            wire_reference.decode_frame(padded)


def corrupt(msg, fmt, old, new):
    """Encode `msg`, overwrite the one packed copy of `old` in its payload with `new`.

    Returns the frame and the payload offset of the overwritten bytes.
    """
    return splice(msg, struct.pack(fmt, *old), struct.pack(fmt, *new))


def varint(v):
    """The LEB128 bytes of `v`, as the reference codec writes them."""
    w = wire_reference._Writer()
    w.varint(v)
    return w.getvalue()


def varint_len(v):
    return max(1, (v.bit_length() + 6) // 7)


def zigzag(d):
    """The unsigned integer a signed id difference travels as."""
    return 2 * d if d >= 0 else -2 * d - 1


def ids_len(ids, prev):
    """The documented length of an ascending id list written after id `prev`."""
    if not ids:
        return 1
    return (varint_len(len(ids)) + varint_len(zigzag(ids[0] - prev))
            + sum(varint_len(b - a - 1) for a, b in zip(ids, ids[1:])))


def splice(msg, old: bytes, new: bytes):
    """Encode `msg` and replace the one copy of `old` in its payload by `new`.

    Returns the frame and the payload offset of the replaced bytes.
    """
    mt, payload, f64_bytes = encode_message(msg)
    at = payload.find(old)
    assert at >= 0 and payload.find(old, at + 1) < 0, "target bytes must be unique"
    return encode_envelope(mt, 3, payload[:at] + new + payload[at + len(old):], f64_bytes), at


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
        decode_frame(encode_frame(make(), 3))  # the untouched frame is valid
        frame, offset = corrupt(make(), fmt, old, new)
        with pytest.raises(WireError, match=message) as info:
            decode_frame(frame)
        assert f"offset {offset}" in str(info.value)

    def test_non_minimal_gap_before_position_fault(self):
        # both the id list and a position are bad: the id list comes first
        msg = two_tagged_points()
        msg.points[1][1, 0] = NAN
        frame, at = splice(msg, bytes([2, 84, 0]), bytes([2, 84 | 0x80, 0, 0]))
        with pytest.raises(WireError, match=f"non-minimal varint at offset {at + 1}$"):
            decode_frame(frame)
        with pytest.raises(WireError, match=f"non-finite position nan at offset {at + 3 + 24}$"):
            decode_frame(encode_frame(msg, 3))

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
                     "word count 65533 at offset {} takes the histogram's total to 65536, "
                     "above 65535", id="kf-count-total"),
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
            encode_frame(make(words), 3)

    def test_total_of_65535_encodes(self):
        words = {1: 65000, 7: 535}
        assert decode_frame(encode_frame(BowAnnounce(3, 1, words), 3)).words == words
        assert decode_frame(encode_frame(kf_packet_with(words), 3)).keyframes[0].words == words


@pytest.mark.parametrize("msg, message", [
    (BowAnnounce(3, 1, {1 << 32: 1}), "word id 4294967296 is outside"),
    (BowAnnounce(3, 1, {-1: 1, 5: 1}), "word id -1 is outside"),
    (KeyFramePacket(3, [], [MapPoint(1, vec3(0, 0, 0), 0, {7, 1 << 128})]),
     f"id {1 << 128} is outside"),
    (TaggedPoints(3, ([-1, 4], np.zeros((2, 3)))), "id -1 is outside"),
    (AlignmentRequest(3, [4, 1 << 128]), f"id {1 << 128} is outside"),
    (AlignmentRequest(3, [-1, 1 << 128]), "id -1 is outside"),
    (BowAnnounce(3, -1, {}), "id -1 is outside"),
    (FullMapMsg(3, 1 << 128, []), f"id {1 << 128} is outside"),
    (KeyFramePacket(3, [sample_keyframe(-5)], []), "id -5 is outside"),
    (KeyFramePacket(3, [], [MapPoint(1 << 128, vec3(0, 0, 0), 0, set())]),
     f"id {1 << 128} is outside"),
    (KeyFramePacket(3, [], [MapPoint(1, vec3(0, 0, 0), 1 << 32, set())]),
     "word id 4294967296 is outside"),
    (KeyFramePacket(3, [], [MapPoint(1, vec3(0, 0, 0), -1, set())]), "word id -1 is outside"),
], ids=["word-above", "word-negative", "observer-above", "tagged-negative", "request-above",
        "request-both-ends", "bow-id-negative", "hint-above", "keyframe-id-negative",
        "point-id-above", "point-word-above", "point-word-negative"])
def test_encoder_rejects_ids_out_of_range(msg, message):
    with pytest.raises(ValueError, match=message):
        encode_frame(msg, 3)


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
            encode_frame(AlignmentRequest(3, ids), 3)

    # observed and observer ids are written from a set in sorted order, so
    # only a container that repeats an id reaches the check through a message
    def test_observed_ids(self):
        kf = sample_keyframe()
        kf.observed_points = [7, 5, 7]
        with pytest.raises(ValueError, match="^id 7 at index 2 is not above"):
            encode_frame(KeyFramePacket(3, [kf], []), 3)

    def test_observer_ids(self):
        point = MapPoint(700, vec3(0, 0, 0), 3, [7, 5, 5])
        with pytest.raises(ValueError, match="^id 5 at index 1 is not above"):
            encode_frame(KeyFramePacket(3, [], [point]), 3)


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
    mt, payload, f64_bytes = encode_message(msg)
    assert (payload, f64_bytes) == wire_reference.encode_message(msg)[1:]
    # the count's varint, the first id's zigzag difference from 0, one varint
    # per later gap minus one, the positions
    assert len(payload) == ids_len(ids, 0) + f64_bytes and f64_bytes == 24 * len(ids)
    out = decode_frame(encode_envelope(mt, 3, payload, f64_bytes))
    assert out.points[0] == ids and np.array_equal(out.points[1], positions)
    # observed and observer sets are built from the ascending list, so their
    # iteration order is that of a set built from it
    kf = sample_keyframe()
    kf.observed_points = set(ids)
    point = MapPoint(700, vec3(0, 0, 0), 3, set(ids))
    for pkt in (KeyFramePacket(3, [kf], []), KeyFramePacket(3, [], [point])):
        frame = encode_frame(pkt, 3)
        got = decode_frame(frame)
        assert [list(k.observed_points) for k in got.keyframes] == [list(set(ids))] * len(
            pkt.keyframes)
        assert [list(p.observers) for p in got.points] == [list(set(ids))] * len(pkt.points)
        assert encode_frame(got, 3) == frame


def tagged_frame(*parts, f64=b""):
    """A TaggedPoints frame: `parts`, then the f64 values `f64`."""
    return encode_envelope(MessageType.TAGGED_POINTS, 3, b"".join(parts) + f64, len(f64))


def bow_frame(*parts, kf=b"\x00"):
    """A BowAnnounce frame: a keyframe id (0 by default, one byte), then `parts`."""
    return encode_envelope(MessageType.BOW_ANNOUNCE, 3, kf + b"".join(parts))


def zz(d):
    """The varint bytes of the signed id difference `d`."""
    return varint(zigzag(d))


KF_F64 = struct.pack("<8d", 0.0, 1.0, *[0.0] * 6)  # timestamp 0, the identity pose


def kf_record(uid, *observed, words=b"\x00"):
    """A keyframe record's fields but its f64 values: id bytes `uid`, origin
    0, the histogram `words` (empty by default), then the observed ids."""
    return uid + struct.pack("<H", 0) + words + b"".join(observed)


def point_record(uid, *observers):
    """A point record's fields but its position: id bytes `uid`, word 0, then
    `observers`."""
    return uid + varint(0) + b"".join(observers)


def map_frame(kfs=(), points=(), hint=None, f64=None):
    """A keyframe packet of the given records, or with `hint` a full map of
    the given point records, then the f64 values `f64`: by default timestamp
    0 and the identity pose per keyframe, then position 0 per point."""
    if f64 is None:
        f64 = KF_F64 * len(kfs) + bytes(24) * len(points)
    body = varint(len(points)) + b"".join(points) + f64
    if hint is None:
        body = varint(len(kfs)) + b"".join(kfs) + body
        return encode_envelope(MessageType.KEYFRAME_PACKET, 3, body, len(f64))
    assert not kfs  # a full map carries no keyframes
    return encode_envelope(MessageType.FULL_MAP, 3, hint + body, len(f64))


def ids_frame(kind, *parts):
    return encode_envelope(kind, 3, b"".join(parts))


BIG = 2 * U128  # the zigzag of the difference from 0 to the largest id
# a decoded id below 0 or above 2^128 - 1 at each position an id is written;
# every difference but the first of a payload is taken from an id before it
ID_POSITIONS = [
    pytest.param(bow_frame(varint(0), kf=zz(-1)), "id -1 at offset 0 is below 0",
                 id="bow-id-below"),
    pytest.param(bow_frame(varint(0), kf=zz(U128 + 1)),
                 f"id {U128 + 1} at offset 0 is above 2^128 - 1", id="bow-id-above"),
    pytest.param(map_frame(hint=zz(-1)), "id -1 at offset 0 is below 0", id="hint-below"),
    pytest.param(map_frame(hint=zz(U128 + 1)), f"id {U128 + 1} at offset 0 is above 2^128 - 1",
                 id="hint-above"),
    pytest.param(map_frame([kf_record(zz(-1), varint(0))]),
                 "id -1 at offset 1 is below 0", id="keyframe-id-below"),
    pytest.param(map_frame([kf_record(zz(U128 + 1), varint(0))]),
                 f"id {U128 + 1} at offset 1 is above 2^128 - 1", id="keyframe-id-above"),
    pytest.param(map_frame(points=[point_record(zz(-6), varint(0))], hint=zz(5)),
                 "id -1 at offset 2 is below 0", id="point-id-below-after-hint"),
    pytest.param(map_frame(points=[point_record(zz(1), varint(0))], hint=zz(U128)),
                 f"id {U128 + 1} at offset 20 is above 2^128 - 1",
                 id="point-id-above-after-hint"),
    pytest.param(map_frame([kf_record(zz(U128), varint(0)), kf_record(zz(-U128 - 1), varint(0))]),
                 "id -1 at offset 24 is below 0", id="second-keyframe-id-below"),
    pytest.param(map_frame(points=[point_record(zz(-1), varint(0))]),
                 "id -1 at offset 2 is below 0", id="point-id-below"),
    pytest.param(map_frame(points=[point_record(zz(U128), varint(0)),
                                   point_record(zz(1), varint(0))]),
                 f"id {U128 + 1} at offset 23 is above 2^128 - 1", id="point-id-above"),
    pytest.param(map_frame([kf_record(zz(3), varint(1), zz(-4))]),
                 "id -1 at offset 6 is below 0", id="observed-first-below"),
    pytest.param(map_frame([kf_record(zz(U128), varint(1), zz(1))]),
                 f"id {U128 + 1} at offset 24 is above 2^128 - 1", id="observed-first-above"),
    pytest.param(map_frame([kf_record(zz(U128 - 9), varint(2), zz(0), varint(8))],
                           [point_record(zz(1), varint(0))]),
                 f"id {U128 + 1} at offset 27 is above 2^128 - 1",
                 id="point-id-above-after-a-list"),
    pytest.param(map_frame(points=[point_record(zz(2), varint(1), zz(-3))]),
                 "id -1 at offset 5 is below 0", id="observer-first-below"),
    pytest.param(map_frame(points=[point_record(zz(U128), varint(1), zz(1))]),
                 f"id {U128 + 1} at offset 23 is above 2^128 - 1", id="observer-first-above"),
    pytest.param(ids_frame(MessageType.ALIGNMENT_REQUEST, varint(1), zz(-1)),
                 "id -1 at offset 1 is below 0", id="request-first-below"),
    pytest.param(ids_frame(MessageType.ALIGNMENT_REQUEST, varint(1), zz(U128 + 1)),
                 f"id {U128 + 1} at offset 1 is above 2^128 - 1", id="request-first-above"),
    pytest.param(tagged_frame(varint(1), zz(-1), f64=bytes(24)),
                 "id -1 at offset 1 is below 0", id="tagged-first-below"),
    pytest.param(tagged_frame(varint(1), zz(U128 + 1), f64=bytes(24)),
                 f"id {U128 + 1} at offset 1 is above 2^128 - 1", id="first-id-above"),
]


class TestVarintFaults:
    """Each fault of a varint field names its payload offset, as the reference does."""

    @pytest.mark.parametrize("frame, message", [
        pytest.param(tagged_frame(varint(1), varint(U128)[:5]),
                     "truncated payload: need 6 bytes at offset 1, have 5", id="cut-id"),
        pytest.param(tagged_frame(b"\x80"),
                     "truncated payload: need 2 bytes at offset 0, have 1", id="cut-count"),
        pytest.param(bow_frame(varint(1), b"\x85"),
                     "truncated payload: need 2 bytes at offset 2, have 1", id="cut-word-gap"),
        pytest.param(bow_frame(kf=b"\x80"),
                     "truncated payload: need 2 bytes at offset 0, have 1", id="cut-bow-id"),
        pytest.param(map_frame(points=[point_record(zz(0))[:-1] + b"\x80"], f64=b""),
                     "truncated payload: need 2 bytes at offset 3, have 1", id="cut-point-word"),
        pytest.param(tagged_frame(b"\x81\x00", varint(10), f64=bytes(24)),
                     "non-minimal varint at offset 0", id="non-minimal-count"),
        pytest.param(tagged_frame(varint(2), varint(10), b"\xff\x80\x00", f64=bytes(48)),
                     "non-minimal varint at offset 2", id="non-minimal-id-gap"),
        pytest.param(tagged_frame(varint(1), b"\x8a\x00", f64=bytes(24)),
                     "non-minimal varint at offset 1", id="non-minimal-first-id"),
        pytest.param(bow_frame(varint(0), kf=b"\x82\x80\x00"),
                     "non-minimal varint at offset 0", id="non-minimal-bow-id"),
        pytest.param(map_frame(points=[point_record(zz(0))[:-1] + b"\x81\x00"]),
                     "non-minimal varint at offset 3", id="non-minimal-point-word"),
        pytest.param(map_frame([b"\x80\x00"]),
                     "non-minimal varint at offset 1", id="non-minimal-keyframe-id"),
        pytest.param(encode_envelope(MessageType.KEYFRAME_PACKET, 3, b"\x80\x00\x00"),
                     "non-minimal varint at offset 0", id="non-minimal-keyframe-count"),
        pytest.param(bow_frame(b"\x81\x00", b"\x01\x01"),
                     "non-minimal varint at offset 1", id="non-minimal-row-count"),
        pytest.param(bow_frame(varint(1), b"\x80\x00", b"\x01"),
                     "non-minimal varint at offset 2", id="non-minimal-word-gap"),
        pytest.param(bow_frame(varint(1), b"\x01", b"\x82\x00"),
                     "non-minimal varint at offset 3", id="non-minimal-word-count"),
        pytest.param(tagged_frame(varint(2), varint(BIG), varint(0), f64=bytes(48)),
                     f"id {U128 + 1} at offset 20 is above 2^128 - 1", id="later-id-above"),
        pytest.param(tagged_frame(varint(1 << 32)),
                     "list count 4294967296 at offset 0 is above 2^32 - 1", id="id-count-above"),
        pytest.param(bow_frame(varint(1 << 32)),
                     "list count 4294967296 at offset 1 is above 2^32 - 1", id="row-count-above"),
        pytest.param(map_frame(points=[point_record(zz(0))[:-1] + varint(1 << 32) + varint(0)]),
                     "word id 4294967296 at offset 3 is above 2^32 - 1", id="point-word-above"),
        pytest.param(encode_envelope(MessageType.FULL_MAP, 3, zz(0) + varint(1 << 32)),
                     "list count 4294967296 at offset 1 is above 2^32 - 1",
                     id="point-count-above"),
        pytest.param(bow_frame(varint(1), varint(1 << 32), varint(1)),
                     "word id 4294967296 at offset 2 is above 2^32 - 1", id="word-id-above"),
        pytest.param(bow_frame(varint(2), varint((1 << 32) - 1), varint(1), varint(0), varint(1)),
                     "word id 4294967296 at offset 8 is above 2^32 - 1", id="later-word-id-above"),
        *ID_POSITIONS,
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

    @pytest.mark.parametrize("frame, message", ID_POSITIONS)
    def test_ids_at_the_range_ends_are_accepted(self, frame, message):
        """Each id fault above, moved one step back into the range, decodes,
        and re-encodes to the same payload."""
        uid, at = map(int, re.match(r"id (-?\d+) at offset (\d+)", message).groups())
        mt, _, payload, f64_bytes = decode_envelope(frame)
        r = wire_reference._Reader(payload, at)
        z = r.varint()
        d = z // 2 if z % 2 == 0 else -(z + 1) // 2
        payload = payload[:at] + zz(d + 1 if uid < 0 else d - 1) + payload[r.off:]
        frame = encode_envelope(mt, 3, payload, f64_bytes)
        out = decode_frame(frame)
        assert plain(out) == plain(reference_decode(frame))
        assert encode_message(out) == (mt, payload, f64_bytes)


# ---------------------------------------------------------------------------
# Random messages of every type, and the reference codec
# ---------------------------------------------------------------------------

# the first ids of three agents' maps under one run seed
AGENT_BASES = [make_uuid(7, agent, 0) for agent in range(3)]


def _uuid(rnd):
    """An id as a run makes them (a few counters into one of several agents'
    maps), or at either end of the range, or anywhere in it: the ids of one
    message are in no order, and their differences take either sign, up to
    2^128 - 1 wide."""
    r = rnd.random()
    if r < 0.4:
        return rnd.choice(AGENT_BASES) + rnd.randrange(300)
    if r < 0.6:
        return rnd.choice((0, U128))
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


def _follow(rnd, kf, prev):
    """Give `kf` most of `prev`'s words, some with new counts, and most of its
    observed ids, as a keyframe spawned after another has."""
    kf.words = {w: c if rnd.random() < 0.7 else rnd.randint(1, 65535 // 6)
                for w, c in prev.words.items() if rnd.random() < 0.8}
    while len(kf.words) < 6 and rnd.random() < 0.7:
        kf.words[rnd.randrange(1 << 32)] = rnd.randint(1, 65535 // 6)
    kf.observed_points = ({i for i in prev.observed_points if rnd.random() < 0.8}
                          | {_uuid(rnd) for _ in range(rnd.randint(0, 3))})


def _map(rnd):
    """Keyframes, most of them overlapping the one before, and points, some
    of them observed by those keyframes; a point lists every keyframe that
    observes it, as in the map the sender cuts its payload from."""
    kfs = []
    for _ in range(rnd.randint(1, 3)):
        kf = _keyframe(rnd)
        if kfs and rnd.random() < 0.7:
            _follow(rnd, kf, kfs[-1])
        kfs.append(kf)
    observed = sorted(set().union(*(kf.observed_points for kf in kfs)))
    points = []
    for _ in range(rnd.randint(0, 4)):
        p = _point(rnd)
        if observed and rnd.random() < 0.6:
            p.id = rnd.choice(observed)
        p.observers |= {kf.id for kf in kfs if p.id in kf.observed_points}
        points.append(p)
    return kfs, points


def _tagged(rnd):
    ids = sorted({_uuid(rnd) for _ in range(rnd.randint(0, 5))})
    return TaggedPoints(3, (ids, np.array([_vec(rnd) for _ in ids]).reshape(-1, 3)))


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
    MessageType.FULL_MAP: lambda rnd: FullMapMsg(3, _uuid(rnd), _map(rnd)[1]),
    MessageType.MERGE_NOTIFY: lambda rnd: MergeNotify(
        3, Sim3Transform(rnd.uniform(0.1, 10.0), _rotation(rnd), _vec(rnd)),
        _roster(rnd), _roster(rnd), rnd.getrandbits(64)),
    MessageType.KEYFRAME_PACKET: lambda rnd: KeyFramePacket(3, *_map(rnd)),
    MessageType.ALIGNMENT_REQUEST: _request,
    MessageType.TAGGED_POINTS: _tagged,
    MessageType.GROUP_UPDATE: lambda rnd: GroupUpdate(3, _roster(rnd)),
    MessageType.LOCALIZATION_STATE: lambda rnd: LocalizationState(3, rnd.getrandbits(32)),
}
assert set(MAKERS) == set(MessageType)


def random_message(kind, seed):
    return MAKERS[kind](random.Random(seed))


def plain(x, sort_dicts=False):
    """A comparable form of a decoded message: floats and arrays by their bits.

    Dicts keep their order unless `sort_dicts`; a decoded histogram is
    ascending, its sender's need not be.
    """
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return ("float", struct.pack("<d", x))
    if isinstance(x, (list, tuple)):
        return tuple(plain(v, sort_dicts) for v in x)
    if isinstance(x, (set, frozenset)):
        return ("set", tuple(sorted(x)))
    if isinstance(x, dict):
        items = sorted(x.items()) if sort_dicts else x.items()
        return ("dict", tuple((k, plain(v, sort_dicts)) for k, v in items))
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, tuple(plain(getattr(x, f.name), sort_dicts)
                                        for f in dataclasses.fields(x) if f.compare))
    return x


def keyframes_of(msg):
    """A map message's keyframes: a full map carries none."""
    return [] if isinstance(msg, FullMapMsg) else msg.keyframes


def documented_length(msg):
    """A message's payload length by the layout the ``wire`` docstring gives."""
    last = 0  # the last id written

    def one(uid):
        nonlocal last
        d, last = uid - last, uid
        return varint_len(zigzag(d))

    def id_list(ids):
        nonlocal last
        ids = sorted(ids)
        n = ids_len(ids, last)
        last = ids[-1] if ids else last
        return n

    def words(hist):
        rows = sorted(hist)
        return varint_len(len(rows)) + sum(
            varint_len(b - a - 1) + varint_len(hist[b]) for a, b in zip([-1, *rows], rows))

    if isinstance(msg, BowAnnounce):
        return one(msg.kf_id) + words(msg.words)
    if isinstance(msg, (FullMapMsg, KeyFramePacket)):
        n = one(msg.hint_kf) if isinstance(msg, FullMapMsg) else varint_len(len(msg.keyframes))
        for kf in keyframes_of(msg):
            # id, origin u16, timestamp f64, pose 7 f64, histogram, observed ids
            n += one(kf.id) + 2 + 8 + 56 + words(kf.words) + id_list(kf.observed_points)
        n += varint_len(len(msg.points))
        for p in msg.points:
            n += one(p.id) + 24 + varint_len(p.word) + id_list(p.observers)
        return n
    if isinstance(msg, MergeNotify):
        return 64 + 2 + 2 * len(msg.roster) + 2 + 2 * len(msg.transform_roster) + 8
    if isinstance(msg, AlignmentRequest):
        return id_list(msg.ids)
    if isinstance(msg, TaggedPoints):
        return id_list(msg.points[0]) + 24 * len(msg.points[0])
    if isinstance(msg, GroupUpdate):
        return 2 + 2 * len(msg.roster)
    return 4  # LocalizationState


def reference_decode(frame):
    return wire_reference.decode_frame(frame)


class TestAgainstReferenceCodec:
    """The batched codec writes and reads exactly what the per-field one did."""

    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda k: k.name)
    def test_equal_bytes_and_values(self, kind):
        for seed in range(40):
            msg = random_message(kind, seed)
            want = wire_reference.encode_message(msg)
            assert encode_message(msg) == want
            assert len(want[1]) == documented_length(msg)
            frame = encode_frame(msg, 3)
            assert frame == wire_reference.encode_frame(msg, 3)
            assert plain(decode_frame(frame)) == plain(reference_decode(frame))


def ascending_sets(msg):
    """Whether each id set of a decoded message was built in ascending order."""
    if not isinstance(msg, (FullMapMsg, KeyFramePacket)):
        return True
    sets = [kf.observed_points for kf in keyframes_of(msg)] + [p.observers for p in msg.points]
    return all(list(ids) == list(set(sorted(ids))) for ids in sets)


def test_shipped_traffic_round_trips(monkeypatch):
    """Every message of a short seed-7 run of two shipped scenarios survives
    the codec: it decodes to what was sent (histograms and sets compared as
    contents, sets built in ascending order, poses and positions bit for bit),
    re-encodes to its bytes, is what the reference codec writes, and has the
    documented length.  ``coop_loops`` merges three agents and runs alignment
    rounds; ``blackout_recovery`` runs past its private map's re-merge, whose
    re-queued history carries the ids of both agents."""
    real = simulation.encode_message
    sent = []

    def capture(msg):
        encoded = real(msg)
        # the sender's map moves on after a send, so its objects are compared as sent
        sent.append((encoded, msg.sender, plain(msg, sort_dicts=True),
                     wire_reference.encode_message(msg), documented_length(msg)))
        return encoded

    monkeypatch.setattr(simulation, "encode_message", capture)
    blackout = scenario_defs.blackout_recovery()
    blackout.run.duration = 23.0  # the private map re-merges at 22.1 s
    for cfg in (scenario_defs.coop_loops(duration=8.0), blackout):
        Simulation(cfg, 7).run()
    assert {encoded[0] for encoded, *_ in sent} == set(MessageType)
    agents_named = set()
    for encoded, sender, want, ref, length in sent:
        mt, payload, f64_bytes = encoded
        out = decode_message(mt, sender, payload, f64_bytes)
        assert plain(out, sort_dicts=True) == want
        assert ascending_sets(out)
        assert encode_message(out) == ref == encoded
        assert len(payload) == length
        if isinstance(out, KeyFramePacket):
            ids = [kf.id for kf in out.keyframes] + [p.id for p in out.points]
            ids += [i for kf in out.keyframes for i in kf.observed_points]
            agents_named.add(frozenset(map(uuid_agent, ids)))
    assert frozenset({0, 1}) in agents_named  # a packet names ids of both agents


WORD_KINDS = (MessageType.BOW_ANNOUNCE, MessageType.KEYFRAME_PACKET)


def word_rows(msg):
    if isinstance(msg, BowAnnounce):
        return len(msg.words)
    return sum(len(kf.words) for kf in msg.keyframes)


TRUNCATED = re.compile(r"truncated payload: need (\d+) bytes at offset (\d+), have (\d+)")


class TestTruncationSweep:
    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda k: k.name)
    def test_every_cut_names_an_offset(self, kind):
        # the largest of a few random messages, so every field kind is cut
        msg = max((random_message(kind, seed) for seed in range(8)),
                  key=lambda m: len(encode_message(m)[1]))
        if kind in WORD_KINDS:
            # cuts land in several word rows, past the first row's running total
            assert word_rows(msg) >= 2
        if kind == MessageType.KEYFRAME_PACKET:
            # and in a keyframe's observed ids
            assert any(kf.observed_points for kf in msg.keyframes)
        if kind in (MessageType.FULL_MAP, MessageType.KEYFRAME_PACKET):
            # and in a point's observers
            assert any(p.observers for p in msg.points)
        mt, payload, f64_bytes = encode_message(msg)
        split = len(payload) - f64_bytes
        for cut in range(len(payload)):
            # the cut payload's f64 values are those left after the split
            frame = encode_envelope(mt, 3, payload[:cut], max(0, cut - split))
            with pytest.raises(WireError) as info:
                decode_frame(frame)
            m = TRUNCATED.fullmatch(str(info.value))
            assert m, str(info.value)
            need, offset, have = map(int, m.groups())
            assert offset + have == cut and have < need
            with pytest.raises(WireError) as ref:
                reference_decode(frame)
            assert str(info.value) == str(ref.value)
        frame = encode_envelope(mt, 3, payload, f64_bytes)
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
        for kf in keyframes_of(msg):
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
    if isinstance(msg, LocalizationState):
        assert 0 <= msg.epoch <= 0xFFFFFFFF


EDIT = st.tuples(st.sampled_from(["flip", "insert", "cut"]),
                 st.integers(0, 1 << 16), st.integers(0, 255))


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(list(MessageType)), seed=st.integers(0, 1 << 32),
       target=st.sampled_from(["payload", "body", "frame"]),
       edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_frames_fail_closed(kind, seed, target, edits):
    """Byte flips, insertions and cuts either raise WireError or decode to a
    well-formed message equal to what the reference decoder makes of them.
    A rejected frame is rejected by the reference with the same message.

    The edits hit the payload ``encode_message`` writes, which is then framed
    with as many f64 bytes after the stream as the message had (or all of it,
    when fewer are left), so they reach the payload parser; or the body after
    the header, whose length field is then set to match, so they reach the
    DEFLATE stream and the split; or the whole frame, header included.
    """
    msg = random_message(kind, seed)
    _, payload, f64_bytes = encode_message(msg)
    frame = encode_frame(msg, 3)
    data = bytearray({"payload": payload, "body": frame[HEADER_SIZE:], "frame": frame}[target])
    for op, pos, byte in edits:
        at = pos % (len(data) + 1)
        if op == "flip" and at < len(data):
            data[at] ^= byte
        elif op == "insert":
            data.insert(at, byte)
        elif op == "cut":
            del data[at:]
    if target == "payload":
        data = encode_envelope(kind, 3, bytes(data), min(f64_bytes, len(data)))
    elif target == "body":
        data = frame[:9] + struct.pack("<I", len(data)) + data
    try:
        out = decode_frame(bytes(data))
    except WireError as exc:
        # both decoders check every field in the same order
        with pytest.raises(WireError) as ref:
            reference_decode(bytes(data))
        assert str(ref.value) == str(exc)
        return
    assert_well_formed(out)
    assert plain(out) == plain(reference_decode(bytes(data)))
