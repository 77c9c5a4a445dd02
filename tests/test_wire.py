import struct

import numpy as np
import pytest

from meshslam.geometry import Rotation, Se3Pose, Sim3Transform, vec3
from meshslam.map_store import KeyFrame, MapPoint
from meshslam.wire import (
    HEADER_SIZE,
    AlignmentRequest,
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    KeyFramePacket,
    LocalizationLost,
    LocalizationRegained,
    MergeNotify,
    MessageType,
    TaggedPoints,
    WireError,
    decode_envelope,
    decode_frame,
    encode_envelope,
    encode_frame,
)


def sample_keyframe(uid=500):
    return KeyFrame(
        id=uid, origin_agent=2, timestamp=1.25,
        pose=Se3Pose(Rotation.from_axis_angle(vec3(0, 0, 1), 0.5), vec3(1, 2, 3)),
        words={3: 0.5, 9: 0.5},
        observed_points={700, 701},
    )


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
        msg = BowAnnounce(3, 12345, {1: 0.25, 7: 0.75})
        out = self.roundtrip(msg)
        assert out.sender == 3 and out.kf_id == 12345
        assert set(out.words) == {1, 7}
        assert out.words[1] == pytest.approx(0.25)

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
        assert self.roundtrip(AlignmentRequest(5)).sender == 3  # envelope sender wins
        msg = TaggedPoints(1, [(42, vec3(1, 2, 3)), (43, vec3(-1, 0, 9))])
        out = self.roundtrip(msg)
        assert [u for u, _ in out.points] == [42, 43]
        assert np.allclose(out.points[1][1], [-1, 0, 9])

    def test_group_update(self):
        out = self.roundtrip(GroupUpdate(0, [0, 1, 2], leader=0))
        assert out.roster == [0, 1, 2] and out.leader == 0

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


def kf_packet():
    kf = KeyFrame(
        id=500, origin_agent=2, timestamp=1.25,
        pose=Se3Pose(Rotation.from_axis_angle(vec3(0, 0, 1), 0.5), vec3(1.5, 2.5, 3.5)),
        words={3: 0.375, 9: 0.625},
        observed_points={700},
    )
    pt = MapPoint(700, vec3(0.125, 0.875, 4.75), 3, {500})
    return KeyFramePacket(sender=3, sequence=11, keyframes=[kf], points=[pt])


def merge_notice():
    t = Sim3Transform(1.75, Rotation.from_axis_angle(vec3(0, 0, 1), 0.7),
                      vec3(4.5, 5.5, 6.5))
    return MergeNotify(2, t, roster=[0, 1, 2], transform_roster=[1, 2])


def bow_announce():
    return BowAnnounce(3, 12345, {1: 0.25, 7: 0.75})


def tagged_points():
    return TaggedPoints(1, [(42, vec3(1.5, 2.5, 3.5))])


NAN, INF = float("nan"), float("inf")
KF_Q = tuple(kf_packet().keyframes[0].pose.rotation.q)
SIM3_Q = tuple(merge_notice().transform.rotation.q)
NORM = "has zero or non-finite norm"
WEIGHT = "is negative or not finite"


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
        pytest.param(kf_packet, "<d", (0.875,), (-INF,), "non-finite position",
                     id="point-position-inf"),
        pytest.param(kf_packet, "<f", (0.375,), (-0.375,), WEIGHT,
                     id="kf-weight-negative"),
        pytest.param(kf_packet, "<f", (0.625,), (NAN,), WEIGHT,
                     id="kf-weight-nan"),
        pytest.param(merge_notice, "<d", (5.5,), (NAN,), "non-finite translation",
                     id="sim3-translation-nan"),
        pytest.param(merge_notice, "<d", SIM3_Q[:1], (INF,), "non-finite quaternion",
                     id="sim3-quaternion-inf"),
        pytest.param(merge_notice, "<4d", SIM3_Q, (0.0,) * 4, NORM,
                     id="sim3-quaternion-zero"),
        pytest.param(merge_notice, "<4d", SIM3_Q, (1e200,) * 4, NORM,
                     id="sim3-quaternion-norm-overflow"),
        pytest.param(merge_notice, "<d", (1.75,), (0.0,), "non-positive scale",
                     id="sim3-scale-zero"),
        pytest.param(merge_notice, "<d", (1.75,), (-1.75,), "non-positive scale",
                     id="sim3-scale-negative"),
        pytest.param(merge_notice, "<d", (1.75,), (NAN,), "non-finite scale",
                     id="sim3-scale-nan"),
        pytest.param(bow_announce, "<f", (0.75,), (-0.75,), WEIGHT,
                     id="bow-weight-negative"),
        pytest.param(bow_announce, "<f", (0.25,), (INF,), WEIGHT,
                     id="bow-weight-inf"),
        pytest.param(tagged_points, "<d", (3.5,), (NAN,), "non-finite position",
                     id="tagged-position-nan"),
    ])
    def test_rejects_with_offset(self, make, fmt, old, new, message):
        decode_frame(encode_frame(make(), 3, 11))  # the untouched frame is valid
        frame, offset = corrupt(make(), fmt, old, new)
        with pytest.raises(WireError, match=message) as info:
            decode_frame(frame)
        assert f"offset {offset}" in str(info.value)

    def test_zero_weight_is_accepted(self):
        frame, _ = corrupt(bow_announce(), "<f", (0.25,), (0.0,))
        assert decode_frame(frame).words[1] == 0.0
