import dataclasses
import math
import random
import re
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings
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


def sample_keyframe(uid=500):
    return KeyFrame(
        id=uid, origin_agent=2, timestamp=1.25,
        pose=Se3Pose(Rotation.from_axis_angle(vec3(0, 0, 1), 0.5), vec3(1, 2, 3)),
        words={3: 0.5, 9: 0.5},
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
        msg = TaggedPoints(1, ([42, 43], np.array([[1.0, 2, 3], [-1, 0, 9]])))
        ids, positions = self.roundtrip(msg).points
        assert ids == [42, 43]
        assert positions.shape == (2, 3) and positions.dtype == np.float64
        assert np.array_equal(positions, msg.points[1])

    @pytest.mark.parametrize("ids", [[42, 42], [43, 42], [1 << 64, 43], [7, 9, 8]],
                             ids=["repeated", "descending", "high-word", "third"])
    def test_encoder_rejects_tagged_ids_not_ascending(self, ids):
        msg = TaggedPoints(1, (ids, np.zeros((len(ids), 3))))
        with pytest.raises(ValueError, match=f"id {ids[-1]} at index {len(ids) - 1} is not"):
            encode_frame(msg, 1, 1)

    def test_encoder_rejects_tagged_positions_of_wrong_shape(self):
        with pytest.raises(ValueError):
            encode_frame(TaggedPoints(1, ([1, 2], np.zeros((3, 3)))), 1, 1)

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
    return KeyFramePacket(sender=3, keyframes=[kf], points=[pt])


def merge_notice():
    t = Sim3Transform(1.75, Rotation.from_axis_angle(vec3(0, 0, 1), 0.7),
                      vec3(4.5, 5.5, 6.5))
    return MergeNotify(2, t, roster=[0, 1, 2], transform_roster=[1, 2])


def bow_announce():
    return BowAnnounce(3, 12345, {1: 0.25, 7: 0.75})


def tagged_points():
    return TaggedPoints(1, ([42], np.array([[1.5, 2.5, 3.5]])))


def two_tagged_points():
    return TaggedPoints(1, ([42, 43], np.array([[1.5, 2.5, 3.5], [4.5, 5.5, 6.5]])))


def two_id_packet():
    """kf_packet with two observed ids and two observers."""
    pkt = kf_packet()
    pkt.keyframes[0].observed_points = {700, 701}
    pkt.points[0].observers = {500, 501}
    return pkt


NAN, INF = float("nan"), float("inf")
KF_Q = tuple(kf_packet().keyframes[0].pose.rotation.q)
SIM3_Q = tuple(merge_notice().transform.rotation.q)
NORM = "has zero, subnormal or non-finite norm"
WEIGHT = "is negative or not finite"
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

    @pytest.mark.parametrize("make, fmt, old, new", [
        pytest.param(bow_announce, "<If", (7, 0.75), (1, 0.75), id="bow-word-repeated"),
        pytest.param(bow_announce, "<If", (7, 0.75), (0, 0.75), id="bow-word-descending"),
        pytest.param(kf_packet, "<If", (9, 0.625), (3, 0.625), id="kf-word-repeated"),
        pytest.param(two_id_packet, "<QQ", (701, 0), (700, 0), id="kf-observed-repeated"),
        pytest.param(two_id_packet, "<QQ", (701, 0), (699, 0), id="kf-observed-descending"),
        pytest.param(two_id_packet, "<QQ", (501, 0), (500, 0), id="point-observer-repeated"),
        pytest.param(two_id_packet, "<QQ", (501, 0), (1, 0), id="point-observer-descending"),
        pytest.param(two_tagged_points, "<QQ", (43, 0), (42, 0), id="tagged-repeated"),
        pytest.param(two_tagged_points, "<QQ", (43, 0), (7, 0), id="tagged-descending"),
    ])
    def test_rejects_ids_not_ascending(self, make, fmt, old, new):
        self.test_rejects_with_offset(make, fmt, old, new, "is not above the")

    def test_tagged_ids_compare_high_word_first(self):
        # (low 41, high 1) is above (low 43, high 0)
        frame, at = corrupt(two_tagged_points(), "<QQ", (42, 0), (41, 1))
        with pytest.raises(WireError, match=f"id 43 at offset {at + 40} is not above"):
            decode_frame(frame)
        frame, _ = corrupt(two_tagged_points(), "<QQ", (43, 0), (41, 1))
        assert decode_frame(frame).points[0] == [42, 41 | 1 << 64]

    def test_tagged_id_fault_before_position_fault(self):
        # both rows are bad: the repeated id comes first in the payload
        msg = two_tagged_points()
        msg.points[1][1, 0] = NAN
        frame, at = corrupt(msg, "<QQ", (43, 0), (42, 0))
        with pytest.raises(WireError, match=f"id 42 at offset {at} is not above"):
            decode_frame(frame)
        msg.points[1][0, 2] = INF
        with pytest.raises(WireError, match=f"non-finite position inf at offset {at - 8}"):
            decode_frame(corrupt(msg, "<QQ", (43, 0), (42, 0))[0])

    def test_zero_weight_is_accepted(self):
        frame, _ = corrupt(bow_announce(), "<f", (0.25,), (0.0,))
        assert decode_frame(frame).words[1] == 0.0


# ---------------------------------------------------------------------------
# Random messages of every type, and the reference codec
# ---------------------------------------------------------------------------

def _uuid(rnd):
    return rnd.getrandbits(128)


def _words(rnd):
    ids = rnd.sample(range(1 << 32), rnd.randint(0, 6))
    return {w: float(np.float32(rnd.uniform(0.0, 1.0))) for w in ids}


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


MAKERS = {
    MessageType.BOW_ANNOUNCE: lambda rnd: BowAnnounce(3, _uuid(rnd), _words(rnd)),
    MessageType.FULL_MAP: lambda rnd: FullMapMsg(3, _uuid(rnd), *_map(rnd)),
    MessageType.MERGE_NOTIFY: lambda rnd: MergeNotify(
        3, Sim3Transform(rnd.uniform(0.1, 10.0), _rotation(rnd), _vec(rnd)),
        _roster(rnd), _roster(rnd), rnd.getrandbits(64)),
    MessageType.KEYFRAME_PACKET: lambda rnd: KeyFramePacket(3, *_map(rnd)),
    MessageType.ALIGNMENT_REQUEST: lambda rnd: AlignmentRequest(3),
    MessageType.TAGGED_POINTS: _tagged,
    MessageType.GROUP_UPDATE: lambda rnd: GroupUpdate(3, _roster(rnd), rnd.randrange(1 << 16)),
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


TRUNCATED = re.compile(r"truncated payload: need (\d+) bytes at offset (\d+), have (\d+)")


class TestTruncationSweep:
    @pytest.mark.parametrize("kind", list(MessageType), ids=lambda k: k.name)
    def test_every_cut_names_an_offset(self, kind):
        # the largest of a few random messages, so every field kind is cut;
        # the three types without a payload have nothing to cut
        msg = max((random_message(kind, seed) for seed in range(8)),
                  key=lambda m: len(encode_message(m)[1]))
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
    assert all(math.isfinite(w) and w >= 0.0 for w in words.values())


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
        assert ids == sorted(set(ids))
        assert positions.shape == (len(ids), 3)
        assert_finite(positions)


EDIT = st.tuples(st.sampled_from(["flip", "insert", "cut"]),
                 st.integers(0, 1 << 16), st.integers(1, 255))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(kind=st.sampled_from(list(MessageType)), seed=st.integers(0, 1 << 32),
       refit=st.booleans(), edits=st.lists(EDIT, min_size=1, max_size=4))
def test_mutated_frames_fail_closed(kind, seed, refit, edits):
    """Byte flips, insertions and cuts either raise WireError or decode to a
    well-formed message equal to what the reference decoder makes of them.

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
    except WireError:
        return
    assert_well_formed(out)
    assert plain(out) == plain(reference_decode(bytes(data)))
