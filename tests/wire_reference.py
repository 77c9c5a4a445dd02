"""The wire codec as it was before fixed layouts were read and written in one
struct call each: one ``struct`` call and one slice per field.

Kept only as the reference that the batched codec in ``meshslam.wire`` must
match byte for byte and value for value on valid messages.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from meshslam.geometry import Rotation, Se3Pose, Sim3Transform
from meshslam.map_store import KeyFrame, MapPoint
from meshslam.wire import (
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
)


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u16(self, v): self.parts.append(struct.pack("<H", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def u64(self, v): self.parts.append(struct.pack("<Q", v))
    def f32(self, v): self.parts.append(struct.pack("<f", v))
    def f64(self, v): self.parts.append(struct.pack("<d", v))
    def uuid(self, v): self.parts.append(int(v).to_bytes(16, "little"))

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.off = offset

    def _take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise WireError(
                f"truncated payload: need {n} bytes at offset {self.off}, "
                f"have {len(self.data) - self.off}"
            )
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self): return struct.unpack("<B", self._take(1))[0]
    def u16(self): return struct.unpack("<H", self._take(2))[0]
    def u32(self): return struct.unpack("<I", self._take(4))[0]
    def u64(self): return struct.unpack("<Q", self._take(8))[0]
    def f32(self): return struct.unpack("<f", self._take(4))[0]
    def f64(self): return struct.unpack("<d", self._take(8))[0]
    def uuid(self): return int.from_bytes(self._take(16), "little")

    def done(self) -> None:
        if self.off != len(self.data):
            raise WireError(
                f"trailing garbage: {len(self.data) - self.off} bytes at offset {self.off}"
            )


# ---------------------------------------------------------------------------
# Map object codecs
# ---------------------------------------------------------------------------

def _write_pose(w: _Writer, pose: Se3Pose) -> None:
    q = pose.rotation.q
    for v in (q[0], q[1], q[2], q[3]):
        w.f64(float(v))
    for v in pose.translation:
        w.f64(float(v))


def _read_finite(r: _Reader, n: int, what: str) -> list[float]:
    start = r.off
    vals = [r.f64() for _ in range(n)]
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            raise WireError(f"non-finite {what} {v} at offset {start + 8 * i}")
    return vals


def _read_rotation(r: _Reader) -> Rotation:
    start = r.off
    q = _read_finite(r, 4, "quaternion component")
    try:
        with np.errstate(over="ignore"):
            return Rotation.from_quat(*q)
    except ValueError as exc:
        raise WireError(f"quaternion at offset {start} has zero or non-finite norm") from exc


def _read_pose(r: _Reader) -> Se3Pose:
    rotation = _read_rotation(r)
    return Se3Pose(rotation, np.array(_read_finite(r, 3, "translation"), dtype=float))


def _read_words(r: _Reader) -> dict[int, float]:
    words = {}
    for _ in range(r.u32()):
        word = r.u32()
        start = r.off
        weight = float(r.f32())
        if not (math.isfinite(weight) and weight >= 0.0):
            raise WireError(f"word weight {weight} at offset {start} is negative or not finite")
        words[word] = weight
    return words


def _write_keyframe(w: _Writer, kf: KeyFrame) -> None:
    w.uuid(kf.id)
    w.u16(kf.origin_agent)
    w.f64(kf.timestamp)
    _write_pose(w, kf.pose)
    w.u32(len(kf.words))
    for word in sorted(kf.words):
        w.u32(word)
        w.f32(kf.words[word])
    w.u32(len(kf.observed_points))
    for pid in sorted(kf.observed_points):
        w.uuid(pid)


def _read_keyframe(r: _Reader) -> KeyFrame:
    uuid = r.uuid()
    origin = r.u16()
    ts = _read_finite(r, 1, "timestamp")[0]
    pose = _read_pose(r)
    words = _read_words(r)
    obs = {r.uuid() for _ in range(r.u32())}
    return KeyFrame(uuid, origin, ts, pose, words, obs)


def _write_point(w: _Writer, p: MapPoint) -> None:
    w.uuid(p.id)
    for v in p.position:
        w.f64(float(v))
    w.u32(p.word)
    w.u32(len(p.observers))
    for kid in sorted(p.observers):
        w.uuid(kid)


def _read_point(r: _Reader) -> MapPoint:
    uuid = r.uuid()
    pos = np.array(_read_finite(r, 3, "position"))
    word = r.u32()
    observers = {r.uuid() for _ in range(r.u32())}
    return MapPoint(uuid, pos, word, observers)


def _write_map_body(w: _Writer, kfs, points) -> None:
    w.u32(len(kfs))
    for kf in kfs:
        _write_keyframe(w, kf)
    w.u32(len(points))
    for p in points:
        _write_point(w, p)


def _read_map_body(r: _Reader):
    kfs = [_read_keyframe(r) for _ in range(r.u32())]
    points = [_read_point(r) for _ in range(r.u32())]
    return kfs, points


def _write_sim3(w: _Writer, t: Sim3Transform) -> None:
    w.f64(t.scale)
    q = t.rotation.q
    for v in (q[0], q[1], q[2], q[3]):
        w.f64(float(v))
    for v in t.translation:
        w.f64(float(v))


def _read_sim3(r: _Reader) -> Sim3Transform:
    start = r.off
    scale = _read_finite(r, 1, "scale")[0]
    if scale <= 0.0:
        raise WireError(f"non-positive scale {scale} at offset {start}")
    rotation = _read_rotation(r)
    return Sim3Transform(
        scale, rotation, np.array(_read_finite(r, 3, "translation"), dtype=float)
    )


# ---------------------------------------------------------------------------
# Message <-> payload
# ---------------------------------------------------------------------------

def encode_message(msg: Message) -> tuple[MessageType, bytes]:
    w = _Writer()
    if isinstance(msg, BowAnnounce):
        w.uuid(msg.kf_id)
        w.u32(len(msg.words))
        for word in sorted(msg.words):
            w.u32(word)
            w.f32(msg.words[word])
        return MessageType.BOW_ANNOUNCE, w.getvalue()
    if isinstance(msg, FullMapMsg):
        w.uuid(msg.hint_kf)
        _write_map_body(w, msg.keyframes, msg.points)
        return MessageType.FULL_MAP, w.getvalue()
    if isinstance(msg, MergeNotify):
        _write_sim3(w, msg.transform)
        w.u16(len(msg.roster))
        for aid in msg.roster:
            w.u16(aid)
        w.u16(len(msg.transform_roster))
        for aid in msg.transform_roster:
            w.u16(aid)
        w.u64(msg.merge_id)
        return MessageType.MERGE_NOTIFY, w.getvalue()
    if isinstance(msg, KeyFramePacket):
        _write_map_body(w, msg.keyframes, msg.points)
        return MessageType.KEYFRAME_PACKET, w.getvalue()
    if isinstance(msg, AlignmentRequest):
        return MessageType.ALIGNMENT_REQUEST, b""
    if isinstance(msg, TaggedPoints):
        ids, positions = msg.points
        w.u32(len(ids))
        for uuid, pos in zip(ids, positions):
            w.uuid(uuid)
            for v in pos:
                w.f64(float(v))
        return MessageType.TAGGED_POINTS, w.getvalue()
    if isinstance(msg, GroupUpdate):
        w.u16(len(msg.roster))
        for aid in msg.roster:
            w.u16(aid)
        w.u16(msg.leader)
        return MessageType.GROUP_UPDATE, w.getvalue()
    if isinstance(msg, LocalizationLost):
        return MessageType.LOC_LOST, b""
    if isinstance(msg, LocalizationRegained):
        return MessageType.LOC_REGAINED, b""
    raise TypeError(f"unknown message {type(msg).__name__}")


def decode_message(msg_type: int, sender: int, sequence: int, payload: bytes) -> Message:
    try:
        mt = MessageType(msg_type)
    except ValueError as exc:
        raise WireError(f"unknown message type {msg_type}") from exc
    r = _Reader(payload)
    if mt == MessageType.BOW_ANNOUNCE:
        kf_id = r.uuid()
        words = _read_words(r)
        r.done()
        return BowAnnounce(sender, kf_id, words)
    if mt == MessageType.FULL_MAP:
        hint = r.uuid()
        kfs, points = _read_map_body(r)
        r.done()
        return FullMapMsg(sender, hint, kfs, points)
    if mt == MessageType.MERGE_NOTIFY:
        t = _read_sim3(r)
        roster = [r.u16() for _ in range(r.u16())]
        transform_roster = [r.u16() for _ in range(r.u16())]
        merge_id = r.u64()
        r.done()
        return MergeNotify(sender, t, roster, transform_roster, merge_id)
    if mt == MessageType.KEYFRAME_PACKET:
        kfs, points = _read_map_body(r)
        r.done()
        return KeyFramePacket(sender, kfs, points)
    if mt == MessageType.ALIGNMENT_REQUEST:
        r.done()
        return AlignmentRequest(sender)
    if mt == MessageType.TAGGED_POINTS:
        ids, rows = [], []
        for _ in range(r.u32()):
            ids.append(r.uuid())
            rows.append(_read_finite(r, 3, "position"))
        r.done()
        return TaggedPoints(sender, (ids, np.array(rows).reshape(-1, 3)))
    if mt == MessageType.GROUP_UPDATE:
        roster = [r.u16() for _ in range(r.u16())]
        leader = r.u16()
        r.done()
        return GroupUpdate(sender, roster, leader)
    if mt == MessageType.LOC_LOST:
        r.done()
        return LocalizationLost(sender)
    r.done()
    return LocalizationRegained(sender)


