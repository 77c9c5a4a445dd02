"""Binary wire protocol.

Envelope layout (all multi-byte integers little-endian):

    magic   4 bytes  b"DVMS"
    version u16      1
    type    u8       message type tag
    sender  u16      agent id
    seq     u64      per-sender monotone sequence number
    length  u32      payload byte count
    payload

Keyframe packet payload:

    kf_count u32
    per keyframe: uuid 16B, origin u16, timestamp f64,
                  pose 7*f64 (qw qx qy qz tx ty tz),
                  word_count u32 + (word u32, weight f32)*,
                  obs_count u32 + uuid*
    mp_count u32
    per point: uuid 16B, xyz 3*f64, word u32, observer_count u32 + uuid*

Tagged point payload: count u32, then per point uuid 16B + xyz 3*f64.
Decoding is fail-closed: any structural problem raises WireError naming the
byte offset (counted from the start of the payload for payload fields); no
partially decoded object escapes.  Besides the layout, the decoder rejects
non-finite floats, quaternions of zero or non-finite norm, SIM(3) scales that
are not positive, and word weights that are negative.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .geometry import Rotation, Se3Pose, Sim3Transform

MAGIC = b"DVMS"
VERSION = 1
_HEADER = struct.Struct("<4sHBHQI")
HEADER_SIZE = _HEADER.size  # 21


class WireError(ValueError):
    pass


class MessageType(IntEnum):
    BOW_ANNOUNCE = 1
    FULL_MAP = 2
    MERGE_NOTIFY = 3
    KEYFRAME_PACKET = 4
    ALIGNMENT_REQUEST = 5
    TAGGED_POINTS = 6
    GROUP_UPDATE = 7
    LOC_LOST = 8
    LOC_REGAINED = 9


# ---------------------------------------------------------------------------
# Plain records crossing the wire
# ---------------------------------------------------------------------------

@dataclass
class KeyFrameRecord:
    uuid: int
    origin_agent: int
    timestamp: float
    pose: Se3Pose
    words: dict[int, float]
    observed_points: list[int]


@dataclass
class MapPointRecord:
    uuid: int
    position: np.ndarray
    word: int
    observers: list[int]


@dataclass
class BowAnnounce:
    sender: int
    kf_id: int
    words: dict[int, float]


@dataclass
class FullMapMsg:
    sender: int
    hint_kf: int
    keyframes: list[KeyFrameRecord]
    points: list[MapPointRecord]


@dataclass
class MergeNotify:
    sender: int
    transform: Sim3Transform
    roster: list[int]            # merged group membership
    transform_roster: list[int]  # agents whose maps must apply the transform
    merge_id: int = 0            # dedupe key: notices are re-sent for loss tolerance


@dataclass
class KeyFramePacket:
    sender: int
    sequence: int
    keyframes: list[KeyFrameRecord]
    points: list[MapPointRecord]


@dataclass
class AlignmentRequest:
    sender: int


@dataclass
class TaggedPoints:
    sender: int
    points: list[tuple[int, np.ndarray]]


@dataclass
class GroupUpdate:
    sender: int
    roster: list[int]
    leader: int


@dataclass
class LocalizationLost:
    sender: int


@dataclass
class LocalizationRegained:
    sender: int


Message = (
    BowAnnounce | FullMapMsg | MergeNotify | KeyFramePacket
    | AlignmentRequest | TaggedPoints | GroupUpdate
    | LocalizationLost | LocalizationRegained
)


# ---------------------------------------------------------------------------
# Primitive writer / reader
# ---------------------------------------------------------------------------

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
# Record codecs
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


def _write_keyframe(w: _Writer, kf: KeyFrameRecord) -> None:
    w.uuid(kf.uuid)
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


def _read_keyframe(r: _Reader) -> KeyFrameRecord:
    uuid = r.uuid()
    origin = r.u16()
    ts = _read_finite(r, 1, "timestamp")[0]
    pose = _read_pose(r)
    words = _read_words(r)
    obs = [r.uuid() for _ in range(r.u32())]
    return KeyFrameRecord(uuid, origin, ts, pose, words, obs)


def _write_point(w: _Writer, p: MapPointRecord) -> None:
    w.uuid(p.uuid)
    for v in p.position:
        w.f64(float(v))
    w.u32(p.word)
    w.u32(len(p.observers))
    for kid in sorted(p.observers):
        w.uuid(kid)


def _read_point(r: _Reader) -> MapPointRecord:
    uuid = r.uuid()
    pos = np.array(_read_finite(r, 3, "position"))
    word = r.u32()
    observers = [r.uuid() for _ in range(r.u32())]
    return MapPointRecord(uuid, pos, word, observers)


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
        w.u32(len(msg.points))
        for uuid, pos in msg.points:
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
        return KeyFramePacket(sender, sequence, kfs, points)
    if mt == MessageType.ALIGNMENT_REQUEST:
        r.done()
        return AlignmentRequest(sender)
    if mt == MessageType.TAGGED_POINTS:
        pts = []
        for _ in range(r.u32()):
            uuid = r.uuid()
            pos = np.array(_read_finite(r, 3, "position"))
            pts.append((uuid, pos))
        r.done()
        return TaggedPoints(sender, pts)
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


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def encode_envelope(msg_type: MessageType, sender: int, sequence: int,
                    payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, int(msg_type), sender, sequence,
                        len(payload)) + payload


def decode_envelope(data: bytes) -> tuple[int, int, int, bytes]:
    """Returns (msg_type, sender, sequence, payload)."""
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"truncated header: {len(data)} bytes, need {HEADER_SIZE} at offset 0"
        )
    magic, version, msg_type, sender, sequence, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise WireError(f"unsupported version {version} at offset 4")
    if len(data) != HEADER_SIZE + length:
        raise WireError(
            f"payload length field {length} does not match "
            f"{len(data) - HEADER_SIZE} bytes present (offset 17)"
        )
    return msg_type, sender, sequence, data[HEADER_SIZE:]


def encode_frame(msg: Message, sender: int, sequence: int) -> bytes:
    msg_type, payload = encode_message(msg)
    return encode_envelope(msg_type, sender, sequence, payload)


def decode_frame(data: bytes) -> Message:
    msg_type, sender, sequence, payload = decode_envelope(data)
    return decode_message(msg_type, sender, sequence, payload)
