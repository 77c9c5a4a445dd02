"""The wire codec written one element at a time: one ``struct`` call and one
slice per fixed field, one byte per varint step, one id or word row per loop
step, one stream byte per inflate call.

Kept only as the reference that the batched codec in ``meshslam.wire`` must
match byte for byte and value for value on valid messages.  It follows the
current layouts: a 13-byte version 8 header with no sequence number, then the
payload's other fields as one raw DEFLATE stream (level 6, 4 KiB window) and
its f64 values after it; every f64 value of a payload after all its other
fields, in field order; every single id, record id and first id of a list as
the zigzag varint of its difference from the last id the payload wrote; id
lists and histograms as varint counts and varint gaps; keyframe and point
counts and a point's word as varints; self-contained keyframe records (full
histogram, full observed ids) and point records (full observers); full maps
as a hint id and point records alone; alignment requests as an id list,
tagged points as an id list and then a block of positions, group updates as
a roster alone, localization states as a u32 epoch.  It checks what the
codec checks, in header, stream and field order (a record's f64 values, read
from the bytes after the stream, after its other fields) and with the same
messages.
"""

from __future__ import annotations

import itertools
import math
import struct
import zlib

import numpy as np

from meshslam.geometry import Rotation, Se3Pose, Sim3Transform
from meshslam.map_store import KeyFrame, MapPoint
from meshslam.wire import (
    AlignmentRequest,
    BowAnnounce,
    FullMapMsg,
    GroupUpdate,
    KeyFramePacket,
    LocalizationState,
    MergeNotify,
    MessageType,
    TaggedPoints,
    WireError,
)


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []
        self.floats: list[bytes] = []  # f64 values, which follow the other parts
        self.prev = 0  # the last id written

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u16(self, v): self.parts.append(struct.pack("<H", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def u64(self, v): self.parts.append(struct.pack("<Q", v))
    def f64(self, v): self.floats.append(struct.pack("<d", v))

    def varint(self, v):
        while True:
            byte, v = v & 0x7F, v >> 7
            self.parts.append(bytes([byte | 0x80 if v else byte]))
            if not v:
                return

    def id(self, v):
        """The zigzag varint of `v`'s difference from the last id written."""
        if not 0 <= v < 1 << 128:
            raise ValueError(f"id {v} is outside [0, 2^128 - 1]")
        d = v - self.prev
        self.varint(2 * d if d >= 0 else -2 * d - 1)
        self.prev = v

    def ids(self, ids):
        """Ascending ids: a varint count, the first id as `id` writes it, then
        each later id's gap to the one before minus one."""
        self.varint(len(ids))
        for i, uid in enumerate(ids):
            if i == 0:
                self.id(uid)
            else:
                self.varint(uid - ids[i - 1] - 1)
        if ids:
            self.prev = ids[-1]

    def getvalue(self) -> bytes:
        return b"".join(self.parts + self.floats)


class _Reader:
    def __init__(self, data: bytes, offset: int = 0, end: int | None = None):
        self.data = data
        self.off = offset
        self.end = len(data) if end is None else end
        self.prev = 0  # the last id read

    def _take(self, n: int) -> bytes:
        if self.off + n > self.end:
            raise WireError(
                f"truncated payload: need {n} bytes at offset {self.off}, "
                f"have {self.end - self.off}"
            )
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self): return struct.unpack("<B", self._take(1))[0]
    def u16(self): return struct.unpack("<H", self._take(2))[0]
    def u32(self): return struct.unpack("<I", self._take(4))[0]
    def u64(self): return struct.unpack("<Q", self._take(8))[0]
    def f64(self): return struct.unpack("<d", self._take(8))[0]

    def varint(self):
        start = self.off
        value = 0
        for shift in itertools.count(0, 7):
            if self.off == self.end:
                raise WireError(f"truncated payload: need {self.off - start + 1} bytes "
                                f"at offset {start}, have {self.off - start}")
            byte = self.data[self.off]
            self.off += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
        if byte == 0 and self.off - start > 1:
            raise WireError(f"non-minimal varint at offset {start}")
        return value

    def count(self):
        start = self.off
        n = self.varint()
        if n > 0xFFFFFFFF:
            raise WireError(f"list count {n} at offset {start} is above 2^32 - 1")
        return n

    def _checked(self, uid, start):
        if uid < 0:
            raise WireError(f"id {uid} at offset {start} is below 0")
        if uid >= 1 << 128:
            raise WireError(f"id {uid} at offset {start} is above 2^128 - 1")
        return uid

    def id(self):
        start = self.off
        z = self.varint()
        self.prev = self._checked(self.prev + (z // 2 if z % 2 == 0 else -(z + 1) // 2), start)
        return self.prev

    def ids(self):
        ids = []
        for i in range(self.count()):
            start = self.off
            if i == 0:
                ids.append(self.id())
            else:
                ids.append(self._checked(ids[-1] + self.varint() + 1, start))
        if ids:
            self.prev = ids[-1]
        return ids

    def done(self) -> None:
        if self.off != self.end:
            raise WireError(
                f"trailing garbage: {self.end - self.off} bytes at offset {self.off}"
            )


# ---------------------------------------------------------------------------
# Map object codecs
# ---------------------------------------------------------------------------

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
            rotation = Rotation.from_quat(*q)
    except ValueError as exc:
        raise WireError(
            f"quaternion at offset {start} has zero, subnormal or non-finite norm") from exc
    if all(abs(a - b) <= 2.0 ** -50 for a, b in zip(rotation.q, q)):
        return Rotation(np.array(q))
    return rotation


def _read_pose(r: _Reader) -> Se3Pose:
    rotation = _read_rotation(r)
    return Se3Pose(rotation, np.array(_read_finite(r, 3, "translation"), dtype=float))


def _write_words(w: _Writer, words: dict[int, int]) -> None:
    w.varint(len(words))
    prev = -1
    for word in sorted(words):
        w.varint(word - prev - 1)
        w.varint(words[word])
        prev = word


def _read_words(r: _Reader) -> dict[int, int]:
    words = {}
    total = 0
    word = -1
    for _ in range(r.count()):
        start = r.off
        word += r.varint() + 1
        if word > 0xFFFFFFFF:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        start = r.off
        count = r.varint()
        total += count
        if count == 0:
            raise WireError(f"word count 0 at offset {start} is not positive")
        if total > 65535:
            raise WireError(f"word count {count} at offset {start} takes the histogram's "
                            f"total to {total}, above 65535")
        words[word] = count
    return words


def _write_keyframes(w: _Writer, kfs) -> None:
    w.varint(len(kfs))
    for kf in kfs:
        w.id(kf.id)
        w.u16(kf.origin_agent)
        _write_words(w, kf.words)
        w.ids(sorted(kf.observed_points))
        for v in (kf.timestamp, *kf.pose.rotation.q, *kf.pose.translation):
            w.f64(float(v))


def _write_points(w: _Writer, points) -> None:
    w.varint(len(points))
    for p in points:
        w.id(p.id)
        if not 0 <= p.word <= 0xFFFFFFFF:
            raise ValueError(f"word id {p.word} is outside [0, 2^32 - 1]")
        w.varint(p.word)
        w.ids(sorted(p.observers))
        for v in p.position:
            w.f64(float(v))


def _read_keyframes(r: _Reader) -> list[KeyFrame]:
    """Each record's other fields, then its f64 values from ``r.f64``."""
    kfs = []
    for _ in range(r.count()):
        uid = r.id()
        origin = r.u16()
        words = _read_words(r)
        observed = set(r.ids())
        ts = _read_finite(r.f64, 1, "timestamp")[0]
        kfs.append(KeyFrame(uid, origin, ts, _read_pose(r.f64), words, observed))
    return kfs


def _read_points(r: _Reader) -> list[MapPoint]:
    points = []
    for _ in range(r.count()):
        uid = r.id()
        start = r.off
        word = r.varint()
        if word > 0xFFFFFFFF:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        observers = set(r.ids())
        points.append(MapPoint(uid, np.array(_read_finite(r.f64, 3, "position")), word,
                               observers))
    return points


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

def encode_message(msg: Message) -> tuple[MessageType, bytes, int]:
    mt, w = _write(msg)
    return mt, w.getvalue(), 8 * len(w.floats)


def _write(msg: Message) -> tuple[MessageType, _Writer]:
    w = _Writer()
    if isinstance(msg, BowAnnounce):
        w.id(msg.kf_id)
        _write_words(w, msg.words)
        return MessageType.BOW_ANNOUNCE, w
    if isinstance(msg, FullMapMsg):
        w.id(msg.hint_kf)
        _write_points(w, msg.points)
        return MessageType.FULL_MAP, w
    if isinstance(msg, MergeNotify):
        t = msg.transform
        for v in (t.scale, *t.rotation.q, *t.translation):
            w.f64(float(v))
        w.u16(len(msg.roster))
        for aid in msg.roster:
            w.u16(aid)
        w.u16(len(msg.transform_roster))
        for aid in msg.transform_roster:
            w.u16(aid)
        w.u64(msg.merge_id)
        return MessageType.MERGE_NOTIFY, w
    if isinstance(msg, KeyFramePacket):
        _write_keyframes(w, msg.keyframes)
        _write_points(w, msg.points)
        return MessageType.KEYFRAME_PACKET, w
    if isinstance(msg, AlignmentRequest):
        w.ids(msg.ids)
        return MessageType.ALIGNMENT_REQUEST, w
    if isinstance(msg, TaggedPoints):
        ids, positions = msg.points
        w.ids(ids)
        for pos in positions:
            for v in pos:
                w.f64(float(v))
        return MessageType.TAGGED_POINTS, w
    if isinstance(msg, GroupUpdate):
        w.u16(len(msg.roster))
        for aid in msg.roster:
            w.u16(aid)
        return MessageType.GROUP_UPDATE, w
    if isinstance(msg, LocalizationState):
        w.u32(msg.epoch)
        return MessageType.LOCALIZATION_STATE, w
    raise TypeError(f"unknown message {type(msg).__name__}")


def decode_message(msg_type: int, sender: int, payload: bytes, f64_bytes: int = 0) -> Message:
    """The message whose payload ends in `f64_bytes` bytes of f64 values,
    which its fields read, in field order, from a reader of their own."""
    try:
        mt = MessageType(msg_type)
    except ValueError as exc:
        raise WireError(f"unknown message type {msg_type}") from exc
    split = len(payload) - f64_bytes
    r = _Reader(payload, 0, split)
    r.f64 = _Reader(payload, split)
    message = _read(mt, sender, r)
    r.done()
    r.f64.done()
    return message


def _read(mt: MessageType, sender: int, r: _Reader) -> Message:
    if mt == MessageType.BOW_ANNOUNCE:
        kf_id = r.id()
        return BowAnnounce(sender, kf_id, _read_words(r))
    if mt == MessageType.FULL_MAP:
        hint = r.id()
        return FullMapMsg(sender, hint, _read_points(r))
    if mt == MessageType.MERGE_NOTIFY:
        t = _read_sim3(r.f64)
        roster = [r.u16() for _ in range(r.u16())]
        transform_roster = [r.u16() for _ in range(r.u16())]
        return MergeNotify(sender, t, roster, transform_roster, r.u64())
    if mt == MessageType.KEYFRAME_PACKET:
        kfs = _read_keyframes(r)
        return KeyFramePacket(sender, kfs, _read_points(r))
    if mt == MessageType.ALIGNMENT_REQUEST:
        return AlignmentRequest(sender, r.ids())
    if mt == MessageType.TAGGED_POINTS:
        ids = r.ids()
        # one value at a time: a non-finite value is named before a later truncation
        values = [_read_finite(r.f64, 1, "position")[0] for _ in range(3 * len(ids))]
        return TaggedPoints(sender, (ids, np.array(values, dtype=float).reshape(-1, 3)))
    if mt == MessageType.GROUP_UPDATE:
        return GroupUpdate(sender, [r.u16() for _ in range(r.u16())])
    return LocalizationState(sender, r.u32())


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

MAX_PAYLOAD = 1 << 24


def encode_frame(msg: Message, sender: int) -> bytes:
    """Magic, version u16, type u8, sender u16, body length u32, then the
    body: the payload's other fields as one raw DEFLATE stream, then its f64
    values."""
    mt, payload = _write(msg)
    body = zlib.compress(b"".join(payload.parts), 6, -12) + b"".join(payload.floats)
    w = _Writer()
    w.parts.append(b"DVMS")
    w.u16(8)
    w.u8(mt)
    w.u16(sender)
    w.u32(len(body))
    return w.getvalue() + body


def inflate(data: bytes) -> tuple[bytes, int]:
    """The payload, the stream after the header fed to zlib one byte at a
    time and asking it for no more than one byte past the bound and then the
    bytes after the stream, and the count of those bytes."""
    d = zlib.decompressobj(-15)
    parts, size, off = [], 0, 13
    while off < len(data) and not d.eof:
        try:
            parts.append(d.decompress(data[off:off + 1], MAX_PAYLOAD + 1 - size))
        except zlib.error as exc:
            raise WireError(f"bad deflate stream at offset {off}: "
                            f"{str(exc).partition(': ')[2]}") from None
        size += len(parts[-1])
        if size > MAX_PAYLOAD:
            raise WireError(f"deflate stream at offset 13 inflates past {MAX_PAYLOAD} bytes")
        off += 1
    if not d.eof:
        raise WireError(f"deflate stream at offset 13 does not end by offset {len(data)}")
    return b"".join(parts) + data[off:], len(data) - off


def decode_frame(data: bytes) -> Message:
    if len(data) < 13:
        raise WireError(f"truncated header: {len(data)} bytes, need 13 at offset 0")
    r = _Reader(data)
    magic = r._take(4)
    if magic != b"DVMS":
        raise WireError(f"bad magic {magic!r} at offset 0")
    version = r.u16()
    if version != 8:
        raise WireError(f"unsupported version {version} at offset 4")
    msg_type, sender, length = r.u8(), r.u16(), r.u32()
    if len(data) != 13 + length:
        raise WireError(f"payload length field {length} does not match "
                        f"{len(data) - 13} bytes present (offset 9)")
    return decode_message(msg_type, sender, *inflate(data))
