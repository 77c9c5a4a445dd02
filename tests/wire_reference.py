"""The wire codec written one element at a time: one ``struct`` call and one
slice per fixed field, one byte per varint step, one id or word row per loop
step.

Kept only as the reference that the batched codec in ``meshslam.wire`` must
match byte for byte and value for value on valid messages.  It follows the
current layouts: a 13-byte version 6 header with no sequence number; every
single id, record id and first id of a list as the zigzag varint of its
difference from the last id the payload wrote; id lists and histograms as
varint counts and varint gaps; keyframe and point counts and a point's word
as varints; a keyframe record's histogram and observed ids written against
the record before it, and a point record's observers without the payload's
keyframes that observe it; alignment requests as an id list, tagged points
as an id list and then a block of positions, group updates as a roster
alone, localization states as a u32 epoch.  It checks what the codec checks,
in header and payload order and with the same messages.
"""

from __future__ import annotations

import itertools
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
    LocalizationState,
    MergeNotify,
    MessageType,
    TaggedPoints,
    WireError,
)


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []
        self.prev = 0  # the last id written

    def u8(self, v): self.parts.append(struct.pack("<B", v))
    def u16(self, v): self.parts.append(struct.pack("<H", v))
    def u32(self, v): self.parts.append(struct.pack("<I", v))
    def u64(self, v): self.parts.append(struct.pack("<Q", v))
    def f64(self, v): self.parts.append(struct.pack("<d", v))

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
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.off = offset
        self.prev = 0  # the last id read

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
    def f64(self): return struct.unpack("<d", self._take(8))[0]

    def varint(self):
        start = self.off
        value = 0
        for shift in itertools.count(0, 7):
            if self.off == len(self.data):
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

    def ids(self, bad=lambda uid: False, what=""):
        """An id list; the first id for which `bad` is true raises
        WireError(``what.format(id, offset)``)."""
        ids = []
        for i in range(self.count()):
            start = self.off
            if i == 0:
                ids.append(self.id())
            else:
                ids.append(self._checked(ids[-1] + self.varint() + 1, start))
            if bad(ids[-1]):
                raise WireError(what.format(ids[-1], start))
        if ids:
            self.prev = ids[-1]
        return ids

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


def _write_word_delta(w: _Writer, old: dict[int, int], words: dict[int, int]) -> None:
    """The word ids `words` drops from `old`, then the rows whose count is new
    or changed."""
    removed = sorted(word for word in old if word not in words)
    w.varint(len(removed))
    for i, word in enumerate(removed):
        w.varint(word - (removed[i - 1] if i else -1) - 1)
    _write_words(w, {word: c for word, c in words.items() if old.get(word) != c})


def _read_word_delta(r: _Reader, old: dict[int, int]) -> dict[int, int]:
    start = r.off
    removed = set()
    word = -1
    for _ in range(r.count()):
        at = r.off
        word += r.varint() + 1
        if word not in old:
            raise WireError(f"removed word {word} at offset {at} is not in the previous histogram")
        removed.add(word)
    changed = {}
    word = -1
    for _ in range(r.count()):
        at = r.off
        word += r.varint() + 1
        if word > 0xFFFFFFFF:
            raise WireError(f"word id {word} at offset {at} is above 2^32 - 1")
        if word in removed:
            raise WireError(f"word {word} at offset {at} is both removed and counted")
        at = r.off
        count = r.varint()
        if count == 0:
            raise WireError(f"word count 0 at offset {at} is not positive")
        if count == old.get(word):
            raise WireError(f"word count {count} at offset {at} equals the previous histogram's")
        changed[word] = count
    words = {word: c for word, c in old.items() if word not in removed}
    words.update(changed)
    total = sum(words.values())
    if total > 65535:
        raise WireError(f"histogram at offset {start} adds up to {total}, above 65535")
    return dict(sorted(words.items()))


def _write_keyframes(w: _Writer, kfs) -> None:
    w.varint(len(kfs))
    words, observed = {}, set()
    for kf in kfs:
        w.id(kf.id)
        w.u16(kf.origin_agent)
        w.f64(kf.timestamp)
        _write_pose(w, kf.pose)
        _write_word_delta(w, words, kf.words)
        now = set(kf.observed_points)
        w.ids(sorted(observed - now))
        w.ids(sorted(now - observed))
        words, observed = kf.words, now


def _read_keyframes(r: _Reader) -> list[KeyFrame]:
    kfs = []
    words, observed = {}, set()
    for _ in range(r.count()):
        uid = r.id()
        origin = r.u16()
        ts = _read_finite(r, 1, "timestamp")[0]
        pose = _read_pose(r)
        words = _read_word_delta(r, words)
        removed = r.ids(lambda i: i not in observed,
                        "removed id {} at offset {} is not in the previous keyframe's observed ids")
        added = r.ids(lambda i: i in observed,
                      "added id {} at offset {} is already in the previous keyframe's observed ids")
        observed = set(sorted(observed.difference(removed).union(added)))
        kfs.append(KeyFrame(uid, origin, ts, pose, words, observed))
    return kfs


def _observing(kfs, pid) -> set[int]:
    """The ids of the keyframe records of `kfs` that observe point `pid`."""
    return {kf.id for kf in kfs if pid in kf.observed_points}


def _write_points(w: _Writer, points, kfs) -> None:
    w.varint(len(points))
    for p in points:
        w.id(p.id)
        for v in p.position:
            w.f64(float(v))
        if not 0 <= p.word <= 0xFFFFFFFF:
            raise ValueError(f"word id {p.word} is outside [0, 2^32 - 1]")
        w.varint(p.word)
        w.ids(sorted(set(p.observers) - _observing(kfs, p.id)))


def _read_points(r: _Reader, kfs) -> list[MapPoint]:
    points = []
    for _ in range(r.count()):
        uid = r.id()
        pos = np.array(_read_finite(r, 3, "position"))
        start = r.off
        word = r.varint()
        if word > 0xFFFFFFFF:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        implied = _observing(kfs, uid)
        explicit = r.ids(lambda i: i in implied,
                         "observer {} at offset {} is implied by a keyframe of the payload")
        points.append(MapPoint(uid, pos, word, set(sorted(implied.union(explicit)))))
    return points


def _write_map_body(w: _Writer, kfs, points) -> None:
    _write_keyframes(w, kfs)
    _write_points(w, points, kfs)


def _read_map_body(r: _Reader):
    kfs = _read_keyframes(r)
    return kfs, _read_points(r, kfs)


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
        w.id(msg.kf_id)
        _write_words(w, msg.words)
        return MessageType.BOW_ANNOUNCE, w.getvalue()
    if isinstance(msg, FullMapMsg):
        w.id(msg.hint_kf)
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
        w.ids(msg.ids)
        return MessageType.ALIGNMENT_REQUEST, w.getvalue()
    if isinstance(msg, TaggedPoints):
        ids, positions = msg.points
        w.ids(ids)
        for pos in positions:
            for v in pos:
                w.f64(float(v))
        return MessageType.TAGGED_POINTS, w.getvalue()
    if isinstance(msg, GroupUpdate):
        w.u16(len(msg.roster))
        for aid in msg.roster:
            w.u16(aid)
        return MessageType.GROUP_UPDATE, w.getvalue()
    if isinstance(msg, LocalizationState):
        w.u32(msg.epoch)
        return MessageType.LOCALIZATION_STATE, w.getvalue()
    raise TypeError(f"unknown message {type(msg).__name__}")


def decode_message(msg_type: int, sender: int, payload: bytes) -> Message:
    try:
        mt = MessageType(msg_type)
    except ValueError as exc:
        raise WireError(f"unknown message type {msg_type}") from exc
    r = _Reader(payload)
    if mt == MessageType.BOW_ANNOUNCE:
        kf_id = r.id()
        words = _read_words(r)
        r.done()
        return BowAnnounce(sender, kf_id, words)
    if mt == MessageType.FULL_MAP:
        hint = r.id()
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
        ids = r.ids()
        r.done()
        return AlignmentRequest(sender, ids)
    if mt == MessageType.TAGGED_POINTS:
        ids = r.ids()
        # one value at a time: a non-finite value is named before a later truncation
        values = [_read_finite(r, 1, "position")[0] for _ in range(3 * len(ids))]
        r.done()
        return TaggedPoints(sender, (ids, np.array(values, dtype=float).reshape(-1, 3)))
    if mt == MessageType.GROUP_UPDATE:
        roster = [r.u16() for _ in range(r.u16())]
        r.done()
        return GroupUpdate(sender, roster)
    epoch = r.u32()
    r.done()
    return LocalizationState(sender, epoch)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def encode_frame(msg: Message, sender: int) -> bytes:
    """Magic, version u16, type u8, sender u16, payload length u32, payload."""
    mt, payload = encode_message(msg)
    w = _Writer()
    w.parts.append(b"DVMS")
    w.u16(6)
    w.u8(mt)
    w.u16(sender)
    w.u32(len(payload))
    return w.getvalue() + payload


def decode_frame(data: bytes) -> Message:
    if len(data) < 13:
        raise WireError(f"truncated header: {len(data)} bytes, need 13 at offset 0")
    r = _Reader(data)
    magic = r._take(4)
    if magic != b"DVMS":
        raise WireError(f"bad magic {magic!r} at offset 0")
    version = r.u16()
    if version != 6:
        raise WireError(f"unsupported version {version} at offset 4")
    msg_type, sender, length = r.u8(), r.u16(), r.u32()
    if len(data) != 13 + length:
        raise WireError(f"payload length field {length} does not match "
                        f"{len(data) - 13} bytes present (offset 9)")
    return decode_message(msg_type, sender, data[13:])


