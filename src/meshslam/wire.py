"""Binary wire protocol.

Envelope layout (all multi-byte integers little-endian):

    magic   4 bytes  b"DVMS"
    version u16      3
    type    u8       message type tag
    sender  u16      agent id
    seq     u64      per-sender monotone sequence number
    length  u32      payload byte count
    payload

Each message type is one ``_PAYLOADS`` row: its dataclass, its ledger
category and the codecs of its payload, the dataclass fields after ``sender``
in declaration order; the sequence number lives only in the envelope.  An
alignment request is one id list, the points the follower's fit may read; the
tagged points that answer it carry only those of them the leader holds.
Field codecs:

    uuid       16B, low 64 bits first
    ids        varint n + varint(id gap - 1)*n
    words      varint n + (varint(word id gap - 1), varint(count))*n
    keyframes  count u32 + per keyframe: uuid 16B, origin u16, timestamp f64,
               pose 7*f64 (qw qx qy qz tx ty tz), words, observed point ids
    points     count u32 + per point: uuid 16B, xyz 3*f64, word u32,
               observer ids
    sim3       scale f64, quaternion 4*f64, translation 3*f64
    roster     count u16 + agent id u16*
    tagged     ids, then their n positions as one n*3 f64 block

A varint is LEB128: an unsigned integer in groups of seven bits, lowest group
first, one group per byte, the high bit set on every byte but the last.  Id
lists and histogram word ids are strictly ascending, so each is written as its
gap to the one before it minus one, the first counted from -1: the ids
[0, 5, 6] are the varints 3 (the count), 0, 4, 0.  An id list therefore takes
the length of its count's varint plus the lengths of its gaps' varints.

Keyframes and map points travel as the map store's own KeyFrame and MapPoint
objects.  Decoding always builds fresh objects, so an object never reaches a
second agent by reference.  A histogram travels as the word counts its
keyframe holds, and a quaternion that is canonical up to rounding is kept as
sent (others are normalized and sign-canonicalized), so a keyframe decodes to
what its sender held, bit for bit.  Observed and observer id sets are written
in ascending order and decoded into sets built in that order; request and
tagged point ids travel in the order given, which the encoder requires to be
strictly ascending.

Decoding is fail-closed: any structural problem raises WireError naming the
byte offset (counted from the start of the payload for payload fields); no
partially decoded object escapes.  A field or varint cut off by the end of
the payload is a truncation naming where it starts.  Besides the layout, the
decoder rejects, in payload order: non-minimal varints (a last byte 0x00
after a continuation byte, so that every list has exactly one encoding), ids
above 2^128 - 1, list counts and word ids above 2^32 - 1, word counts of
zero, histograms whose counts add up to more than ``MAX_WORD_TOTAL`` (65535;
the error names the count that crosses it), non-finite floats, quaternions of
zero, subnormal or non-finite norm, and SIM(3) scales that are not positive.
The encoder raises ValueError on an id list that is not strictly ascending
(naming the index of the first id that is not above the one before it), on
ids or word ids outside the ranges above, and on a histogram whose counts are
not positive or add up to more than ``MAX_WORD_TOTAL``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .geometry import Rotation, Se3Pose, Sim3Transform
from .map_store import KeyFrame, MapPoint

MAGIC = b"DVMS"
VERSION = 3
_HEADER = struct.Struct("<4sHBHQI")
HEADER_SIZE = _HEADER.size  # 21
# the largest total of one histogram's word counts, so that any count fits a u16
MAX_WORD_TOTAL = 0xFFFF
_MAX_ID = (1 << 128) - 1  # ids are 128-bit uuids
_MAX_U32 = 0xFFFFFFFF     # list counts and word ids


class WireError(ValueError):
    pass


# Bandwidth ledger categories, the groups of the paper's bandwidth figure
CATEGORY_BOWS = "BoWs"
CATEGORY_FULL_MAP = "Full Map"
CATEGORY_KEYFRAMES = "Key Frames"
CATEGORY_ALIGNMENT = "Alignment Data"
CATEGORY_CONTROL = "Control"

CATEGORIES = [CATEGORY_KEYFRAMES, CATEGORY_BOWS, CATEGORY_FULL_MAP,
              CATEGORY_ALIGNMENT, CATEGORY_CONTROL]


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
# Messages
# ---------------------------------------------------------------------------

@dataclass
class BowAnnounce:
    sender: int
    kf_id: int
    words: dict[int, int]


@dataclass
class FullMapMsg:
    sender: int
    hint_kf: int
    keyframes: list[KeyFrame]
    points: list[MapPoint]


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
    keyframes: list[KeyFrame]
    points: list[MapPoint]


@dataclass
class AlignmentRequest:
    sender: int
    ids: list[int]  # strictly ascending ids of the points the follower's fit may read


@dataclass
class TaggedPoints:
    sender: int
    # (ids, positions): strictly ascending point ids and their (len(ids), 3) rows
    points: tuple[list[int], np.ndarray]


@dataclass
class GroupUpdate:
    sender: int
    roster: list[int]


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
# Fixed layouts, varints and the reader
# ---------------------------------------------------------------------------

_M64 = (1 << 64) - 1


class _Fields:
    """A fixed run of little-endian fields, packed and unpacked by one struct.

    A uuid is one ``QQ`` field (low word first).  The per-field sizes let a
    truncated read name the first field that does not fit, as reading the
    fields one at a time would.
    """

    def __init__(self, *codes: str):
        self.codes = codes
        self.struct = struct.Struct("<" + "".join(codes))
        self.size = self.struct.size
        self.sizes = tuple(struct.calcsize("<" + c) for c in codes)

    def __add__(self, other: "_Fields") -> "_Fields":
        return _Fields(*self.codes, *other.codes)


_U16 = _Fields("H")
_U32 = _Fields("I")
_U64 = _Fields("Q")
_F64 = _Fields("d")
_UUID = _Fields("QQ")
_QUAT = _Fields("d", "d", "d", "d")
_VEC3 = _Fields("d", "d", "d")
_KF_HEAD = _Fields("QQ", "H", "d")         # id, origin, timestamp
_UUID_VEC3 = _Fields("QQ", "d", "d", "d")  # point id, position
# The writer packs in one call what the reader reads in parts: the reader
# checks each part's values before it reads the next part.
_KF_RECORD = _KF_HEAD + _QUAT + _VEC3  # up to the histogram
_POINT_RECORD = _UUID_VEC3 + _U32      # up to the observer ids
_SIM3 = _F64 + _QUAT + _VEC3
_F64_BLOCK = np.dtype("<f8")
_U16_BLOCK = np.dtype("<u2")
# bytes.translate table: a one-byte gap g, as the step g + 1 between two ids
_PLUS_ONE = bytes(range(1, 129)) + bytes(128)


def _put_varint(out: bytearray, v: int) -> None:
    while v >= 0x80:
        out.append(v & 0x7F | 0x80)
        v >>= 7
    out.append(v)


@lru_cache(maxsize=256)
def _first_id(uid: int) -> bytes:
    """The varint of an id list's first id, its gap to -1 minus one.

    A uuid's varint takes one loop step per byte, and the lists of a message
    mostly start with a few ids (a packet's new points are observed first by
    its keyframe): about 9 in 10 are found here.
    """
    out = bytearray()
    _put_varint(out, uid)
    return bytes(out)


def _id_list_fault(ids: list[int]) -> str:
    """Why `ids` is not a strictly ascending list of ids in [0, 2^128 - 1]."""
    for i in range(1, len(ids)):
        if ids[i] <= ids[i - 1]:
            return f"id {ids[i]} at index {i} is not above the id before it"
    return f"id {ids[0] if ids[0] < 0 else ids[-1]} is outside [0, 2^128 - 1]"


def _write_ids(out: bytearray, ids: list[int]) -> None:
    """Strictly ascending ids as a varint count and varint gaps.

    A list that is not raises ValueError naming the first id that is not above
    the one before it, or else the id outside [0, 2^128 - 1].
    """
    if ids and ids[-1] > _MAX_ID:
        raise ValueError(_id_list_fault(ids))
    _put_varint(out, len(ids))
    if not ids:
        return
    try:
        out += _first_id(ids[0])
        prev = ids[0]
        for uid in ids[1:]:
            gap = uid - prev - 1
            prev = uid
            if gap < 0x80:  # the common case: one byte, no call
                out.append(gap)
            else:
                _put_varint(out, gap)
    except ValueError:
        # bytearray.append refuses a negative value: the first id below 0, or
        # the gap of an id that is not above the one before it
        raise ValueError(_id_list_fault(ids)) from None


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.end = len(data)
        self.off = 0

    def _truncated(self, off: int, sizes: tuple[int, ...]) -> WireError:
        """The error for the first of `sizes`, laid out from `off`, that runs past the end."""
        for n in sizes:
            if off + n > self.end:
                break
            off += n
        return WireError(
            f"truncated payload: need {n} bytes at offset {off}, have {self.end - off}")

    def read(self, f: _Fields) -> tuple:
        off = self.off
        if off + f.size > self.end:
            raise self._truncated(off, f.sizes)
        self.off = off + f.size
        return f.struct.unpack_from(self.data, off)

    def array(self, dtype: np.dtype, n: int, check=None) -> np.ndarray:
        """n back-to-back `dtype` values as one array.

        When the payload ends first, the values that fit still go through
        ``check(values, offset_of_first)`` before the truncation is raised, so
        errors surface in payload order.
        """
        start = self.off
        k = min(n, (self.end - start) // dtype.itemsize)
        self.off = start + k * dtype.itemsize
        values = np.frombuffer(self.data, dtype, k, start)
        if check is not None:
            check(values, start)
        if k < n:
            raise self._truncated(self.off, (dtype.itemsize,))
        return values

    def varint(self, off: int) -> tuple[int, int]:
        """The varint at `off` and the offset after it."""
        data, end, start = self.data, self.end, off
        value = shift = 0
        while True:
            if off == end:
                raise WireError(f"truncated payload: need {off - start + 1} bytes "
                                f"at offset {start}, have {off - start}")
            byte = data[off]
            off += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        if byte == 0 and off - start > 1:
            raise WireError(f"non-minimal varint at offset {start}")
        return value, off

    def count(self) -> int:
        """A list's varint count."""
        start = self.off
        if start < self.end and (n := self.data[start]) < 0x80:
            self.off = start + 1
            return n
        n, self.off = self.varint(start)
        if n > _MAX_U32:
            raise WireError(f"list count {n} at offset {start} is above 2^32 - 1")
        return n

    def ids(self) -> list[int]:
        """An id list, ascending by construction."""
        n = self.count()
        data, end, off = self.data, self.end, self.off
        if n:
            # the common case: every gap after the first is one byte
            first, after = self.varint(off)
            gaps = data[after:after + n - 1]
            if len(gaps) == n - 1 and gaps.isascii():
                ids = list(accumulate(gaps.translate(_PLUS_ONE), initial=first))
                if ids[-1] <= _MAX_ID:
                    self.off = after + n - 1
                    return ids
        ids = []
        uid = -1
        for _ in range(n):
            start = off
            if off < end and (byte := data[off]) < 0x80:
                uid += byte + 1
                off += 1
            else:
                gap, off = self.varint(off)
                uid += gap + 1
            if uid > _MAX_ID:
                raise WireError(f"id {uid} at offset {start} is above 2^128 - 1")
            ids.append(uid)
        self.off = off
        return ids

    def done(self) -> None:
        if self.off != self.end:
            raise WireError(
                f"trailing garbage: {self.end - self.off} bytes at offset {self.off}"
            )


# ---------------------------------------------------------------------------
# Map object codecs
# ---------------------------------------------------------------------------

def _check_finite(values, start: int, what: str) -> None:
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise WireError(f"non-finite {what} {v} at offset {start + 8 * i}")


def _read_finite(r: _Reader, f: _Fields, what: str) -> tuple:
    start = r.off
    values = r.read(f)
    _check_finite(values, start, what)
    return values


def _read_rotation(r: _Reader) -> Rotation:
    start = r.off
    q = _read_finite(r, _QUAT, "quaternion component")
    try:
        with np.errstate(over="ignore"):
            rotation = Rotation.from_quat(*q)
    except ValueError as exc:
        raise WireError(
            f"quaternion at offset {start} has zero, subnormal or non-finite norm") from exc
    # dividing a unit quaternion by its computed norm can move it by an ulp,
    # so a quaternion within 4 ulp of 1.0 of its canonical form is kept as sent
    if max(abs(a - b) for a, b in zip(rotation.q.tolist(), q)) <= 2.0 ** -50:
        return Rotation(np.array(q))
    return rotation


def _read_pose(r: _Reader) -> Se3Pose:
    rotation = _read_rotation(r)
    return Se3Pose(rotation, np.array(_read_finite(r, _VEC3, "translation"), dtype=float))


def _word_fault(count: int, total: int, where: str) -> str:
    if count < 1:
        return f"word count {count} at {where} is not positive"
    return (f"word count {count} at {where} takes the histogram's total "
            f"to {total}, above {MAX_WORD_TOTAL}")


def _write_words(out: bytearray, words: dict[int, int]) -> None:
    """Word rows in ascending word order; a count below 1, or one that takes the
    total above ``MAX_WORD_TOTAL``, raises ValueError naming its row's index."""
    rows = sorted(words.items())
    if rows and (rows[0][0] < 0 or rows[-1][0] > _MAX_U32):
        word = rows[0][0] if rows[0][0] < 0 else rows[-1][0]
        raise ValueError(f"word id {word} is outside [0, 2^32 - 1]")
    if rows and (min(words.values()) < 1 or sum(words.values()) > MAX_WORD_TOTAL):
        total = 0
        for i, (_, count) in enumerate(rows):
            total += count
            if count < 1 or total > MAX_WORD_TOTAL:
                raise ValueError(_word_fault(count, total, f"index {i}"))
    _put_varint(out, len(rows))
    prev = -1
    for word, count in rows:
        gap = word - prev - 1
        prev = word
        if gap < 0x80 and count < 0x80:  # the common case: two bytes, no call
            out.append(gap)
            out.append(count)
        else:
            _put_varint(out, gap)
            _put_varint(out, count)


def _read_words(r: _Reader) -> dict[int, int]:
    n = r.count()
    data, end, off = r.data, r.end, r.off
    # the common case: every field is one byte and every check passes at once
    # (positive counts within the total allow at most 65535 rows, so one-byte
    # gaps keep every word id below 2^32)
    rows = data[off:off + 2 * n]
    if len(rows) == 2 * n and rows.isascii():
        counts = rows[1::2]
        if 0 not in counts and sum(counts) <= MAX_WORD_TOTAL:
            r.off = off + 2 * n
            # the first word id is its gap, each later one its gap + 1 above the last
            return dict(zip(accumulate(rows[:1] + rows[2::2].translate(_PLUS_ONE)), counts))
    # otherwise one inlined pass: a varint() call per row's two fields doubles the cost
    words = {}
    word = -1
    total = 0
    for _ in range(n):
        start = off
        if off < end and (byte := data[off]) < 0x80:
            word += byte + 1
            off += 1
        else:
            gap, off = r.varint(off)
            word += gap + 1
        if word > _MAX_U32:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        start = off
        if off < end and (count := data[off]) < 0x80:
            off += 1
        else:
            count, off = r.varint(off)
        total += count
        if count == 0 or total > MAX_WORD_TOTAL:
            raise WireError(_word_fault(count, total, f"offset {start}"))
        words[word] = count
    r.off = off
    return words


def _write_keyframe(out: bytearray, kf: KeyFrame) -> None:
    out += _KF_RECORD.struct.pack(
        kf.id & _M64, kf.id >> 64, kf.origin_agent, kf.timestamp,
        *kf.pose.rotation.q.tolist(), *kf.pose.translation.tolist())
    _write_words(out, kf.words)
    _write_ids(out, sorted(kf.observed_points))


def _read_keyframe(r: _Reader) -> KeyFrame:
    start = r.off
    lo, hi, origin, ts = r.read(_KF_HEAD)
    _check_finite((ts,), start + 18, "timestamp")
    pose = _read_pose(r)
    words = _read_words(r)
    return KeyFrame(lo | hi << 64, origin, ts, pose, words, set(r.ids()))


def _write_point(out: bytearray, p: MapPoint) -> None:
    out += _POINT_RECORD.struct.pack(p.id & _M64, p.id >> 64, *p.position.tolist(), p.word)
    _write_ids(out, sorted(p.observers))


def _read_point(r: _Reader) -> MapPoint:
    start = r.off
    lo, hi, *pos = r.read(_UUID_VEC3)
    _check_finite(pos, start + 16, "position")
    (word,) = r.read(_U32)
    return MapPoint(lo | hi << 64, np.array(pos), word, set(r.ids()))


def _write_sim3(out: bytearray, t: Sim3Transform) -> None:
    out += _SIM3.struct.pack(t.scale, *t.rotation.q.tolist(), *t.translation.tolist())


def _read_sim3(r: _Reader) -> Sim3Transform:
    start = r.off
    (scale,) = _read_finite(r, _F64, "scale")
    if scale <= 0.0:
        raise WireError(f"non-positive scale {scale} at offset {start}")
    rotation = _read_rotation(r)
    return Sim3Transform(
        scale, rotation, np.array(_read_finite(r, _VEC3, "translation"), dtype=float)
    )


def _write_roster(out: bytearray, roster: list[int]) -> None:
    out += struct.pack(f"<H{len(roster)}H", len(roster), *roster)


def _read_roster(r: _Reader) -> list[int]:
    (n,) = r.read(_U16)
    return r.array(_U16_BLOCK, n).tolist()


def _check_positions(values: np.ndarray, start: int) -> None:
    non_finite = np.flatnonzero(~np.isfinite(values))
    if len(non_finite):
        i = int(non_finite[0])
        raise WireError(f"non-finite position {float(values[i])} at offset {start + 8 * i}")


def _write_tagged(out: bytearray, points: tuple[list[int], np.ndarray]) -> None:
    ids, positions = points
    block = np.reshape(np.asarray(positions, _F64_BLOCK), (len(ids), 3))
    _write_ids(out, ids)
    out += block.tobytes()


def _read_tagged(r: _Reader) -> tuple[list[int], np.ndarray]:
    ids = r.ids()
    positions = r.array(_F64_BLOCK, 3 * len(ids), _check_positions)
    return ids, positions.reshape(-1, 3).astype(float)


# ---------------------------------------------------------------------------
# Message <-> payload
# ---------------------------------------------------------------------------

def _scalar(f: _Fields):
    return (lambda out, v: out.extend(f.struct.pack(v))), (lambda r: r.read(f)[0])


def _write_uuid(out: bytearray, v: int) -> None:
    out += _UUID.struct.pack(v & _M64, v >> 64)


def _read_uuid(r: _Reader) -> int:
    lo, hi = r.read(_UUID)
    return lo | hi << 64


def _counted(write_one, read_one):
    """The codec of a u32 count followed by that many items."""
    def write(out: bytearray, items: list) -> None:
        out += _U32.struct.pack(len(items))
        for item in items:
            write_one(out, item)

    def read(r: _Reader) -> list:
        (n,) = r.read(_U32)
        return [read_one(r) for _ in range(n)]
    return write, read



_ID = (_write_uuid, _read_uuid)
_IDS = (_write_ids, _Reader.ids)
_KEYFRAMES = _counted(_write_keyframe, _read_keyframe)
_POINTS = _counted(_write_point, _read_point)
_ROSTER = (_write_roster, _read_roster)

# Each message type's dataclass, ledger category, and one (write, read) codec
# per dataclass field after `sender`, in declaration order.  This table is the
# only place a message type is declared.
_PAYLOADS = {
    MessageType.BOW_ANNOUNCE: (BowAnnounce, CATEGORY_BOWS,
                               (_ID, (_write_words, _read_words))),
    MessageType.FULL_MAP: (FullMapMsg, CATEGORY_FULL_MAP, (_ID, _KEYFRAMES, _POINTS)),
    MessageType.MERGE_NOTIFY: (MergeNotify, CATEGORY_CONTROL,
                               ((_write_sim3, _read_sim3), _ROSTER, _ROSTER, _scalar(_U64))),
    MessageType.KEYFRAME_PACKET: (KeyFramePacket, CATEGORY_KEYFRAMES, (_KEYFRAMES, _POINTS)),
    MessageType.ALIGNMENT_REQUEST: (AlignmentRequest, CATEGORY_ALIGNMENT, (_IDS,)),
    MessageType.TAGGED_POINTS: (TaggedPoints, CATEGORY_ALIGNMENT,
                                ((_write_tagged, _read_tagged),)),
    MessageType.GROUP_UPDATE: (GroupUpdate, CATEGORY_CONTROL, (_ROSTER,)),
    MessageType.LOC_LOST: (LocalizationLost, CATEGORY_CONTROL, ()),
    MessageType.LOC_REGAINED: (LocalizationRegained, CATEGORY_CONTROL, ()),
}
# message class -> (type tag, payload field names)
_TYPE_OF = {cls: (mt, [f.name for f in fields(cls)[1:]])
            for mt, (cls, _, _) in _PAYLOADS.items()}


def category_of(msg_type: int) -> str:
    """The bandwidth ledger category of a message type tag."""
    return _PAYLOADS[MessageType(msg_type)][1]


def encode_message(msg: Message) -> tuple[MessageType, bytes]:
    try:
        mt, names = _TYPE_OF[type(msg)]
    except KeyError:
        raise TypeError(f"unknown message {type(msg).__name__}") from None
    out = bytearray()
    for name, (write, _) in zip(names, _PAYLOADS[mt][2], strict=True):
        write(out, getattr(msg, name))
    return mt, bytes(out)


def decode_message(msg_type: int, sender: int, payload: bytes) -> Message:
    try:
        cls, _, codecs = _PAYLOADS[MessageType(msg_type)]
    except ValueError as exc:
        raise WireError(f"unknown message type {msg_type}") from exc
    r = _Reader(payload)
    values = [read(r) for _, read in codecs]
    r.done()
    return cls(sender, *values)


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
    msg_type, sender, _, payload = decode_envelope(data)
    return decode_message(msg_type, sender, payload)
