"""Binary wire protocol.

Envelope layout (all multi-byte integers little-endian):

    magic   4 bytes  b"DVMS"
    version u16      8
    type    u8       message type tag
    sender  u16      agent id
    length  u32      byte count of the body
    body             the payload up to its f64 values as one raw DEFLATE
                     stream, then the payload's f64 values as they are

The 13-byte header carries no sequence number: the one message whose order
matters, a localization state, orders itself by its epoch.  Each message type
is one ``_PAYLOADS`` row: its dataclass, its ledger category and the codecs
of its payload, the dataclass fields after ``sender`` in declaration order.
Every f64 value of a payload comes after all its other fields, in field
order.  A full map is a hint id and the sender's points without observers,
all the merge fit reads.  An alignment request is one id list, the points
the follower's fit may read; the tagged points that answer it carry only
those of them the leader holds.  A localization state is its sender's epoch,
a u32 counting the losses and recoveries it has declared (odd while it is
lost); receivers keep the highest epoch per agent, so a late or repeated
state changes nothing.  Field codecs, with what each puts among the f64 values:

    id         zigzag varint of its difference from the payload's last id
    ids        varint n + id (the first) + varint(id gap - 1)*(n - 1)
    words      varint n + (varint(word id gap - 1), varint(count))*n
    keyframes  varint count + per keyframe: id, origin u16, words, ids of
               its observed points; f64: per keyframe, timestamp and pose
               7*f64 (qw qx qy qz tx ty tz)
    points     varint count + per point: id, varint word, ids of its
               observers; f64: per point, xyz 3*f64
    sim3       nothing; f64: scale, quaternion 4*f64, translation 3*f64
    roster     count u16 + agent id u16*
    tagged     ids; f64: their n positions as one n*3 block

A varint is LEB128: an unsigned integer in groups of seven bits, lowest group
first, one group per byte, the high bit set on every byte but the last.

The ids one payload names sit within a few counters of each other, so every
id is written against the one the payload wrote before it.  A single id
(``BowAnnounce.kf_id``, ``FullMapMsg.hint_kf``), a keyframe's or a point's
own id and the first id of an id list are the zigzag varint of their signed
difference d from the payload's last id: 2d for d >= 0, -2d - 1 below.  The
last id is 0 at the payload's start, and after an id list it is that list's
last id.  Id lists and histogram word ids are strictly ascending, so every
later id of a list is its gap to the one before it minus one, and a word id
its gap to the word before it minus one, the first counted from -1.  The
request ids [5, 6, 10] are the varints 3 (the count), 10 (5 - 0, zigzagged),
0 and 3; a keyframe record whose id is K, and whose first observed point is
K - 2, writes that point as the varint 3.

Every record is self-contained.  What consecutive keyframes and their points
repeat (words, observed ids) is left to the compressor: the payload up to
its f64 values travels as one raw DEFLATE stream (RFC 1951; no zlib header
or checksum), written at level 6 with a 4 KiB window.  The f64 values follow
the stream as they are: their low bits move with the floating-point details
of a run (the OpenBLAS core moves the alignment fits), and inside the stream
they would move the frame's size with them, so a frame's size depends only
on what the protocol sends.  The stream ends itself, so the decoder needs no
length between the two, and every byte after it is an f64 value: a field
reads its f64 values from those bytes and its other bytes from the stream,
so a frame that carries f64 values inside its stream fails to decode.  The
decoder reads any raw DEFLATE stream, with a window of up to 32 KiB, and
asks zlib for at most ``MAX_PAYLOAD`` bytes (16 MiB) plus one.  The stream's
bytes depend on the zlib that writes it; what it inflates to does not.

Keyframes and map points travel as the map store's own KeyFrame and MapPoint
objects.  Decoding always builds fresh objects, so an object never reaches a
second agent by reference.  A histogram travels as the word counts its
keyframe holds, and a quaternion that is canonical up to rounding is kept as
sent (others are normalized and sign-canonicalized), so a keyframe decodes to
what its sender held, bit for bit.  Observed and observer id sets travel in
ascending order and are decoded into sets built in that order; request and
tagged point ids travel in the order given, which the encoder requires to be
strictly ascending.  Keyframe and point records travel in the sender's order.

Decoding is fail-closed: any structural problem raises WireError naming the
byte offset; no partially decoded object escapes.  Header and stream offsets
count from the start of the frame; payload field offsets count from the
start of the payload, the inflated stream followed by the bytes after it.
The stream is rejected when inflating it fails (naming the byte whose
arrival shows the fault, and zlib's reason, for instance a back-reference to
before the stream's start), when it does not end, and when it inflates past
``MAX_PAYLOAD`` bytes.  A field or varint cut off by the end of the payload
is a truncation naming where it starts; the f64 values end where the
payload does, and the other fields where the stream does.  Besides the
layout, the decoder rejects, in field order and each record's f64 values
after its other fields: non-minimal varints (a last byte 0x00 after a
continuation byte, so that every message has exactly one payload), ids that
a difference or a gap takes below 0 or above 2^128 - 1, list counts and word
ids above 2^32 - 1, word counts of zero, histograms whose counts add up to
more than ``MAX_WORD_TOTAL`` (65535; the error names the count that crosses
it), non-finite floats, quaternions of zero, subnormal or non-finite norm,
and SIM(3) scales that are not positive.  The encoder raises ValueError on
an id list that is not strictly ascending (naming the index of the first id
that is not above the one before it), on ids or word ids outside the ranges
above, on a histogram whose counts are not positive or add up to more than
``MAX_WORD_TOTAL``, and on a payload whose bytes before its f64 values are
more than ``MAX_PAYLOAD``.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .geometry import Rotation, Se3Pose, Sim3Transform
from .map_store import KeyFrame, MapPoint

MAGIC = b"DVMS"
VERSION = 8
_HEADER = struct.Struct("<4sHBHI")
HEADER_SIZE = _HEADER.size  # 13
# the longest payload a frame may inflate to
MAX_PAYLOAD = 1 << 24
_LEVEL = 6          # zlib's default compression level
# raw DEFLATE with a 4 KiB window: over the frames of the seed-7 benchmark
# ensembles it writes no more bytes than a 32 KiB window, at the same CPU
_WRITE_WBITS = -12
_READ_WBITS = -15   # raw DEFLATE with the largest window, so any stream's distances resolve
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
    LOCALIZATION_STATE = 8


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
    points: list[MapPoint]  # copies without observers, ascending by id


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
class LocalizationState:
    sender: int
    epoch: int  # the sender's declared losses and recoveries; odd while it is lost


Message = (
    BowAnnounce | FullMapMsg | MergeNotify | KeyFramePacket
    | AlignmentRequest | TaggedPoints | GroupUpdate | LocalizationState
)


# ---------------------------------------------------------------------------
# Fixed layouts, varints and the reader
# ---------------------------------------------------------------------------

class _Fields:
    """A fixed run of little-endian fields, packed and unpacked by one struct.

    The per-field sizes let a truncated read name the first field that does
    not fit, as reading the fields one at a time would.
    """

    def __init__(self, *codes: str):
        self.codes = codes
        self.struct = struct.Struct("<" + "".join(codes))
        self.size = self.struct.size
        self.sizes = tuple(struct.calcsize("<" + c) for c in codes)


_U16 = _Fields("H")
_U32 = _Fields("I")
_U64 = _Fields("Q")
_F64 = _Fields("d")
_QUAT = _Fields("d", "d", "d", "d")
_VEC3 = _Fields("d", "d", "d")
# A keyframe's timestamp and pose, or a SIM(3): the writer packs in one call
# what the reader reads in parts (_F64, _QUAT, _VEC3), checking each part's
# values before it reads the next.
_EIGHT_F64 = _Fields(*"dddddddd")
_F64_BLOCK = np.dtype("<f8")
_U16_BLOCK = np.dtype("<u2")


def _put_varint(out: bytearray, v: int) -> None:
    while v >= 0x80:
        out.append(v & 0x7F | 0x80)
        v >>= 7
    out.append(v)


class _Writer(bytearray):
    """A payload's fields but its f64 values, being written; the last id it
    wrote (0 before the first); and the f64 values, which follow them.

    A method looked up on a bytearray subclass costs more than on a bytearray,
    so the loops below bind ``out.append`` once.
    """

    __slots__ = ("prev", "f64")

    def __init__(self):
        super().__init__()
        self.prev = 0
        self.f64 = bytearray()


def _write_id(out: _Writer, uid: int) -> None:
    """`uid` as the zigzag varint of its difference from the last id written."""
    if not 0 <= uid <= _MAX_ID:
        raise ValueError(f"id {uid} is outside [0, 2^128 - 1]")
    d = uid - out.prev
    out.prev = uid
    z = d << 1 if d >= 0 else ~d << 1 | 1
    if z < 0x80:  # the common case: one byte, no call
        out.append(z)
    else:
        _put_varint(out, z)


def _id_list_fault(ids: list[int]) -> str:
    """Why `ids` is not a strictly ascending list of ids in [0, 2^128 - 1]."""
    for i in range(1, len(ids)):
        if ids[i] <= ids[i - 1]:
            return f"id {ids[i]} at index {i} is not above the id before it"
    return f"id {ids[0] if ids[0] < 0 else ids[-1]} is outside [0, 2^128 - 1]"


def _write_ids(out: _Writer, ids: list[int]) -> None:
    """Strictly ascending ids: a varint count, the first id against the last
    id written, then varint gaps.

    A list that is not raises ValueError naming the first id that is not above
    the one before it, or else the id outside [0, 2^128 - 1].
    """
    if ids and ids[-1] > _MAX_ID:
        raise ValueError(_id_list_fault(ids))
    _put_varint(out, len(ids))
    if not ids:
        return
    try:
        _write_id(out, ids[0])
        append = out.append
        prev = ids[0]
        for uid in ids[1:]:
            gap = uid - prev - 1
            prev = uid
            if gap < 0x80:  # the common case: one byte, no call
                append(gap)  # a gap below 0 raises ValueError here
            else:
                _put_varint(out, gap)
    except ValueError:
        # _write_id refuses a first id below 0, and append the negative gap
        # of an id that is not above the one before it
        raise ValueError(_id_list_fault(ids)) from None
    out.prev = ids[-1]


class _Reader:
    """The bytes of `data` from `off` to `end`; offsets count from the start
    of `data`.  A payload's reader holds the reader of its f64 values as
    ``f64``, as ``_Writer`` holds them."""

    def __init__(self, data: bytes, off: int, end: int):
        self.data = data
        self.end = end
        self.off = off
        self.prev = 0  # the last id read

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

        When the bytes end first, the values that fit still go through
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

    def uint(self) -> int:
        """The varint that comes next."""
        off = self.off
        if off < self.end and (v := self.data[off]) < 0x80:  # one byte, no call
            self.off = off + 1
            return v
        v, self.off = self.varint(off)
        return v

    def count(self) -> int:
        """A list's varint count."""
        start = self.off
        # uint() inlined here and in id(), which run once per record or list
        if start < self.end and (n := self.data[start]) < 0x80:
            self.off = start + 1
            return n
        n, self.off = self.varint(start)
        if n > _MAX_U32:
            raise WireError(f"list count {n} at offset {start} is above 2^32 - 1")
        return n

    def id(self) -> int:
        """The id whose zigzag difference from the last id read comes next."""
        off = self.off
        if off < self.end and (z := self.data[off]) < 0x80:
            self.off = off + 1
        else:
            z, self.off = self.varint(off)
        uid = self.prev + (z >> 1 ^ -(z & 1))
        if uid < 0:
            raise WireError(f"id {uid} at offset {off} is below 0")
        if uid > _MAX_ID:
            raise WireError(f"id {uid} at offset {off} is above 2^128 - 1")
        self.prev = uid
        return uid

    def ids(self) -> list[int]:
        """An id list, ascending by construction."""
        n = self.count()
        if not n:
            return []
        uid = self.id()
        ids = [uid]
        # the steps inlined: id lists are the codec's hot path
        data, end, off = self.data, self.end, self.off
        for _ in range(n - 1):
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
        self.prev = uid
        return ids

    def done(self) -> None:
        if self.off != self.end:
            raise WireError(
                f"trailing garbage: {self.end - self.off} bytes at offset {self.off}"
            )


# ---------------------------------------------------------------------------
# Map object codecs
# ---------------------------------------------------------------------------

def _read_finite(r: _Reader, f: _Fields, what: str) -> tuple:
    start = r.off
    values = r.read(f)
    for i, v in enumerate(values):
        if not math.isfinite(v):
            raise WireError(f"non-finite {what} {v} at offset {start + 8 * i}")
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
    """Histogram rows.  A word id outside [0, 2^32 - 1], a count below 1, or
    one that takes the total above ``MAX_WORD_TOTAL`` raises ValueError, a
    count naming its row's index in ascending word order."""
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
    append = out.append
    for word, count in rows:
        gap = word - prev - 1
        prev = word
        if gap < 0x80 and count < 0x80:  # the common case: two bytes, no call
            append(gap)
            append(count)
        else:
            _put_varint(out, gap)
            _put_varint(out, count)


def _read_words(r: _Reader) -> dict[int, int]:
    """A histogram's rows, in ascending word order."""
    words = {}
    word = -1
    total = 0
    for _ in range(r.count()):
        start = r.off
        word += r.uint() + 1
        if word > _MAX_U32:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        start = r.off
        count = r.uint()
        total += count
        if count == 0 or total > MAX_WORD_TOTAL:
            raise WireError(_word_fault(count, total, f"offset {start}"))
        words[word] = count
    return words


def _write_keyframes(out: _Writer, kfs: list[KeyFrame]) -> None:
    _put_varint(out, len(kfs))
    for kf in kfs:
        _write_id(out, kf.id)
        out += _U16.struct.pack(kf.origin_agent)
        _write_words(out, kf.words)
        _write_ids(out, sorted(kf.observed_points))
        out.f64 += _EIGHT_F64.struct.pack(kf.timestamp, *kf.pose.rotation.q.tolist(),
                                       *kf.pose.translation.tolist())


def _read_keyframes(r: _Reader) -> list[KeyFrame]:
    kfs = []
    for _ in range(r.count()):
        uid = r.id()
        (origin,) = r.read(_U16)
        words = _read_words(r)
        observed = set(r.ids())
        (ts,) = _read_finite(r.f64, _F64, "timestamp")
        kfs.append(KeyFrame(uid, origin, ts, _read_pose(r.f64), words, observed))
    return kfs


def _write_points(out: _Writer, points: list[MapPoint]) -> None:
    _put_varint(out, len(points))
    for p in points:
        _write_id(out, p.id)
        if not 0 <= p.word <= _MAX_U32:
            raise ValueError(f"word id {p.word} is outside [0, 2^32 - 1]")
        _put_varint(out, p.word)
        _write_ids(out, sorted(p.observers))
        out.f64 += _VEC3.struct.pack(*p.position.tolist())


def _read_points(r: _Reader) -> list[MapPoint]:
    points = []
    for _ in range(r.count()):
        uid = r.id()
        start = r.off
        word = r.uint()
        if word > _MAX_U32:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        observers = set(r.ids())
        points.append(MapPoint(uid, np.array(_read_finite(r.f64, _VEC3, "position")), word,
                               observers))
    return points


def _write_sim3(out: _Writer, t: Sim3Transform) -> None:
    out.f64 += _EIGHT_F64.struct.pack(t.scale, *t.rotation.q.tolist(), *t.translation.tolist())


def _read_sim3(r: _Reader) -> Sim3Transform:
    v = r.f64
    start = v.off
    (scale,) = _read_finite(v, _F64, "scale")
    if scale <= 0.0:
        raise WireError(f"non-positive scale {scale} at offset {start}")
    rotation = _read_rotation(v)
    return Sim3Transform(
        scale, rotation, np.array(_read_finite(v, _VEC3, "translation"), dtype=float)
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


def _write_tagged(out: _Writer, points: tuple[list[int], np.ndarray]) -> None:
    ids, positions = points
    block = np.reshape(np.asarray(positions, _F64_BLOCK), (len(ids), 3))
    _write_ids(out, ids)
    out.f64 += block.tobytes()


def _read_tagged(r: _Reader) -> tuple[list[int], np.ndarray]:
    ids = r.ids()
    positions = r.f64.array(_F64_BLOCK, 3 * len(ids), _check_positions)
    return ids, positions.reshape(-1, 3).astype(float)


# ---------------------------------------------------------------------------
# Message <-> payload
# ---------------------------------------------------------------------------

def _scalar(f: _Fields):
    return (lambda out, v: out.extend(f.struct.pack(v))), (lambda r: r.read(f)[0])


_ID = (_write_id, _Reader.id)
_IDS = (_write_ids, _Reader.ids)
_WORDS = (_write_words, _read_words)
_KEYFRAMES = (_write_keyframes, _read_keyframes)
_POINTS = (_write_points, _read_points)
_ROSTER = (_write_roster, _read_roster)

# Each message type's dataclass, ledger category, and one (write, read) codec
# per dataclass field after `sender`, in declaration order.  A field with f64
# values writes them to ``out.f64`` and reads them from ``r.f64``.  This table
# is the only place a message type is declared.
_PAYLOADS = {
    MessageType.BOW_ANNOUNCE: (BowAnnounce, CATEGORY_BOWS, (_ID, _WORDS)),
    MessageType.FULL_MAP: (FullMapMsg, CATEGORY_FULL_MAP, (_ID, _POINTS)),
    MessageType.MERGE_NOTIFY: (MergeNotify, CATEGORY_CONTROL,
                               ((_write_sim3, _read_sim3), _ROSTER,
                                _ROSTER, _scalar(_U64))),
    MessageType.KEYFRAME_PACKET: (KeyFramePacket, CATEGORY_KEYFRAMES, (_KEYFRAMES, _POINTS)),
    MessageType.ALIGNMENT_REQUEST: (AlignmentRequest, CATEGORY_ALIGNMENT, (_IDS,)),
    MessageType.TAGGED_POINTS: (TaggedPoints, CATEGORY_ALIGNMENT,
                                ((_write_tagged, _read_tagged),)),
    MessageType.GROUP_UPDATE: (GroupUpdate, CATEGORY_CONTROL, (_ROSTER,)),
    MessageType.LOCALIZATION_STATE: (LocalizationState, CATEGORY_CONTROL, (_scalar(_U32),)),
}
# message class -> (type tag, payload field names)
_TYPE_OF = {cls: (mt, [f.name for f in fields(cls)[1:]])
            for mt, (cls, _, _) in _PAYLOADS.items()}


def category_of(msg_type: int) -> str:
    """The bandwidth ledger category of a message type tag."""
    return _PAYLOADS[MessageType(msg_type)][1]


def encode_message(msg: Message) -> tuple[MessageType, bytes, int]:
    """The message's type, its payload, and the byte count of the f64 values
    that end the payload."""
    try:
        mt, names = _TYPE_OF[type(msg)]
    except KeyError:
        raise TypeError(f"unknown message {type(msg).__name__}") from None
    out = _Writer()
    for name, (write, _) in zip(names, _PAYLOADS[mt][2], strict=True):
        write(out, getattr(msg, name))
    return mt, bytes(out) + out.f64, len(out.f64)


def decode_message(msg_type: int, sender: int, payload: bytes, f64_bytes: int = 0) -> Message:
    """The message whose payload's last `f64_bytes` bytes are its f64 values."""
    try:
        cls, _, codecs = _PAYLOADS[MessageType(msg_type)]
    except ValueError as exc:
        raise WireError(f"unknown message type {msg_type}") from exc
    split = len(payload) - f64_bytes
    r = _Reader(payload, 0, split)
    r.f64 = _Reader(payload, split, len(payload))
    values = [read(r) for _, read in codecs]
    r.done()
    r.f64.done()
    return cls(sender, *values)


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------

def encode_envelope(msg_type: MessageType, sender: int, payload: bytes,
                    f64_bytes: int = 0) -> bytes:
    """The header, the payload up to its last `f64_bytes` bytes (its f64
    values) as one raw DEFLATE stream, then those bytes as they are."""
    split = len(payload) - f64_bytes
    if split > MAX_PAYLOAD:
        raise ValueError(f"payload of {split} bytes before its f64 values is above "
                         f"{MAX_PAYLOAD}")
    body = zlib.compress(payload[:split], _LEVEL, _WRITE_WBITS) + payload[split:]
    return _HEADER.pack(MAGIC, VERSION, int(msg_type), sender, len(body)) + body


def _stream_fault(data: bytes, exc: zlib.error) -> WireError:
    """The error for a stream that fails to inflate: zlib's reason, at the
    first byte whose arrival makes inflating fail."""
    d = zlib.decompressobj(_READ_WBITS)
    for off in range(HEADER_SIZE, len(data)):
        try:
            d.decompress(data[off:off + 1])
        except zlib.error:
            break
    # zlib's reason follows "Error -3 while decompressing data: "
    return WireError(f"bad deflate stream at offset {off}: {str(exc).partition(': ')[2]}")


def _inflate(data: bytes) -> tuple[bytes, int]:
    """The payload, what the stream after the header inflates to and then the
    bytes after the stream, and the count of those bytes."""
    d = zlib.decompressobj(_READ_WBITS)
    try:
        payload = d.decompress(data[HEADER_SIZE:], MAX_PAYLOAD + 1)
    except zlib.error as exc:
        raise _stream_fault(data, exc) from None
    if len(payload) > MAX_PAYLOAD:
        raise WireError(f"deflate stream at offset {HEADER_SIZE} inflates past "
                        f"{MAX_PAYLOAD} bytes")
    if not d.eof:
        raise WireError(f"deflate stream at offset {HEADER_SIZE} does not end "
                        f"by offset {len(data)}")
    return payload + d.unused_data, len(d.unused_data)


def decode_envelope(data: bytes) -> tuple[int, int, bytes, int]:
    """Returns (msg_type, sender, payload, f64_bytes): the payload is the
    stream inflated, then the `f64_bytes` bytes after it."""
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"truncated header: {len(data)} bytes, need {HEADER_SIZE} at offset 0"
        )
    magic, version, msg_type, sender, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise WireError(f"unsupported version {version} at offset 4")
    if len(data) != HEADER_SIZE + length:
        raise WireError(
            f"payload length field {length} does not match "
            f"{len(data) - HEADER_SIZE} bytes present (offset 9)"
        )
    return msg_type, sender, *_inflate(data)


def encode_frame(msg: Message, sender: int) -> bytes:
    msg_type, payload, f64_bytes = encode_message(msg)
    return encode_envelope(msg_type, sender, payload, f64_bytes)


def decode_frame(data: bytes) -> Message:
    return decode_message(*decode_envelope(data))
