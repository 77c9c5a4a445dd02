"""Binary wire protocol.

Envelope layout (all multi-byte integers little-endian):

    magic   4 bytes  b"DVMS"
    version u16      1
    type    u8       message type tag
    sender  u16      agent id
    seq     u64      per-sender monotone sequence number
    length  u32      payload byte count
    payload

Each message type is one ``_PAYLOADS`` row: its dataclass, its ledger
category and the codecs of its payload, the dataclass fields after ``sender``
in declaration order; the sequence number lives only in the envelope.
Field codecs:

    uuid       16B, low 64 bits first
    words      count u32 + (word u32, weight f32)*
    keyframes  count u32 + per keyframe: uuid 16B, origin u16, timestamp f64,
               pose 7*f64 (qw qx qy qz tx ty tz), words, obs_count u32 + uuid*
    points     count u32 + per point: uuid 16B, xyz 3*f64, word u32,
               observer_count u32 + uuid*
    sim3       scale f64, quaternion 4*f64, translation 3*f64
    roster     count u16 + agent id u16*
    tagged     count u32 + (uuid 16B, xyz 3*f64)*, ids strictly ascending

Keyframes and map points travel as the map store's own KeyFrame and MapPoint
objects.  Decoding always builds fresh objects, so an object never reaches a
second agent by reference.  Id lists (histogram word ids, observed ids,
observer ids) are written strictly ascending; tagged points carry their ids
in the order given, which the encoder requires to be strictly ascending too.

Decoding is fail-closed: any structural problem raises WireError naming the
byte offset (counted from the start of the payload for payload fields); no
partially decoded object escapes.  Besides the layout, the decoder rejects
non-finite floats, quaternions of zero, subnormal or non-finite norm, SIM(3)
scales that are not positive, word weights that are negative, and id lists
(tagged point ids among them) that are not strictly ascending.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from enum import IntEnum
from itertools import starmap

import numpy as np

from .geometry import Rotation, Se3Pose, Sim3Transform
from .map_store import KeyFrame, MapPoint

MAGIC = b"DVMS"
VERSION = 1
_HEADER = struct.Struct("<4sHBHQI")
HEADER_SIZE = _HEADER.size  # 21


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
    words: dict[int, float]


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


@dataclass
class TaggedPoints:
    sender: int
    # (ids, positions): strictly ascending point ids and their (len(ids), 3) rows
    points: tuple[list[int], np.ndarray]


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
# Fixed layouts, writer and reader
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
_WORD = _Fields("I", "f")                  # word id, weight
_U32_U32 = _Fields("I", "I")               # point word, observer count
# The writer packs in one call what the reader reads in parts: the reader
# checks each part's values before it reads the next part.
_KF_RECORD = _KF_HEAD + _QUAT + _VEC3 + _U32  # up to the word count
_POINT_RECORD = _UUID_VEC3 + _U32_U32
_SIM3 = _F64 + _QUAT + _VEC3
# _UUID_VEC3 as one numpy record, for tagged points read and written as a block
_TAGGED_ROW = np.dtype([("lo", "<u8"), ("hi", "<u8"), ("xyz", "<f8", (3,))])
assert _TAGGED_ROW.itemsize == _UUID_VEC3.size


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def put(self, f: _Fields, *values) -> None:
        self.parts.append(f.struct.pack(*values))

    def rows(self, f: _Fields, rows) -> None:
        self.parts.extend(starmap(f.struct.pack, rows))

    def ids(self, ids) -> None:
        """The uuids in ascending order."""
        self.parts.extend([v.to_bytes(16, "little") for v in sorted(ids)])

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.view = memoryview(data)
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

    def rows(self, f: _Fields, n: int, check=None, dtype: np.dtype | None = None):
        """n back-to-back records of layout `f`: a list of tuples, or with
        `dtype` (a numpy record of the same layout) one structured array.

        When the payload ends first, the records that fit still go through
        ``check(rows, offset_of_first)`` before the truncation is raised, so
        errors surface in payload order.
        """
        start = self.off
        k = min(n, (self.end - start) // f.size)
        self.off = start + k * f.size
        if dtype is None:
            rows = list(f.struct.iter_unpack(self.view[start:self.off]))
        else:
            rows = np.frombuffer(self.data, dtype, k, start)
        if check is not None:
            check(rows, start)
        if k < n:
            raise self._truncated(self.off, f.sizes)
        return rows

    def ids(self, n: int) -> set[int]:
        """n uuids, which must be strictly ascending."""
        start = self.off
        ids = [lo | hi << 64 for lo, hi in self.rows(_UUID, n)]
        for i in range(1, len(ids)):
            if ids[i] <= ids[i - 1]:
                raise WireError(
                    f"id {ids[i]} at offset {start + 16 * i} is not above the id before it")
        return set(ids)

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
            return Rotation.from_quat(*q)
    except ValueError as exc:
        raise WireError(
            f"quaternion at offset {start} has zero, subnormal or non-finite norm") from exc


def _read_pose(r: _Reader) -> Se3Pose:
    rotation = _read_rotation(r)
    return Se3Pose(rotation, np.array(_read_finite(r, _VEC3, "translation"), dtype=float))


def _check_words(rows: list[tuple], start: int) -> None:
    prev = -1
    for i, (word, weight) in enumerate(rows):
        at = start + 8 * i
        if word <= prev:
            raise WireError(f"word id {word} at offset {at} is not above the word id before it")
        if not (math.isfinite(weight) and weight >= 0.0):
            raise WireError(
                f"word weight {weight} at offset {at + 4} is negative or not finite")
        prev = word


def _write_words(w: _Writer, words: dict[int, float]) -> None:
    w.put(_U32, len(words))
    w.rows(_WORD, sorted(words.items()))


def _read_words(r: _Reader) -> dict[int, float]:
    (n,) = r.read(_U32)
    return dict(r.rows(_WORD, n, _check_words))


def _write_keyframe(w: _Writer, kf: KeyFrame) -> None:
    w.put(_KF_RECORD, kf.id & _M64, kf.id >> 64, kf.origin_agent, kf.timestamp,
          *kf.pose.rotation.q.tolist(), *kf.pose.translation.tolist(), len(kf.words))
    w.rows(_WORD, sorted(kf.words.items()))
    w.put(_U32, len(kf.observed_points))
    w.ids(kf.observed_points)


def _read_keyframe(r: _Reader) -> KeyFrame:
    start = r.off
    lo, hi, origin, ts = r.read(_KF_HEAD)
    _check_finite((ts,), start + 18, "timestamp")
    pose = _read_pose(r)
    words = _read_words(r)
    (n,) = r.read(_U32)
    return KeyFrame(lo | hi << 64, origin, ts, pose, words, r.ids(n))


def _write_point(w: _Writer, p: MapPoint) -> None:
    w.put(_POINT_RECORD, p.id & _M64, p.id >> 64, *p.position.tolist(), p.word,
          len(p.observers))
    w.ids(p.observers)


def _read_point(r: _Reader) -> MapPoint:
    start = r.off
    lo, hi, *pos = r.read(_UUID_VEC3)
    _check_finite(pos, start + 16, "position")
    word, n = r.read(_U32_U32)
    return MapPoint(lo | hi << 64, np.array(pos), word, r.ids(n))


def _write_sim3(w: _Writer, t: Sim3Transform) -> None:
    w.put(_SIM3, t.scale, *t.rotation.q.tolist(), *t.translation.tolist())


def _read_sim3(r: _Reader) -> Sim3Transform:
    start = r.off
    (scale,) = _read_finite(r, _F64, "scale")
    if scale <= 0.0:
        raise WireError(f"non-positive scale {scale} at offset {start}")
    rotation = _read_rotation(r)
    return Sim3Transform(
        scale, rotation, np.array(_read_finite(r, _VEC3, "translation"), dtype=float)
    )


def _write_roster(w: _Writer, roster: list[int]) -> None:
    w.put(_U16, len(roster))
    w.rows(_U16, [(aid,) for aid in roster])


def _read_roster(r: _Reader) -> list[int]:
    (n,) = r.read(_U16)
    return [aid for (aid,) in r.rows(_U16, n)]


# ---------------------------------------------------------------------------
# Message <-> payload
# ---------------------------------------------------------------------------

def _scalar(f: _Fields):
    return (lambda w, v: w.put(f, v)), (lambda r: r.read(f)[0])


def _write_uuid(w: _Writer, v: int) -> None:
    w.put(_UUID, v & _M64, v >> 64)


def _read_uuid(r: _Reader) -> int:
    lo, hi = r.read(_UUID)
    return lo | hi << 64


def _counted(write_one, read_one):
    """The codec of a u32 count followed by that many items."""
    def write(w: _Writer, items: list) -> None:
        w.put(_U32, len(items))
        for item in items:
            write_one(w, item)

    def read(r: _Reader) -> list:
        (n,) = r.read(_U32)
        return [read_one(r) for _ in range(n)]
    return write, read


def _not_above(rows: np.ndarray) -> np.ndarray:
    """The indices of tagged rows whose id is not above the id of the row before."""
    lo, hi = rows["lo"], rows["hi"]
    return 1 + np.flatnonzero((hi[1:] < hi[:-1]) | ((hi[1:] == hi[:-1]) & (lo[1:] <= lo[:-1])))


def _check_tagged(rows: np.ndarray, start: int) -> None:
    """Ids strictly ascending and positions finite; the first fault in payload order."""
    lo, hi, xyz = rows["lo"], rows["hi"], rows["xyz"]
    not_above = _not_above(rows)
    non_finite = np.flatnonzero(~np.isfinite(xyz))
    # a row's id comes before its position
    if len(not_above) and (not len(non_finite) or not_above[0] <= non_finite[0] // 3):
        i = int(not_above[0])
        raise WireError(f"id {int(lo[i]) | int(hi[i]) << 64} at offset "
                        f"{start + _UUID_VEC3.size * i} is not above the id before it")
    if len(non_finite):
        i, j = divmod(int(non_finite[0]), 3)
        raise WireError(f"non-finite position {float(xyz[i, j])} at offset "
                        f"{start + _UUID_VEC3.size * i + 16 + 8 * j}")


def _write_tagged(w: _Writer, points: tuple[list[int], np.ndarray]) -> None:
    ids, positions = points
    rows = np.empty(len(ids), _TAGGED_ROW)
    rows["lo"] = [uid & _M64 for uid in ids]
    rows["hi"] = [uid >> 64 for uid in ids]
    rows["xyz"] = np.reshape(positions, (len(ids), 3))
    not_above = _not_above(rows)
    if len(not_above):
        i = int(not_above[0])
        raise ValueError(f"tagged point id {ids[i]} at index {i} is not above the id before it")
    w.put(_U32, len(ids))
    w.parts.append(rows.tobytes())


def _read_tagged(r: _Reader) -> tuple[list[int], np.ndarray]:
    (n,) = r.read(_U32)
    rows = r.rows(_UUID_VEC3, n, _check_tagged, _TAGGED_ROW)
    ids = [lo | hi << 64 for lo, hi in zip(rows["lo"].tolist(), rows["hi"].tolist())]
    return ids, rows["xyz"].astype(float)


_ID = (_write_uuid, _read_uuid)
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
    MessageType.ALIGNMENT_REQUEST: (AlignmentRequest, CATEGORY_ALIGNMENT, ()),
    MessageType.TAGGED_POINTS: (TaggedPoints, CATEGORY_ALIGNMENT,
                                ((_write_tagged, _read_tagged),)),
    MessageType.GROUP_UPDATE: (GroupUpdate, CATEGORY_CONTROL, (_ROSTER, _scalar(_U16))),
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
    w = _Writer()
    for name, (write, _) in zip(names, _PAYLOADS[mt][2], strict=True):
        write(w, getattr(msg, name))
    return mt, w.getvalue()


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
