"""Binary wire protocol.

Envelope layout (all multi-byte integers little-endian):

    magic   4 bytes  b"DVMS"
    version u16      6
    type    u8       message type tag
    sender  u16      agent id
    length  u32      payload byte count
    payload

The 13-byte header carries no sequence number: the one message whose order
matters, a localization state, orders itself by its epoch.  Each message type
is one ``_PAYLOADS`` row: its dataclass, its ledger category and the codecs
of its payload, the dataclass fields after ``sender`` in declaration order.
An alignment request is one id list, the points the follower's fit may read;
the tagged points that answer it carry only those of them the leader holds.
A localization state is its sender's epoch, a u32 counting the losses and
recoveries it has declared (odd while it is lost); receivers keep the highest
epoch per agent, so a late or repeated state changes nothing.
Field codecs:

    id         zigzag varint of its difference from the payload's last id
    ids        varint n + id (the first) + varint(id gap - 1)*(n - 1)
    words      varint n + (varint(word id gap - 1), varint(count))*n
    word ids   varint n + varint(word id gap - 1)*n
    keyframes  varint count + per keyframe: id, origin u16, timestamp f64,
               pose 7*f64 (qw qx qy qz tx ty tz), then against the record
               before it: word ids removed, words new or changed, ids of
               observed points removed, ids added
    points     varint count + per point: id, xyz 3*f64, varint word,
               ids of the observers the payload's keyframes do not imply
    sim3       scale f64, quaternion 4*f64, translation 3*f64
    roster     count u16 + agent id u16*
    tagged     ids, then their n positions as one n*3 f64 block

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

A payload's keyframes are consecutive spawns that see mostly the same words
and points, so each keyframe record writes its histogram and its observed
ids as differences from the record before it, the first from an empty
histogram and an empty set.  The histogram is the word ids it no longer
holds, then rows only for the words whose count is new or changed; the
observed ids are one id list of those removed, then one of those added.
A point record leaves out of its observer ids every keyframe of the same
payload that observes the point: the decoder adds those back from the
keyframe records it has read.  The encoder therefore requires each payload
keyframe that observes a payload point to be among that point's observers,
which the map a payload is cut from guarantees.  The decoder rebuilds each
full ascending histogram and id list before it builds the dicts and sets,
so a decoded object is what a self-contained record would have given.

Keyframes and map points travel as the map store's own KeyFrame and MapPoint
objects.  Decoding always builds fresh objects, so an object never reaches a
second agent by reference.  A histogram travels as the word counts its
keyframe holds, and a quaternion that is canonical up to rounding is kept as
sent (others are normalized and sign-canonicalized), so a keyframe decodes to
what its sender held, bit for bit.  Observed and observer id sets are rebuilt
in ascending order and decoded into sets built in that order; request and
tagged point ids travel in the order given, which the encoder requires to be
strictly ascending.  Keyframe and point records travel in the sender's order.

Decoding is fail-closed: any structural problem raises WireError naming the
byte offset (counted from the start of the payload for payload fields); no
partially decoded object escapes.  A field or varint cut off by the end of
the payload is a truncation naming where it starts.  Besides the layout, the
decoder rejects, in payload order: non-minimal varints (a last byte 0x00
after a continuation byte, so that every message has exactly one encoding),
ids that a difference or a gap takes below 0 or above 2^128 - 1, list counts
and word ids above 2^32 - 1, word counts of zero, histograms whose counts add
up to more than ``MAX_WORD_TOTAL`` (65535; in a BowAnnounce the error names
the count that crosses it, in a keyframe record the first byte of its
histogram), removed word ids or ids that the record before does not hold,
added ids that it does, rows whose count equals the record before's, words
both removed and in a row, observers that the payload's keyframes imply,
non-finite floats, quaternions of zero, subnormal or non-finite norm, and
SIM(3) scales that are not positive.  The encoder raises ValueError on an id
list that is not strictly ascending (naming the index of the first id that
is not above the one before it), on ids or word ids outside the ranges
above, on a histogram whose counts are not positive or add up to more than
``MAX_WORD_TOTAL``, and on a payload keyframe that observes a payload point
that does not list it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .geometry import Rotation, Se3Pose, Sim3Transform
from .map_store import KeyFrame, MapPoint

MAGIC = b"DVMS"
VERSION = 6
_HEADER = struct.Struct("<4sHBHI")
HEADER_SIZE = _HEADER.size  # 13
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

    def __add__(self, other: "_Fields") -> "_Fields":
        return _Fields(*self.codes, *other.codes)


_U16 = _Fields("H")
_U32 = _Fields("I")
_U64 = _Fields("Q")
_F64 = _Fields("d")
_QUAT = _Fields("d", "d", "d", "d")
_VEC3 = _Fields("d", "d", "d")
_KF_HEAD = _Fields("H", "d")  # origin, timestamp
# The writer packs in one call what the reader reads in parts: the reader
# checks each part's values before it reads the next part.
_KF_RECORD = _KF_HEAD + _QUAT + _VEC3  # after the id, up to the histogram
_SIM3 = _F64 + _QUAT + _VEC3
_F64_BLOCK = np.dtype("<f8")
_U16_BLOCK = np.dtype("<u2")


def _put_varint(out: bytearray, v: int) -> None:
    while v >= 0x80:
        out.append(v & 0x7F | 0x80)
        v >>= 7
    out.append(v)


def _put_gaps(out: bytearray, ids: list[int], prev: int) -> None:
    """Each of the ascending `ids` as the varint of its gap to the one before
    it minus one, the first's to `prev`.

    A gap below 0 raises ValueError from bytearray.append.
    """
    append = out.append
    for uid in ids:
        gap = uid - prev - 1
        prev = uid
        if gap < 0x80:  # the common case: one byte, no call
            append(gap)
        else:
            _put_varint(out, gap)


class _Writer(bytearray):
    """A payload being written, the last id it wrote (0 before the first) and
    the keyframe records it carries (their points' records leave out the links
    they imply).

    A method looked up on a bytearray subclass costs more than on a bytearray,
    so the loops below bind ``out.append`` once.
    """

    __slots__ = ("prev", "keyframes")

    def __init__(self):
        super().__init__()
        self.prev = 0
        self.keyframes: list[KeyFrame] = []


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
        _put_gaps(out, ids[1:], ids[0])
    except ValueError:
        # _write_id refuses a first id below 0, and _put_gaps the negative
        # gap of an id that is not above the one before it
        raise ValueError(_id_list_fault(ids)) from None
    out.prev = ids[-1]


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.end = len(data)
        self.off = 0
        self.prev = 0  # the last id read
        self.keyframes: list[KeyFrame] = []  # the keyframe records read
        # point id -> the record indices at which it enters and leaves the
        # keyframe records' observed ids, in pairs; see _read_keyframes
        self.spans: dict[int, list[int | None]] = {}

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

    def uint(self) -> int:
        """The varint that comes next."""
        off = self.off
        if off < self.end and (v := self.data[off]) < 0x80:  # one byte, no call
            self.off = off + 1
            return v
        v, self.off = self.varint(off)
        return v

    def step(self, prev: int) -> int:
        """The id or word id after `prev` in an ascending list: `prev` + 1 +
        the varint that comes next (`prev` is -1 before a first word id)."""
        return prev + self.uint() + 1

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

    def ids(self, bad=None, what: str = "") -> list[int]:
        """An id list, ascending by construction.

        With `bad`, the first id for which ``bad(id)`` is true raises
        WireError(``what.format(id, offset)``), in payload order with the
        list's other faults.
        """
        n = self.count()
        if not n:
            return []
        first = self.off
        uid = self.id()
        if bad is not None and bad(uid):
            raise WireError(what.format(uid, first))
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
            if bad is not None and bad(uid):
                raise WireError(what.format(uid, start))
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


def _check_words(words: dict[int, int]) -> None:
    """A word id outside [0, 2^32 - 1], a count below 1, or one that takes the
    total above ``MAX_WORD_TOTAL`` raises ValueError, a count naming its row's
    index in ascending word order."""
    if not words:
        return
    if min(words) < 0 or max(words) > _MAX_U32:
        word = min(words) if min(words) < 0 else max(words)
        raise ValueError(f"word id {word} is outside [0, 2^32 - 1]")
    if min(words.values()) < 1 or sum(words.values()) > MAX_WORD_TOTAL:
        total = 0
        for i, (_, count) in enumerate(sorted(words.items())):
            total += count
            if count < 1 or total > MAX_WORD_TOTAL:
                raise ValueError(_word_fault(count, total, f"index {i}"))


def _put_rows(out: bytearray, rows: list[tuple[int, int]]) -> None:
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


def _write_words(out: bytearray, words: dict[int, int]) -> None:
    _check_words(words)
    _put_rows(out, sorted(words.items()))


def _read_rows(r: _Reader, old: dict[int, int], removed: list[int],
               limit: float) -> dict[int, int]:
    """Histogram rows, in ascending word order.

    A row's word id is at most 2^32 - 1 and not in `removed`; its count is
    positive, takes the rows' running total to at most `limit` and differs
    from `old`'s count of the word.  A BowAnnounce's rows are its whole
    histogram, with no `old` or `removed` and `limit` ``MAX_WORD_TOTAL``.
    """
    rows = {}
    word = -1
    total = 0
    for _ in range(r.count()):
        start = r.off
        word = r.step(word)
        if word > _MAX_U32:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        if word in removed:
            raise WireError(f"word {word} at offset {start} is both removed and counted")
        start = r.off
        count = r.uint()
        total += count
        if count == 0 or total > limit:
            raise WireError(_word_fault(count, total, f"offset {start}"))
        if count == old.get(word):
            raise WireError(f"word count {count} at offset {start} equals the previous "
                            "histogram's")
        rows[word] = count
    return rows


def _write_word_delta(out: bytearray, old: dict[int, int], words: dict[int, int]) -> None:
    """`words` against the histogram `old`: the word ids it drops, then the
    rows whose count is new or changed.

    The rows `old` holds were checked when it was written, so only the new
    and changed rows and the total are checked here.
    """
    get = old.get
    rows = sorted([(w, c) for w, c in words.items() if get(w) != c])
    if (rows and (rows[0][0] < 0 or rows[-1][0] > _MAX_U32 or min(c for _, c in rows) < 1)
            or sum(words.values()) > MAX_WORD_TOTAL):
        _check_words(words)  # raises, naming the row in the whole histogram
    removed = sorted([w for w in old if w not in words])
    _put_varint(out, len(removed))
    _put_gaps(out, removed, -1)
    _put_rows(out, rows)


def _read_removed_words(r: _Reader, old: dict[int, int]) -> list[int]:
    """Ascending word ids that each name a word of `old`."""
    removed = []
    word = -1
    for _ in range(r.count()):
        start = r.off
        word = r.step(word)
        if word not in old:
            raise WireError(f"removed word {word} at offset {start} is not in the previous "
                            "histogram")
        removed.append(word)
    return removed


def _read_word_delta(r: _Reader, old: dict[int, int]) -> dict[int, int]:
    """The histogram a word delta makes of `old`, in ascending word order."""
    start = r.off
    removed = _read_removed_words(r, old)
    # the total is checked below, over the whole histogram
    changed = _read_rows(r, old, removed, math.inf)
    words = dict(old)
    for word in removed:
        del words[word]
    if not changed:
        return words
    added = not changed.keys() <= words.keys()
    words.update(changed)
    if added:  # new words were appended: put them in their place
        words = dict(sorted(words.items()))
    total = sum(words.values())
    if total > MAX_WORD_TOTAL:
        raise WireError(f"histogram at offset {start} adds up to {total}, "
                        f"above {MAX_WORD_TOTAL}")
    return words


def _write_keyframes(out: _Writer, kfs: list[KeyFrame]) -> None:
    """Keyframe records, each histogram and observed id set written against
    the record before it (an empty one before the first)."""
    _put_varint(out, len(kfs))
    out.keyframes = kfs
    words: dict[int, int] = {}
    observed: set[int] = set()
    for kf in kfs:
        _write_id(out, kf.id)
        out += _KF_RECORD.struct.pack(
            kf.origin_agent, kf.timestamp,
            *kf.pose.rotation.q.tolist(), *kf.pose.translation.tolist())
        _write_word_delta(out, words, kf.words)
        now = set(kf.observed_points)
        if len(now) != len(kf.observed_points):
            raise ValueError(_id_list_fault(sorted(kf.observed_points)))
        _write_ids(out, sorted(observed - now))
        _write_ids(out, sorted(now - observed))
        words, observed = kf.words, now


def _read_keyframes(r: _Reader) -> list[KeyFrame]:
    """Keyframe records, each rebuilt from the record before it.

    Records in ``r.spans`` the runs of records that hold each observed id,
    as (first record, record after the last) pairs; a run still open after
    the last record ends in None.
    """
    kfs = r.keyframes = []
    spans = r.spans
    words: dict[int, int] = {}
    ascending: list[int] = []  # the previous record's observed ids
    observed: set[int] = set()
    for _ in range(r.count()):
        uid = r.id()
        start = r.off
        origin, ts = r.read(_KF_HEAD)
        _check_finite((ts,), start + 2, "timestamp")
        pose = _read_pose(r)
        words = _read_word_delta(r, words)
        removed = r.ids(lambda i, held=observed: i not in held,
                        "removed id {} at offset {} is not in the previous keyframe's observed ids")
        added = r.ids(observed.__contains__,
                      "added id {} at offset {} is already in the previous keyframe's "
                      "observed ids")
        if removed:
            gone = set(removed)
            ascending = [i for i in ascending if i not in gone]
        if added:
            ascending = sorted(ascending + added)  # two ascending runs: one merge
        row = len(kfs)
        for i in removed:
            spans[i][-1] = row
        for i in added:
            if (runs := spans.get(i)) is None:
                spans[i] = [row, None]
            else:
                runs += (row, None)
        observed = set(ascending)
        kfs.append(KeyFrame(uid, origin, ts, pose, words, observed))
    return kfs


def _write_points(out: _Writer, points: list[MapPoint]) -> None:
    """Point records; an observer list leaves out the payload's keyframes
    that observe the point, which must be among its observers."""
    _put_varint(out, len(points))
    ids = {p.id for p in points}
    implied: dict[int, set[int]] = {}  # point id -> payload keyframes observing it
    for kf in out.keyframes:
        for pid in ids.intersection(kf.observed_points):
            implied.setdefault(pid, set()).add(kf.id)
    for p in points:
        _write_id(out, p.id)
        out += _VEC3.struct.pack(*p.position.tolist())
        if not 0 <= p.word <= _MAX_U32:
            raise ValueError(f"word id {p.word} is outside [0, 2^32 - 1]")
        _put_varint(out, p.word)
        mine = implied.get(p.id)
        if mine:
            explicit = sorted(set(p.observers) - mine)
            if len(explicit) + len(mine) != len(p.observers):
                missing = mine.difference(p.observers)
                if missing:
                    raise ValueError(f"keyframe {min(missing)} of the payload observes point "
                                     f"{p.id}, which does not list it as an observer")
                raise ValueError(_id_list_fault(sorted(p.observers)))  # an id repeats
            _write_ids(out, explicit)
        else:
            _write_ids(out, sorted(p.observers))


def _read_points(r: _Reader) -> list[MapPoint]:
    kf_ids = [kf.id for kf in r.keyframes]
    spans = r.spans
    points = []
    for _ in range(r.count()):
        uid = r.id()
        pos = _read_finite(r, _VEC3, "position")
        start = r.off
        word = r.uint()
        if word > _MAX_U32:
            raise WireError(f"word id {word} at offset {start} is above 2^32 - 1")
        # the payload's keyframes that observe the point, in record order
        runs = spans.get(uid)
        if runs is None:
            mine = None
        elif len(runs) == 2:
            mine = kf_ids[runs[0]:runs[1]]
        else:
            mine = [kid for k in range(0, len(runs), 2) for kid in kf_ids[runs[k]:runs[k + 1]]]
        if mine:
            explicit = r.ids(mine.__contains__,
                             "observer {} at offset {} is implied by a keyframe of the payload")
            # a repeated keyframe id repeats here, and adds nothing to the set
            observers = set(sorted(mine + explicit))
        else:
            observers = set(r.ids())
        points.append(MapPoint(uid, np.array(pos), word, observers))
    return points


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


def _write_tagged(out: _Writer, points: tuple[list[int], np.ndarray]) -> None:
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


_ID = (_write_id, _Reader.id)
_IDS = (_write_ids, _Reader.ids)
_WORDS = (_write_words, lambda r: _read_rows(r, {}, [], MAX_WORD_TOTAL))
_KEYFRAMES = (_write_keyframes, _read_keyframes)
_POINTS = (_write_points, _read_points)
_ROSTER = (_write_roster, _read_roster)

# Each message type's dataclass, ledger category, and one (write, read) codec
# per dataclass field after `sender`, in declaration order.  This table is the
# only place a message type is declared.
_PAYLOADS = {
    MessageType.BOW_ANNOUNCE: (BowAnnounce, CATEGORY_BOWS, (_ID, _WORDS)),
    MessageType.FULL_MAP: (FullMapMsg, CATEGORY_FULL_MAP, (_ID, _KEYFRAMES, _POINTS)),
    MessageType.MERGE_NOTIFY: (MergeNotify, CATEGORY_CONTROL,
                               ((_write_sim3, _read_sim3), _ROSTER, _ROSTER, _scalar(_U64))),
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


def encode_message(msg: Message) -> tuple[MessageType, bytes]:
    try:
        mt, names = _TYPE_OF[type(msg)]
    except KeyError:
        raise TypeError(f"unknown message {type(msg).__name__}") from None
    out = _Writer()
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

def encode_envelope(msg_type: MessageType, sender: int, payload: bytes) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, int(msg_type), sender, len(payload)) + payload


def decode_envelope(data: bytes) -> tuple[int, int, bytes]:
    """Returns (msg_type, sender, payload)."""
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
    return msg_type, sender, data[HEADER_SIZE:]


def encode_frame(msg: Message, sender: int) -> bytes:
    msg_type, payload = encode_message(msg)
    return encode_envelope(msg_type, sender, payload)


def decode_frame(data: bytes) -> Message:
    msg_type, sender, payload = decode_envelope(data)
    return decode_message(msg_type, sender, payload)
