import numpy as np
import pytest

from meshslam.geometry import Rotation, Se3Pose
from meshslam.map_store import AgentMap, KeyFrame, MapPoint, normalize_histogram
from meshslam.map_sharing import (
    QueueEntry,
    SharingState,
    insert_external_keyframe,
)
from meshslam.wire import KeyFramePacket, WireError, decode_envelope, decode_frame, encode_frame


def ext_keyframe(uid, words, observed, pos=(0, 0, 0), agent=1, ts=0.0):
    return KeyFrame(
        id=uid, origin_agent=agent, timestamp=ts,
        pose=Se3Pose(Rotation.identity(), np.asarray(pos, dtype=float)),
        words=normalize_histogram({w: 1.0 for w in words}),
        observed_points=set(observed),
    )


def ext_point(uid, pos, word, observers):
    return MapPoint(id=uid, position=np.asarray(pos, dtype=float),
                    word=word, observers=set(observers))


def random_packet(rng, sender=3):
    kfs, pts = [], []
    for i in range(int(rng.integers(1, 4))):
        uid = 1000 + i
        pids = [2000 + i * 10 + j for j in range(int(rng.integers(1, 4)))]
        kfs.append(KeyFrame(
            id=uid, origin_agent=sender, timestamp=float(rng.uniform(0, 100)),
            pose=Se3Pose(Rotation.from_rotvec(rng.uniform(-1, 1, 3)),
                         rng.uniform(-5, 5, 3)),
            words={int(w): float(np.float32(rng.uniform(0, 1)))
                   for w in rng.choice(50, size=int(rng.integers(1, 5)), replace=False)},
            observed_points=set(pids),
        ))
        for pid in pids:
            pts.append(MapPoint(
                id=pid, position=rng.uniform(-5, 5, 3),
                word=int(rng.integers(0, 50)), observers={uid},
            ))
    return KeyFramePacket(sender=sender, keyframes=kfs, points=pts)


def packet_frame(pkt: KeyFramePacket, sequence: int = 9) -> bytes:
    return encode_frame(pkt, pkt.sender, sequence)


class TestWireRoundTrip:
    def test_random_packets_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pkt = random_packet(rng)
            frame = packet_frame(pkt)
            out = decode_frame(frame)
            assert isinstance(out, KeyFramePacket)
            assert out.sender == pkt.sender and decode_envelope(frame)[2] == 9
            assert len(out.keyframes) == len(pkt.keyframes)
            for a, b in zip(out.keyframes, pkt.keyframes):
                assert a.id == b.id
                assert a.origin_agent == b.origin_agent
                assert a.timestamp == b.timestamp
                assert np.array_equal(a.pose.translation, b.pose.translation)
                assert np.array_equal(a.pose.rotation.q, b.pose.rotation.q)
                assert a.words == b.words
                assert a.observed_points == b.observed_points
            for a, b in zip(out.points, pkt.points):
                assert a.id == b.id and a.word == b.word
                assert np.array_equal(a.position, b.position)
                assert a.observers == b.observers

    def test_empty_packet_header_only_size(self):
        pkt = KeyFramePacket(sender=1, keyframes=[], points=[])
        data = packet_frame(pkt)
        # 21 byte envelope + kf-count u32 + mp-count u32
        assert len(data) == 21 + 8
        out = decode_frame(data)
        assert out.keyframes == [] and out.points == []

    def test_corrupted_length_fails_closed(self):
        pkt = random_packet(np.random.default_rng(1))
        data = bytearray(packet_frame(pkt))
        data[17:21] = (2 ** 31).to_bytes(4, "little")  # length field
        with pytest.raises(WireError):
            decode_frame(bytes(data))

    def test_bad_magic(self):
        data = bytearray(packet_frame(KeyFramePacket(1, [], [])))
        data[0] = ord(b"X")
        with pytest.raises(WireError, match="magic"):
            decode_frame(bytes(data))

    def test_truncation_names_offset(self):
        data = packet_frame(random_packet(np.random.default_rng(2)))
        with pytest.raises(WireError, match="offset"):
            decode_frame(data[:40] + b"")  # declared length mismatch
        # payload-internal truncation: rebuild envelope around cut payload
        from meshslam.wire import encode_envelope, MessageType
        _, _, _, payload = decode_envelope(data)
        cut = payload[:len(payload) // 2]
        refit = encode_envelope(MessageType.KEYFRAME_PACKET, 1, 0, cut)
        with pytest.raises(WireError, match="offset"):
            decode_frame(refit)


class TestOutbox:
    def test_record_without_peers_is_noop(self):
        s = SharingState()
        s.record_new_keyframe(1, [10], peers=[])
        assert s.outboxes == {}

    def test_record_to_two_peers(self):
        s = SharingState()
        s.record_new_keyframe(1, [10, 11], peers=[2, 3])
        assert s.outbox(2).unsent_keyframes == [1]
        assert s.outbox(3).unsent_points == [10, 11]

    def test_flush_below_threshold(self):
        s = SharingState()
        m = AgentMap()
        for i in range(4):
            m.insert_keyframe(KeyFrame(i, 0, float(i), Se3Pose.identity(),
                                       normalize_histogram({i: 1.0}), set()), [])
            s.record_new_keyframe(i, [], peers=[5])
        assert s.flush_outbox(0, 5, m, batch_size=5) is None
        assert len(s.outbox(5).unsent_keyframes) == 4

    def test_flush_at_threshold_clears(self):
        s = SharingState()
        m = AgentMap()
        for i in range(5):
            pt = MapPoint(100 + i, np.zeros(3), word=i, observers={i})
            m.insert_keyframe(KeyFrame(i, 0, float(i), Se3Pose.identity(),
                                       normalize_histogram({i: 1.0}), {100 + i}), [pt])
            s.record_new_keyframe(i, [100 + i], peers=[5])
        pkt = s.flush_outbox(0, 5, m, batch_size=5)
        assert pkt is not None
        assert len(pkt.keyframes) == 5 and len(pkt.points) == 5
        assert pkt.sender == 0
        assert s.outbox(5).unsent_keyframes == []
        assert s.outbox(5).unsent_points == []

    def test_force_flush_ignores_threshold(self):
        s = SharingState()
        m = AgentMap()
        m.insert_keyframe(KeyFrame(0, 0, 0.0, Se3Pose.identity(),
                                   normalize_histogram({1: 1.0}), set()), [])
        s.record_new_keyframe(0, [], peers=[5])
        pkt = s.flush_outbox(0, 5, m, batch_size=5, force=True)
        assert pkt is not None and len(pkt.keyframes) == 1


class TestInsertExternalKeyframe:
    def entry(self, kf, pts, sender=1):
        return QueueEntry(sender, kf, pts)

    def test_no_overlap_inserts_cleanly(self):
        m = AgentMap()
        rec = ext_keyframe(1000, [1, 2], observed=[2000, 2001])
        pts = [ext_point(2000, [1, 0, 0], 1, [1000]),
               ext_point(2001, [0, 1, 0], 2, [1000])]
        kid = insert_external_keyframe(m, self.entry(rec, pts), 0.05)
        assert kid == 1000
        assert set(m.keyframes) == {1000}
        assert set(m.points) == {2000, 2001}
        m.check_integrity()

    def test_duplicate_point_merged_keeping_lower_id(self):
        m = AgentMap()
        local_pt = MapPoint(1500, np.array([1.0, 0, 0]), word=7, observers={10})
        m.insert_keyframe(KeyFrame(10, 0, 0.0, Se3Pose.identity(),
                                   normalize_histogram({7: 1.0}), {1500}), [local_pt])
        rec = ext_keyframe(2000, [7], observed=[2500])
        ext_pt = ext_point(2500, [1.02, 0, 0], 7, [2000])  # 0.02 away, same word
        insert_external_keyframe(m, self.entry(rec, [ext_pt]), 0.05)
        assert 1500 in m.points and 2500 not in m.points
        assert m.points[1500].observers == {10, 2000}
        assert m.keyframes[10].covisibility[2000] == 1
        m.check_integrity()

    def test_far_point_same_word_not_merged(self):
        m = AgentMap()
        local_pt = MapPoint(1500, np.array([1.0, 0, 0]), word=7, observers={10})
        m.insert_keyframe(KeyFrame(10, 0, 0.0, Se3Pose.identity(),
                                   normalize_histogram({7: 1.0}), {1500}), [local_pt])
        rec = ext_keyframe(2000, [7], observed=[2500])
        ext_pt = ext_point(2500, [3.0, 0, 0], 7, [2000])
        insert_external_keyframe(m, self.entry(rec, [ext_pt]), 0.05)
        assert {1500, 2500} <= set(m.points)

    def test_redelivery_is_noop(self):
        m = AgentMap()
        rec = ext_keyframe(1000, [1], observed=[2000])
        pts = [ext_point(2000, [1, 0, 0], 1, [1000])]
        insert_external_keyframe(m, self.entry(rec, pts), 0.05)
        snapshot = (sorted(m.keyframes), sorted(m.points),
                    {k: sorted(v.observers) for k, v in m.points.items()})
        out = insert_external_keyframe(m, self.entry(rec, pts), 0.05)
        assert out is None
        assert snapshot == (sorted(m.keyframes), sorted(m.points),
                            {k: sorted(v.observers) for k, v in m.points.items()})

    def test_relink_against_previously_sent_point(self):
        # point arrived in an earlier packet; new keyframe references it by id
        m = AgentMap()
        first = ext_keyframe(1000, [1], observed=[2000])
        insert_external_keyframe(
            m, self.entry(first, [ext_point(2000, [0, 0, 0], 1, [1000])]), 0.05)
        second = ext_keyframe(1001, [1], observed=[2000])
        insert_external_keyframe(m, self.entry(second, []), 0.05)
        assert m.points[2000].observers == {1000, 1001}
        assert m.keyframes[1000].covisibility[1001] == 1
        m.check_integrity()

    def test_missing_reference_parked_then_resolved(self):
        m = AgentMap()
        rec = ext_keyframe(1001, [1], observed=[2000])  # 2000 not delivered yet
        insert_external_keyframe(m, self.entry(rec, []), 0.05)
        assert 2000 in m.pending_point_links
        late = ext_keyframe(1000, [1], observed=[2000])
        insert_external_keyframe(
            m, self.entry(late, [ext_point(2000, [0, 0, 0], 1, [1000])]), 0.05)
        assert m.points[2000].observers == {1000, 1001}
        assert not m.pending_point_links
        m.check_integrity()

    def test_existing_poses_bit_identical(self):
        rng = np.random.default_rng(3)
        m = AgentMap()
        for i in range(4):
            pid = 1500 + i
            pose = Se3Pose(Rotation.from_rotvec(rng.uniform(-0.5, 0.5, 3)),
                           rng.uniform(-2, 2, 3))
            obs = {pid} | ({pid - 1} if i else set())
            pt = MapPoint(pid, rng.uniform(-2, 2, 3), word=i, observers={10 + i})
            m.insert_keyframe(KeyFrame(10 + i, 0, float(i), pose,
                                       normalize_histogram({i: 1.0}), obs), [pt])

        def pose_bytes():
            return {k: (kf.pose.rotation.q.tobytes(), kf.pose.translation.tobytes())
                    for k, kf in m.keyframes.items()}

        before = pose_bytes()
        rec = ext_keyframe(2000, [3, 9], observed=[1503, 2500], pos=(0.3, 0.1, 0))
        insert_external_keyframe(
            m, self.entry(rec, [ext_point(2500, [5, 5, 5], 9, [2000])]), 0.05)
        assert m.keyframes[2000].covisibility == {13: 1}
        after = pose_bytes()
        assert {k: after[k] for k in before} == before
        m.check_integrity()


class TestQueue:
    def test_drain_budget(self):
        s = SharingState()
        m = AgentMap()
        for i in range(10):
            s.queue.append(QueueEntry(1, ext_keyframe(1000 + i, [i], observed=[]), []))
        inserted = s.drain(m, budget=3, dup_radius=0.05)
        assert len(inserted) == 3
        assert len(s.queue) == 7

    def test_empty_queue_noop(self):
        s = SharingState()
        assert s.drain(AgentMap(), 3, 0.05) == []

    def test_fifo_order_per_sender(self):
        s = SharingState()
        pkt = KeyFramePacket(
            sender=1,
            keyframes=[ext_keyframe(1000 + i, [1], observed=[]) for i in range(4)],
            points=[],
        )
        s.enqueue_packet(pkt)
        m = AgentMap()
        got = []
        while s.queue:
            got += s.drain(m, 1, 0.05)
        assert got == [1000, 1001, 1002, 1003]

    def test_points_ride_with_first_observer(self):
        shared = ext_point(2000, [0, 0, 0], 1, [1000, 1001])
        pkt = KeyFramePacket(
            sender=1,
            keyframes=[ext_keyframe(1000, [1], observed=[2000]),
                       ext_keyframe(1001, [1], observed=[2000])],
            points=[shared],
        )
        s = SharingState()
        s.enqueue_packet(pkt)
        assert [p.id for p in s.queue[0].points] == [2000]
        assert s.queue[1].points == []
