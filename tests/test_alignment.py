import math

import numpy as np
import pytest

from meshslam.alignment import (
    AimdState,
    _solve_samples,
    DegenerateInputError,
    NoModelError,
    RansacParams,
    aimd_next,
    inlier_rmse,
    kabsch_umeyama,
    match_tagged,
    ransac_sim3,
    sample_triples,
    well_aligned,
)
from meshslam.geometry import Rotation, Sim3Transform, vec3


def random_sim3(rng):
    q = rng.normal(size=4)
    return Sim3Transform(
        float(rng.uniform(0.5, 2.0)), Rotation.from_quat(*q), rng.uniform(-5, 5, 3)
    )


def transform_error(est, true, probes):
    return float(np.max(np.linalg.norm(est.apply(probes) - true.apply(probes), axis=1)))


class TestKabschUmeyama:
    def test_identity_when_equal(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(20, 3))
        t = kabsch_umeyama(pts, pts)
        assert abs(t.scale - 1) < 1e-12
        assert t.rotation.angle() < 1e-9
        assert np.linalg.norm(t.translation) < 1e-9

    def test_pure_scale(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, size=(15, 3))
        t = kabsch_umeyama(pts, 2.0 * pts)
        assert abs(t.scale - 2.0) < 1e-12
        assert t.rotation.angle() < 1e-9
        assert np.linalg.norm(t.translation) < 1e-9

    def test_planted_transform_recovery(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            true = random_sim3(rng)
            pts = rng.uniform(-4, 4, size=(50, 3))
            est = kabsch_umeyama(pts, true.apply(pts))
            assert est.rotation.angle_to(true.rotation) < 1e-9
            assert abs(est.scale / true.scale - 1) < 1e-9
            assert np.linalg.norm(est.translation - true.translation) < 1e-9

    def test_rotation_determinant_positive(self):
        # mirrored targets must not produce a reflection
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(30, 3))
        mirrored = pts * np.array([-1.0, 1.0, 1.0])
        t = kabsch_umeyama(pts, mirrored)
        assert np.linalg.det(t.rotation.matrix()) > 0.99

    def test_collinear_raises(self):
        line = np.array([[float(i), 0.0, 0.0] for i in range(10)])
        with pytest.raises(DegenerateInputError):
            kabsch_umeyama(line, line * 2.0)

    def test_coincident_raises(self):
        pts = np.ones((5, 3))
        with pytest.raises(DegenerateInputError):
            kabsch_umeyama(pts, pts)

    def test_too_few_points(self):
        pts = np.random.default_rng(4).uniform(size=(2, 3))
        with pytest.raises(DegenerateInputError):
            kabsch_umeyama(pts, pts)

    def test_local_optimality_against_perturbations(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-3, 3, size=(40, 3))
        noisy = random_sim3(rng).apply(pts) + rng.normal(0, 0.05, size=pts.shape)
        est = kabsch_umeyama(pts, noisy)
        base_rmse = float(np.sqrt(np.mean(
            np.linalg.norm(noisy - est.apply(pts), axis=1) ** 2)))
        for _ in range(1000):
            pert = Sim3Transform(
                est.scale * math.exp(rng.normal(0, 0.01)),
                Rotation.from_rotvec(rng.normal(0, 0.01, 3)).compose(est.rotation),
                est.translation + rng.normal(0, 0.01, 3),
            )
            rmse = float(np.sqrt(np.mean(
                np.linalg.norm(noisy - pert.apply(pts), axis=1) ** 2)))
            assert base_rmse <= rmse + 1e-12

    def test_matches_planar_grid_search(self):
        # 2D-embeddable case: planar points, yaw-only transform.  Grid search
        # over the yaw angle with closed-form scale/translation per angle.
        rng = np.random.default_rng(6)
        pts = rng.uniform(-2, 2, size=(25, 3))
        pts[:, 2] = 0.0
        true = Sim3Transform(1.4, Rotation.from_axis_angle(vec3(0, 0, 1), 0.8),
                             vec3(0.3, -0.7, 0.0))
        dst = true.apply(pts) + rng.normal(0, 0.02, size=pts.shape) * [1, 1, 0]

        def rmse_at(theta):
            rot = Rotation.from_axis_angle(vec3(0, 0, 1), theta)
            rp = rot.apply(pts)
            mu_s, mu_d = rp.mean(axis=0), dst.mean(axis=0)
            sc, dc = rp - mu_s, dst - mu_d
            s = float(np.sum(sc * dc)) / float(np.sum(sc * sc))
            t = mu_d - s * mu_s
            return float(np.sqrt(np.mean(np.linalg.norm(dst - (s * rp + t), axis=1) ** 2)))

        thetas = np.linspace(0, 2 * math.pi, 20001)
        grid_best = min(rmse_at(th) for th in thetas)
        est = kabsch_umeyama(pts, dst)
        est_rmse = float(np.sqrt(np.mean(np.linalg.norm(dst - est.apply(pts), axis=1) ** 2)))
        assert est_rmse <= grid_best + 1e-6


class TestRansacSim3:
    def test_exact_correspondences_all_inliers(self):
        rng = np.random.default_rng(7)
        true = random_sim3(rng)
        pts = rng.uniform(-3, 3, size=(30, 3))
        t, inliers = ransac_sim3(pts, true.apply(pts), RansacParams(seed=1))
        assert len(inliers) == 30
        probes = rng.uniform(-3, 3, size=(10, 3))
        assert transform_error(t, true, probes) < 1e-9

    def test_planted_outliers_rejected(self):
        rng = np.random.default_rng(8)
        params = RansacParams(iterations=200, inlier_threshold=0.05,
                              min_inliers=12, seed=2)
        true = random_sim3(rng)
        pts = rng.uniform(-3, 3, size=(40, 3))
        dst_pts = true.apply(pts) + rng.normal(0, 0.005, size=pts.shape)
        # 20 true inliers worth of extra outliers: 50% outlier rate overall
        out_idx = rng.choice(40, size=20, replace=False)
        dst_pts[out_idx] += rng.uniform(1.0, 5.0, size=(20, 3)) * rng.choice([-1, 1], size=(20, 3))
        t, inliers = ransac_sim3(pts, dst_pts, params)
        assert set(inliers).isdisjoint({int(i) for i in out_idx})
        probes = rng.uniform(-3, 3, size=(10, 3))
        assert transform_error(t, true, probes) < 10 * params.inlier_threshold

    def test_two_shared_ids_raises(self):
        src = ([1, 2, 5], np.array([np.zeros(3), np.ones(3), np.full(3, 2.0)]))
        dst = ([1, 2, 9], np.array([np.zeros(3), np.ones(3), np.full(3, 3.0)]))
        with pytest.raises(NoModelError, match="only 2 shared ids"):
            ransac_sim3(*match_tagged(src, dst), RansacParams())

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(9)
        true = random_sim3(rng)
        pts = rng.uniform(-3, 3, size=(25, 3))
        dst_pts = true.apply(pts) + rng.normal(0, 0.01, size=pts.shape)
        t1, in1 = ransac_sim3(pts, dst_pts, RansacParams(seed=42))
        t2, in2 = ransac_sim3(pts, dst_pts, RansacParams(seed=42))
        assert in1 == in2
        assert t1.scale == t2.scale
        assert np.array_equal(t1.rotation.q, t2.rotation.q)
        assert np.array_equal(t1.translation, t2.translation)

    def test_min_inlier_gate(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-3, 3, size=(8, 3))
        dst = rng.uniform(-3, 3, size=(8, 3))  # garbage correspondences
        with pytest.raises(NoModelError):
            ransac_sim3(pts, dst, RansacParams(min_inliers=6, seed=3))

    def test_inlier_rmse(self):
        rng = np.random.default_rng(11)
        true = random_sim3(rng)
        pts = rng.uniform(-2, 2, size=(10, 3))
        assert inlier_rmse(true, pts, true.apply(pts)) < 1e-9
        # every row off by (0.3, 0.4, 0): a distance of 0.5 each
        shifted = true.apply(pts) + np.array([0.3, 0.4, 0.0])
        assert inlier_rmse(true, pts, shifted) == pytest.approx(0.5)

    def test_inliers_are_ascending_rows(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(-3, 3, size=(40, 3))
        dst_pts = random_sim3(rng).apply(pts) + rng.normal(0, 0.01, size=pts.shape)
        dst_pts[:10] += 2.0  # outliers
        params = RansacParams(seed=6)
        _, inliers = ransac_sim3(pts, dst_pts, params)
        assert inliers == sorted(inliers) and min(inliers) >= 10
        assert all(type(i) is int for i in inliers)

    def test_unmatched_rows_rejected(self):
        pts = np.zeros((5, 3))
        for dst in (pts[:-1], np.zeros((5, 2))):
            with pytest.raises(ValueError):
                ransac_sim3(pts, dst, RansacParams())

    def test_idempotent_at_fixed_point(self):
        # a second round on an already-corrected map moves it by nearly nothing
        rng = np.random.default_rng(12)
        drift = Sim3Transform(1.02, Rotation.from_axis_angle(vec3(0, 0, 1), 0.017),
                              vec3(0.1, 0.0, 0.0))
        leader_pts = rng.uniform(-4, 4, size=(40, 3))
        local_pts = drift.inverse().apply(leader_pts) + rng.normal(0, 0.003, (40, 3))
        t1, _ = ransac_sim3(local_pts, leader_pts, RansacParams(seed=4))
        corrected = t1.apply(local_pts)
        t2, _ = ransac_sim3(corrected, leader_pts, RansacParams(seed=5))
        moved = np.linalg.norm(t2.apply(corrected) - corrected, axis=1)
        assert np.max(moved) < 1e-9 + 10 * 0.003


class TestMatchTagged:
    def test_rows_of_shared_ids_in_ascending_order(self):
        src_pos = np.arange(15.0).reshape(5, 3)
        dst_pos = -np.arange(12.0).reshape(4, 3)
        a, b = match_tagged(([1, 3, 5, 7, 9], src_pos), ([9, 2, 3, 7], dst_pos))
        assert np.array_equal(a, src_pos[[1, 3, 4]])
        assert np.array_equal(b, dst_pos[[2, 3, 0]])

    def test_same_rows_as_a_dict_join(self):
        rng = np.random.default_rng(15)
        src_ids = sorted(rng.choice(1 << 40, 50, replace=False).tolist())
        dst_ids = src_ids[::2] + rng.choice(1 << 40, 20).tolist()  # not sorted
        src_pos, dst_pos = rng.normal(size=(50, 3)), rng.normal(size=(len(dst_ids), 3))
        a, b = match_tagged((src_ids, src_pos), (dst_ids, dst_pos))
        src_map, dst_map = dict(zip(src_ids, src_pos)), dict(zip(dst_ids, dst_pos))
        common = sorted(src_map.keys() & dst_map.keys())
        assert len(common) == 25
        assert np.array_equal(a, [src_map[u] for u in common])
        assert np.array_equal(b, [dst_map[u] for u in common])

    def test_nothing_shared(self):
        a, b = match_tagged(([1, 2], np.zeros((2, 3))), ([], np.empty((0, 3))))
        assert a.shape == b.shape == (0, 3)


# n = 2**31 + 1 rejects about half of the words of its largest bounds
SAMPLE_SIZES = (3, 4, 5, 600, 10001, (1 << 31) + 1, (1 << 32) - 1)


class TestSampleTriples:
    """``sample_triples`` replays ``Generator.choice``; if a numpy release
    changes how ``choice`` draws, this is the test that fails."""

    @pytest.mark.parametrize("n", SAMPLE_SIZES)
    def test_equals_per_sample_choice(self, n):
        rejections = 0
        for k in (1, 2, 199, 200):
            for seed in range(50):
                rng = np.random.default_rng(seed)
                want = np.array([rng.choice(n, 3, replace=False) for _ in range(k)])
                got = sample_triples(seed, n, k)
                assert got.dtype == want.dtype and np.array_equal(got, want), (k, seed)
                rejections += _lemire_rejections(seed, n, k)
        if n == (1 << 31) + 1:
            assert rejections > 0

    def test_out_of_range_population(self):
        for n in (2, (1 << 32) + 1):
            with pytest.raises(ValueError):
                sample_triples(0, n, 1)


def _lemire_rejections(seed, n, k):
    """Words a per-sample ``choice`` replay rejects, counted one word at a time."""
    words = []
    raw = np.random.default_rng(seed).bit_generator.random_raw(8 * k + 64).tolist()
    for r in raw:
        words += [r & 0xFFFFFFFF, r >> 32]
    it = iter(words)
    rejected = 0
    for _ in range(k):
        for b in (n - 2, n - 1, n, 3, 2):
            if b == 1:
                continue
            while (next(it) * b) & 0xFFFFFFFF < ((1 << 32) - b) % b:
                rejected += 1
    return rejected


def ransac_loop_reference(src, dst, params):
    """``ransac_sim3`` as one Kabsch fit per loop step, the batch's oracle.

    Returns (transform, inlier ids, degenerate samples skipped).
    """
    src_map = {uid: np.asarray(p, dtype=float) for uid, p in src}
    dst_map = {uid: np.asarray(p, dtype=float) for uid, p in dst}
    common = sorted(set(src_map) & set(dst_map))
    if len(common) < 3:
        raise NoModelError(f"only {len(common)} shared ids, need at least 3")
    a = np.array([src_map[u] for u in common])
    b = np.array([dst_map[u] for u in common])
    rng = np.random.default_rng(params.seed)
    n = len(common)
    best_count = 0
    best_mask = None
    skipped = 0
    for _ in range(params.iterations):
        idx = rng.choice(n, size=3, replace=False)
        try:
            model = kabsch_umeyama(a[idx], b[idx])
        except DegenerateInputError:
            skipped += 1
            continue
        err = np.linalg.norm(b - model.apply(a), axis=1)
        mask = err < params.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
    if best_mask is None or best_count < params.min_inliers:
        raise NoModelError(
            f"best sample had {best_count} inliers, need {params.min_inliers}"
        )
    refit = kabsch_umeyama(a[best_mask], b[best_mask])
    return refit, [u for u, keep in zip(common, best_mask) if keep], skipped


def reference_case(kind, seed):
    """(src points, dst points, min_inliers) for one seeded reference case."""
    rng = np.random.default_rng(1000 + seed)
    true = random_sim3(rng)
    if kind == "outliers":
        pts = rng.uniform(-3, 3, size=(int(rng.integers(40, 400)), 3))
        dst = true.apply(pts) + rng.normal(0, 0.01, size=pts.shape)
        out = rng.random(len(pts)) < 0.3
        dst[out] += rng.uniform(-3, 3, size=(int(out.sum()), 3))
        return pts, dst, 12
    if kind == "degenerate":
        # a third coincident, a third on one line: many samples are rejected
        pts = rng.uniform(-3, 3, size=(24, 3))
        pts[:8] = pts[0]
        pts[8:16] = pts[8] + np.outer(rng.uniform(-2, 2, 8), rng.normal(size=3))
        return pts, true.apply(pts) + rng.normal(0, 0.005, size=pts.shape), 6
    if kind == "clusters":
        # two equal, separately consistent halves: the first best sample wins
        pts = rng.uniform(-3, 3, size=(30, 3))
        dst = true.apply(pts)
        half = rng.permutation(30)[:15]
        dst[half] = random_sim3(rng).apply(pts[half])
        return pts, dst, 12
    pts = rng.uniform(-3, 3, size=(3, 3))
    return pts, true.apply(pts), 3


# More cluster seeds: in each, the tie-break matters only when the first and
# the last best sample of a scoring block fit different halves.
REFERENCE_CASES = [(kind, iterations, seed)
                   for kind in ("outliers", "degenerate", "clusters", "three_points")
                   for iterations in (1, 33, 200)
                   for seed in range(4)]
REFERENCE_CASES += [("clusters", 200, seed) for seed in range(4, 12)]


class TestRansacMatchesLoopReference:
    @pytest.mark.parametrize("kind,iterations,seed", REFERENCE_CASES,
                             ids=[f"{k}-{i}-{s}" for k, i, s in REFERENCE_CASES])
    def test_same_inliers_and_bit_identical_refit(self, kind, iterations, seed):
        # the reference joins (id, xyz) lists; the kernel reads the same rows
        pts, dst_pts, min_inliers = reference_case(kind, seed)
        src = [(i, p) for i, p in enumerate(pts)]
        dst = [(i, p) for i, p in enumerate(dst_pts)]
        params = RansacParams(iterations=iterations, min_inliers=min_inliers, seed=seed)
        try:
            ref_t, ref_ids, skipped = ransac_loop_reference(src, dst, params)
        except NoModelError as exc:
            with pytest.raises(NoModelError) as got:
                ransac_sim3(pts, dst_pts, params)
            assert str(got.value) == str(exc)
            return
        t, ids = ransac_sim3(pts, dst_pts, params)
        assert ids == ref_ids
        assert t.scale == ref_t.scale
        assert np.array_equal(t.rotation.q, ref_t.rotation.q)
        assert np.array_equal(t.translation, ref_t.translation)
        if kind == "degenerate" and iterations == 200:
            assert skipped > 0

    def test_every_case_kind_finds_a_model(self):
        # the comparison above must not pass only through NoModelError
        for kind in ("outliers", "degenerate", "clusters", "three_points"):
            pts, dst_pts, min_inliers = reference_case(kind, 0)
            _, ids = ransac_sim3(pts, dst_pts,
                                 RansacParams(min_inliers=min_inliers, seed=0))
            assert len(ids) >= min_inliers

    def test_degenerate_masks_match_kabsch_rejections(self):
        rng = np.random.default_rng(13)
        src = rng.uniform(-3, 3, size=(60, 3, 3))
        src[:10] = src[:10, :1]  # coincident
        src[10:20] = src[10:20, :1] + 1e-13 * rng.normal(size=(10, 3, 3))  # nearly
        src[20:30] = src[20:30, :1] + rng.normal(size=(10, 3, 1)) * rng.normal(size=(10, 1, 3))
        dst = rng.uniform(-3, 3, size=(60, 3, 3))
        dst[30:40] = dst[30:40, :1]  # coincident targets
        *_, ok = _solve_samples(src, dst)
        for i in range(len(src)):
            try:
                kabsch_umeyama(src[i], dst[i])
                rejected = False
            except DegenerateInputError:
                rejected = True
            assert ok[i] == (not rejected), i
        assert 0 < ok.sum() < len(src)

    def test_all_collinear_has_no_model(self):
        line = np.outer(np.linspace(-3, 3, 20), [0.3, -0.5, 0.8])
        with pytest.raises(NoModelError, match="0 inliers"):
            ransac_sim3(line, 2.0 * line + 1.0, RansacParams(seed=1))


class TestAimd:
    def test_additive_increase(self):
        assert aimd_next(5.0, True, 1.0, 60.0) == 6.0

    def test_multiplicative_decrease(self):
        assert aimd_next(5.0, False, 1.0, 60.0) == 2.5

    def test_sequence_from_one(self):
        t = 1.0
        seq = []
        for verdict in (True, True, True, False):
            t = aimd_next(t, verdict, 1.0, 60.0)
            seq.append(t)
        assert seq == [2.0, 3.0, 4.0, 2.0]

    def test_clamped_random_sequences(self):
        rng = np.random.default_rng(12)
        t = 5.0
        for _ in range(10_000):
            t = aimd_next(t, bool(rng.random() < 0.5), 1.0, 60.0)
            assert 1.0 <= t <= 60.0

    def test_state_record_and_skip(self):
        st = AimdState(interval=5.0, next_due=5.0)
        st.record(aligned=True, now=5.0)
        assert st.interval == 6.0 and st.next_due == 11.0
        st.skip(now=11.0)
        assert st.interval == 6.0 and st.next_due == 17.0

    def test_verdict_rule(self):
        assert well_aligned(0.95, 0.01, 0.9, 0.025)
        assert not well_aligned(0.5, 0.01, 0.9, 0.025)
        assert not well_aligned(0.95, 0.5, 0.9, 0.025)
