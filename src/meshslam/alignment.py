"""Similarity-transform estimation and the map alignment refiner pieces.

``kabsch_umeyama`` solves the closed-form least squares fit of scale,
rotation and translation between matched point sets (centroids, covariance
SVD with reflection correction, trace formula for scale).  ``ransac_sim3``
rejects outliers among matched point rows.  ``sample_triples`` draws
all of its 3-point samples in one pass over the seeded generator's raw
output, exactly as per-sample ``rng.choice(n, 3, replace=False)`` calls
would; every hypothesis is solved as one batch (one SVD call over all
samples, with ``kabsch_umeyama``'s degenerate cases as masks), scored in
blocks of ``SCORE_BLOCK`` hypotheses, and the best inlier set is refit with
``kabsch_umeyama``.  ``match_tagged`` joins two id-tagged point blocks once
per alignment round, so the fit and its residuals read the same rows.  The
AIMD schedule decides how often a follower re-aligns against its group
leader: interval + 1 after a good round, interval / 2 after a bad one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Rotation, Sim3Transform


# Hypotheses scored per array pass in ``ransac_sim3``.  Scoring all of them at
# once holds (iterations, 3, n) temporaries and raises the peak RSS.
SCORE_BLOCK = 32

_LOW32 = np.uint64(0xFFFFFFFF)


class DegenerateInputError(ValueError):
    pass


class NoModelError(RuntimeError):
    pass


@dataclass
class RansacParams:
    iterations: int = 200
    inlier_threshold: float = 0.05
    min_inliers: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.iterations <= 0 or self.inlier_threshold <= 0 or self.min_inliers <= 0:
            raise ValueError("RANSAC parameters must be positive")


def kabsch_umeyama(src: np.ndarray, dst: np.ndarray) -> Sim3Transform:
    """Least squares similarity transform with dst ~= s * R @ src + t.

    Raises DegenerateInputError when fewer than 3 points are given or the
    centered source is (numerically) rank deficient below 2, where the
    rotation is no longer determined.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("src and dst must be matching (n, 3) arrays")
    n = src.shape[0]
    if n < 3:
        raise DegenerateInputError(f"need at least 3 points, got {n}")
    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    src_c = src - mu_src
    dst_c = dst - mu_dst
    var_src = float((src_c ** 2).sum()) / n
    if var_src < 1e-24:
        raise DegenerateInputError("source points are coincident")
    cov = (dst_c.T @ src_c) / n
    u, d, vt = np.linalg.svd(cov)
    if d[1] < 1e-12 * max(d[0], 1e-300):
        raise DegenerateInputError("covariance rank below 2 (collinear points)")
    s_fix = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_fix[2] = -1.0
    rot = u @ np.diag(s_fix) @ vt
    scale = float(np.sum(d * s_fix)) / var_src
    if scale <= 0:
        raise DegenerateInputError("non-positive scale solution")
    trans = mu_dst - scale * rot @ mu_src
    return Sim3Transform(scale, Rotation.from_matrix(rot), trans)


def sample_triples(seed: int, n: int, k: int) -> np.ndarray:
    """(k, 3) int64 rows of distinct indices below n, drawn in one pass.

    Equal, element for element, to ``rng.choice(n, 3, replace=False)``
    called k times on ``rng = np.random.default_rng(seed)``.  Each such call
    is Floyd's algorithm (picks below n - 2, n - 1 and n; a pick that repeats
    an earlier one becomes n - 2 or n - 1) followed by a shuffle that swaps
    position 2 with a pick below 3, then position 1 with a pick below 2.
    Every pick below a bound b > 1 is Lemire's method on the next 32-bit word
    of the PCG64 stream, low half of each 64-bit output first: the pick is
    (word * b) >> 32, unless the low 32 bits of that product fall below
    (2**32 - b) % b, in which case the word is skipped and the next one is
    tried.  A pick below 1 takes no word.
    """
    if not 3 <= n <= 1 << 32:
        raise ValueError(f"need 3 <= n <= 2**32, got {n}")
    per_sample = np.array([n - 2, n - 1, n, 3, 2], dtype=np.uint64)
    per_sample = per_sample[per_sample > 1]
    bounds = np.tile(per_sample, k)
    reject_below = (np.uint64(1 << 32) - bounds) % bounds
    bitgen = np.random.default_rng(seed).bit_generator
    words = np.empty(0, dtype=np.uint64)
    picks = np.empty(len(bounds), dtype=np.uint64)
    # Slots before `start` are settled; `skipped` words were rejected there.
    # Each pass settles everything up to the next rejection, so a draw
    # without rejections takes one pass.
    start = skipped = 0
    while True:
        need = len(bounds) + skipped
        if len(words) < need:
            raw = bitgen.random_raw((need - len(words) + 1) // 2)
            halves = np.stack([raw & _LOW32, raw >> np.uint64(32)], axis=1)
            words = np.concatenate([words, halves.ravel()])
        m = words[start + skipped:need] * bounds[start:]
        picks[start:] = m >> np.uint64(32)
        rejected = np.flatnonzero((m & _LOW32) < reject_below[start:])
        if not len(rejected):
            break
        start += int(rejected[0])
        skipped += 1
    v = picks.reshape(k, len(per_sample)).astype(np.int64)
    if len(per_sample) == 4:  # n == 3: the first pick is below 1
        v = np.hstack([np.zeros((k, 1), dtype=np.int64), v])
    out = v[:, :3].copy()
    out[out[:, 1] == out[:, 0], 1] = n - 2
    out[(out[:, 2] == out[:, 0]) | (out[:, 2] == out[:, 1]), 2] = n - 1
    rows = np.arange(k)
    for pos, j in ((2, v[:, 3]), (1, v[:, 4])):
        swapped = out[rows, j]
        out[rows, j] = out[:, pos]
        out[:, pos] = swapped
    return out


def match_tagged(
    src: tuple[list[int], np.ndarray], dst: tuple[list[int], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of two id-tagged point blocks that share an id.

    A block is (ids, (len(ids), 3) positions).  ``src``'s ids ascend, so the
    matched rows come in ascending id order.  Returns the matched ``src``
    rows and ``dst`` rows, the input of ``ransac_sim3``.
    """
    src_ids, src_pos = src
    dst_ids, dst_pos = dst
    row_of = {uid: i for i, uid in enumerate(dst_ids)}
    src_rows = [i for i, uid in enumerate(src_ids) if uid in row_of]
    dst_rows = [row_of[src_ids[i]] for i in src_rows]
    return src_pos[src_rows], dst_pos[dst_rows]


def ransac_sim3(
    src: np.ndarray, dst: np.ndarray, params: RansacParams
) -> tuple[Sim3Transform, list[int]]:
    """Robust fit between matched (n, 3) point rows: row i of ``src`` and of
    ``dst`` are the same point in the two frames.

    Returns the refit transform and the ascending row indices of its inlier
    correspondences.  Deterministic for a fixed seed.  Raises NoModelError
    when there are fewer than 3 rows or no sample reaches ``min_inliers``.
    """
    if src.shape != np.shape(dst) or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("src and dst must be matching (n, 3) arrays")
    n = len(src)
    if n < 3:
        raise NoModelError(f"only {n} shared ids, need at least 3")
    samples = sample_triples(params.seed, n, params.iterations)
    scale, rot, trans, ok = _solve_samples(src[samples], dst[samples])
    a_t, b_t = np.ascontiguousarray(src.T), np.ascontiguousarray(dst.T)
    best_count = 0
    best_mask: np.ndarray | None = None
    good = np.flatnonzero(ok)
    # The first hypothesis with the highest count wins, as a loop keeping
    # only strictly better counts would pick it.
    for lo in range(0, len(good), SCORE_BLOCK):
        h = good[lo:lo + SCORE_BLOCK]
        inliers = _residuals(scale[h], rot[h], trans[h], a_t, b_t) < params.inlier_threshold
        counts = inliers.sum(axis=1)
        j = int(np.argmax(counts))
        if counts[j] > best_count:
            best_count = int(counts[j])
            best_mask = inliers[j]
    if best_mask is None or best_count < params.min_inliers:
        raise NoModelError(
            f"best sample had {best_count} inliers, need {params.min_inliers}"
        )
    refit = kabsch_umeyama(src[best_mask], dst[best_mask])
    return refit, np.flatnonzero(best_mask).tolist()


def _solve_samples(src: np.ndarray, dst: np.ndarray):
    """``kabsch_umeyama`` over a (k, m, 3) stack of matched samples at once.

    Returns (scale, rot, trans, ok) of shapes (k,), (k, 3, 3), (k, 3), (k,);
    ``ok`` is False where ``kabsch_umeyama`` would raise DegenerateInputError
    (coincident source, covariance rank below 2, non-positive scale), and the
    other outputs are meaningless there.
    """
    m = src.shape[1]
    mu_src = src.mean(axis=1)
    mu_dst = dst.mean(axis=1)
    src_c = src - mu_src[:, None, :]
    dst_c = dst - mu_dst[:, None, :]
    var_src = (src_c ** 2).sum(axis=(1, 2)) / m
    cov = (np.swapaxes(dst_c, 1, 2) @ src_c) / m
    u, d, vt = np.linalg.svd(cov)
    s_fix = np.ones_like(d)
    s_fix[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
    rot = (u * s_fix[:, None, :]) @ vt
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = (d * s_fix).sum(axis=1) / var_src
    ok = ((var_src >= 1e-24)
          & (d[:, 1] >= 1e-12 * np.maximum(d[:, 0], 1e-300))
          & (scale > 0))
    trans = mu_dst - scale[:, None] * (rot @ mu_src[:, :, None])[:, :, 0]
    return scale, rot, trans, ok


def _residuals(scale, rot, trans, a_t: np.ndarray, b_t: np.ndarray) -> np.ndarray:
    """(h, n) distances |b - (scale * rot @ a + trans)| for h hypotheses.

    ``a_t`` and ``b_t`` are the points as (3, n) rows, so every array pass
    runs over contiguous memory.
    """
    d = rot @ a_t
    d *= scale[:, None, None]
    d += trans[:, :, None]
    np.subtract(b_t, d, out=d)
    d *= d
    # Summed by component: np.linalg.norm(..., axis=1) is several times slower.
    return np.sqrt(d[:, 0] + d[:, 1] + d[:, 2])


def inlier_rmse(transform: Sim3Transform, src: np.ndarray, dst: np.ndarray) -> float:
    """Root mean square of |dst - transform(src)| over matched rows."""
    res = np.linalg.norm(dst - transform.apply(src), axis=1)
    return float(np.sqrt(np.mean(res ** 2)))


def well_aligned(
    inlier_ratio: float, inlier_rmse: float, ok_ratio: float, ok_rmse: float
) -> bool:
    """Round verdict: enough correspondences agreed and the fit was tight."""
    return inlier_ratio >= ok_ratio and inlier_rmse <= ok_rmse


def aimd_next(interval: float, aligned: bool, t_min: float, t_max: float) -> float:
    """Additive increase (+1) on a good round, halving on a bad one, clamped."""
    nxt = interval + 1.0 if aligned else interval / 2.0
    return min(max(nxt, t_min), t_max)


@dataclass
class AimdState:
    interval: float
    next_due: float
    t_min: float = 1.0
    t_max: float = 60.0

    def record(self, aligned: bool, now: float) -> None:
        self.interval = aimd_next(self.interval, aligned, self.t_min, self.t_max)
        self.next_due = now + self.interval

    def skip(self, now: float) -> None:
        """Round could not run (leader unreachable); retry at the same interval."""
        self.next_due = now + self.interval
