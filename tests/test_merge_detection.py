from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshslam.map_store import AgentMap, KeyFrame, MapPoint, UnknownObjectError
from meshslam.merge_detection import (
    COVISIBLE_COUNT,
    bow_similarities,
    bow_similarity,
    calculate_merge_score,
    detect_merge,
    dynamic_baseline,
)
from meshslam.geometry import Se3Pose


def make_kf(uid, words, observed=()):
    return KeyFrame(
        id=uid, origin_agent=0, timestamp=0.0, pose=Se3Pose.identity(),
        words={w: 1 for w in words},
        observed_points=set(observed),
    )


def exact_similarity(a, b):
    """``1 - sum_w |a_w/n_a - b_w/n_b| / 2`` as an exact rational, rounded once."""
    na, nb = sum(a.values()), sum(b.values())
    if not na or not nb:
        return 0.0
    d = sum(abs(a.get(w, 0) * nb - b.get(w, 0) * na) for w in set(a) | set(b))
    return float(1 - Fraction(d, 2 * na * nb))


def exhaustive_merge_score(m, words):
    """Scoring oracle: linear scan instead of the inverted index, covisibility
    recounted by brute-force set intersection, similarity as an exact rational."""
    sim = exact_similarity
    best_score, best_kf = 0.0, None
    for kid in sorted(m.keyframes):
        kf = m.keyframes[kid]
        if not set(kf.words) & set(words):
            continue
        score = sim(kf.words, words)
        weights = {}
        for other in m.keyframes:
            if other == kid:
                continue
            shared = len(kf.observed_points & m.keyframes[other].observed_points
                         & set(m.points))
            if shared > 0:
                weights[other] = shared
        ranked = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        for cov_id, _ in ranked[:COVISIBLE_COUNT]:
            score += sim(m.keyframes[cov_id].words, words)
        if score >= best_score:
            best_score, best_kf = score, kid
    return best_score, best_kf


def random_map(rng, max_kf=50, max_words=100):
    m = AgentMap()
    n_kf = int(rng.integers(1, max_kf + 1))
    point_uid = 10_000
    live = []
    for uid in range(1, n_kf + 1):
        n_obs = int(rng.integers(1, 6))
        observed, new_pts = set(), []
        for _ in range(n_obs):
            if live and rng.random() < 0.6:
                observed.add(int(rng.choice(live)))
            else:
                w = int(rng.integers(0, max_words))
                new_pts.append(MapPoint(point_uid, rng.uniform(-5, 5, 3), w, {uid}))
                observed.add(point_uid)
                point_uid += 1
        words = sorted({p.word for p in new_pts}
                       | {m.points[p].word for p in observed if p in m.points})
        kf = make_kf(uid, words, observed=observed)
        m.insert_keyframe(kf, new_pts)
        live = sorted(m.points)
    return m


class TestBowSimilarity:
    def test_identical(self):
        h = {1: 1, 2: 1}
        assert bow_similarity(h, h) == 1.0

    def test_disjoint(self):
        assert bow_similarity({1: 1}, {2: 1}) == 0.0

    def test_half_overlap(self):
        # 1 - 0.5 * (|1 - 0.5| + |0 - 0.5|) = 0.5
        assert bow_similarity({1: 1}, {1: 1, 2: 1}) == 0.5

    def test_empty_is_zero(self):
        assert bow_similarity({}, {1: 1}) == 0.0
        assert bow_similarity({}, {}) == 0.0

    def test_scale_invariant(self):
        a = {1: 2, 2: 6}
        b = {1: 1, 2: 3}
        assert bow_similarity(a, b) == 1.0

    def test_exact_where_float_fractions_round(self):
        # the exact score is 3/5; summing |0.3 - 0.7| + |0.7 - 0.3| in floats
        # gives 0.6000000000000001
        assert bow_similarity({1: 3, 2: 7}, {1: 7, 2: 3}) == 0.6


class TestCalculateMergeScore:
    def test_empty_map(self):
        assert calculate_merge_score(AgentMap(), {1: 1}) == (0.0, None)

    def test_single_isolated_identical(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2]), [])
        score, best = calculate_merge_score(m, {1: 2, 2: 2})
        assert score == 1.0
        assert best == 1

    def test_unseen_words_only(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2]), [])
        assert calculate_merge_score(m, {9: 1}) == (0.0, None)

    def test_oracle_equivalence_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = random_map(rng)
            q_words = {int(w): int(rng.integers(1, 10))
                       for w in rng.choice(100, size=int(rng.integers(1, 6)), replace=False)}
            got = calculate_merge_score(m, q_words)
            want = exhaustive_merge_score(m, q_words)
            assert got[0] == want[0]  # bit-equal
            assert got[1] == want[1]

    def test_adding_identical_keyframe_never_decreases(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_map(rng, max_kf=20)
            q = {int(w): 1 for w in rng.choice(100, size=3, replace=False)}
            before, _ = calculate_merge_score(m, q)
            m.insert_keyframe(make_kf(999_999, sorted(q)), [])
            after, _ = calculate_merge_score(m, q)
            assert after >= before

    def test_score_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_map(rng)
            q = {int(w): 1 for w in rng.choice(100, size=4, replace=False)}
            score, _ = calculate_merge_score(m, q)
            assert score <= COVISIBLE_COUNT + 1.0


class TestDynamicBaseline:
    def test_isolated_keyframe(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2, 3]), [])
        assert dynamic_baseline(m, 1) == 1.0

    def test_five_identical_covisible_neighbors(self):
        m = AgentMap()
        pids = [100, 101, 102]
        pts = [MapPoint(p, np.zeros(3), p - 100, {1}) for p in pids]
        m.insert_keyframe(make_kf(1, [0, 1, 2], observed=set(pids)), pts)
        for uid in range(2, 7):
            m.insert_keyframe(make_kf(uid, [0, 1, 2], observed=set(pids)), [])
        assert dynamic_baseline(m, 1) == 6.0

    def test_missing_keyframe_errors(self):
        with pytest.raises(UnknownObjectError):
            dynamic_baseline(AgentMap(), 1)


class TestDetectMerge:
    def test_equal_histogram_accepted(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2]), [])
        cand = detect_merge(m, {1: 3, 2: 3}, acceptance_factor=0.75)
        assert cand is not None
        assert cand.best_match_kf == 1
        assert cand.score == cand.baseline == 1.0

    def test_disjoint_rejected(self):
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1, 2]), [])
        assert detect_merge(m, {9: 1}, 0.75) is None

    def test_threshold_arithmetic(self):
        # single keyframe {w1}; query {w1: 1, w2: 1} scores 0.5, baseline 1.0
        m = AgentMap()
        m.insert_keyframe(make_kf(1, [1]), [])
        q = {1: 1, 2: 1}
        assert detect_merge(m, q, acceptance_factor=0.75) is None
        cand = detect_merge(m, q, acceptance_factor=0.4)
        assert cand is not None
        assert cand.score == 0.5
        assert cand.baseline == 1.0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            detect_merge(AgentMap(), {}, 0.0)
        with pytest.raises(ValueError):
            detect_merge(AgentMap(), {}, 1.5)


def bare_kf(uid, words):
    """A keyframe holding `words` as given."""
    return KeyFrame(id=uid, origin_agent=0, timestamp=0.0, pose=Se3Pose.identity(),
                    words=dict(words))


def hexes(values):
    return [float(v).hex() for v in values]


TOP_ID = (1 << 32) - 1
# word counts as the wire carries them: positive, adding up to at most 65535
HISTOGRAMS = st.dictionaries(
    st.one_of(st.integers(0, 40), st.integers(TOP_ID - 40, TOP_ID)),
    st.one_of(st.integers(1, 5), st.integers(1, 65535 // 12)),
    max_size=12)


def permuted(words, rnd):
    items = list(words.items())
    rnd.shuffle(items)
    return dict(items)


class TestBowSimilarities:
    """The batch equals the scalar `bow_similarity` bit for bit."""

    def check(self, histograms, query):
        kfs = [bare_kf(i, h) for i, h in enumerate(histograms)]
        want = [bow_similarity(h, query) for h in histograms]
        assert hexes(bow_similarities(kfs, query)) == hexes(want)
        # a second pass reads the histograms kept on the keyframes
        assert hexes(bow_similarities(kfs, query)) == hexes(want)

    def test_histogram_kept_on_keyframe(self):
        kf = bare_kf(1, {9: 2, 1: 1})
        assert kf.histogram is None
        bow_similarities([kf], {1: 1})
        ids, counts = kf.histogram
        assert ids.tolist() == [1, 9] and ids.dtype == np.int64
        assert counts.tolist() == [1, 2] and counts.dtype == np.int64
        assert bow_similarities([kf], {1: 1}) == [bow_similarity(kf.words, {1: 1})]

    def test_edge_histograms(self):
        edge = [{}, {3: 0}, {3: 0, 4: 0}, {1: 1}, {7: 1}, {1: 1, 2: 4},
                {9: 4, 1: 2, 5: 1}, {TOP_ID: 1}, {TOP_ID - 1: 3, TOP_ID: 7},
                {0: 1, TOP_ID: 1}, {1: 1, 2: 3}, {1: 65535}, {1: 32768, 2: 32767},
                {2: 1, 3: 65534}, {TOP_ID: 65535}]
        for query in edge:
            self.check(edge, query)

    def test_no_keyframes(self):
        assert bow_similarities([], {1: 1}) == []

    def test_disjoint_and_single_word(self):
        self.check([{1: 1}, {2: 1}, {1: 1, 2: 1}], {3: 1})
        self.check([{1: 1}, {2: 1}, {1: 1, 2: 1}], {2: 1})

    def test_random_histograms(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            hists = [{int(w): int(rng.integers(1, 6)) for w in
                      rng.choice(400, size=int(rng.integers(1, 30)))}
                     for _ in range(int(rng.integers(1, 40)))]
            self.check(hists, hists[int(rng.integers(len(hists)))])
            self.check(hists, {int(w): int(rng.integers(1, 2000))
                               for w in rng.choice(400, size=10, replace=False)})

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(histograms=st.lists(HISTOGRAMS, max_size=8), query=HISTOGRAMS,
           rnd=st.randoms(use_true_random=False))
    def test_property(self, histograms, query, rnd):
        """Bit-equal to the scalar form and to the exact score rounded once, in
        whatever order the histograms' dicts hold their words."""
        self.check(histograms, query)
        want = hexes(exact_similarity(h, query) for h in histograms)
        assert hexes(bow_similarity(h, query) for h in histograms) == want
        shuffled = [permuted(h, rnd) for h in histograms]
        q = permuted(query, rnd)
        assert hexes(bow_similarity(h, q) for h in shuffled) == want
        assert hexes(bow_similarities([bare_kf(i, h) for i, h in enumerate(shuffled)], q)) == want
        for h in histograms:
            assert bow_similarity(h, permuted(h, rnd)) == (1.0 if h else 0.0)


def exhaustive_detect_merge(m, words, factor):
    score, best = exhaustive_merge_score(m, words)
    if best is None:
        return None
    baseline, _ = exhaustive_merge_score(m, m.keyframes[best].words)
    return (score, best, baseline) if score >= factor * baseline else None


class TestScoringAcrossMutations:
    """Scores equal the exhaustive oracle after every map mutation, so no
    cached ranking or histogram outlives what it was computed from."""

    def assert_scores(self, m, rng):
        queries = [m.keyframes[kid].words for kid in sorted(m.keyframes)[-3:]]
        queries += [{int(w): int(rng.integers(1, 10))
                     for w in rng.choice(30, size=int(rng.integers(1, 6)), replace=False)}
                    for _ in range(3)]
        for q in queries:
            assert calculate_merge_score(m, q) == exhaustive_merge_score(m, q)
            cand = detect_merge(m, q, acceptance_factor=0.75)
            got = None if cand is None else (cand.score, cand.best_match_kf, cand.baseline)
            assert got == exhaustive_detect_merge(m, q, 0.75)

    def test_interleaved_mutations(self):
        rng = np.random.default_rng(31)
        hits = dict.fromkeys(("new_keyframe", "late_point", "merge", "absorb"), 0)
        for trial in range(6):
            m = random_map(rng, max_kf=25, max_words=30)
            next_id = 50_000
            for step in range(12):
                self.assert_scores(m, rng)
                kind = ("new_keyframe", "late_point", "merge", "absorb")[step % 4]
                pool = sorted(m.points)
                if kind == "new_keyframe":
                    seen = {int(p) for p in rng.choice(pool, size=min(4, len(pool)), replace=False)}
                    next_id += 1
                    words = sorted({m.points[p].word for p in seen})
                    m.insert_keyframe(make_kf(next_id, words, observed=seen), [])
                elif kind == "late_point":
                    # a keyframe lists a point that arrives after it
                    next_id += 2
                    kid, pid = next_id - 1, next_id
                    seen = {int(p) for p in rng.choice(pool, size=min(3, len(pool)), replace=False)}
                    word = m.points[min(seen)].word
                    m.insert_keyframe(make_kf(kid, [word], observed=seen | {pid}), [])
                    assert kid in m.pending_point_links[pid]
                    self.assert_scores(m, rng)
                    m.upsert_point(MapPoint(pid, np.zeros(3), word, set()))
                    assert pid in m.keyframes[kid].observed_points and pid in m.points
                elif kind == "merge":
                    pairs = [(a, b) for a in pool for b in pool
                             if a < b and m.points[a].word == m.points[b].word]
                    if not pairs:
                        continue
                    keep, discard = pairs[int(rng.integers(len(pairs)))]
                    m.merge_map_points(keep, discard)
                else:
                    private = AgentMap()
                    for _ in range(3):
                        next_id += 2
                        kid, pid = next_id - 1, next_id
                        word = int(rng.integers(0, 30))
                        shared = {int(p) for p in rng.choice(pool, size=2, replace=False)}
                        private.insert_keyframe(
                            make_kf(kid, [word], observed=shared | {pid}),
                            [MapPoint(pid, np.zeros(3), word, {kid})])
                    m.absorb(private)
                hits[kind] += 1
                m.check_integrity()
            self.assert_scores(m, rng)
        assert all(hits.values()), hits


class TestTies:
    """Maps of identical histograms, where every comparison is a tie."""

    def test_isolated_identical_keyframes_later_id_wins(self):
        m = AgentMap()
        for uid in (5, 3, 9, 1, 7):
            m.insert_keyframe(make_kf(uid, [1, 2, 3]), [])
        q = m.keyframes[1].words
        assert calculate_merge_score(m, q) == exhaustive_merge_score(m, q) == (1.0, 9)

    def test_identical_covisible_cliques(self):
        # two cliques of identical keyframes: every candidate scores the same
        m = AgentMap()
        for clique, pid in ((range(1, 7), 100), (range(11, 17), 200)):
            m.insert_keyframe(make_kf(clique[0], [1, 2], observed={pid}),
                              [MapPoint(pid, np.zeros(3), 1, {clique[0]})])
            for uid in clique[1:]:
                m.insert_keyframe(make_kf(uid, [1, 2], observed={pid}), [])
        q = {1: 1, 2: 1}
        assert calculate_merge_score(m, q) == exhaustive_merge_score(m, q) == (6.0, 16)
        assert dynamic_baseline(m, 16) == 6.0

    def test_random_tie_heavy_maps(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            m = random_map(rng, max_kf=30, max_words=3)
            for q in ({0: 1}, {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}):
                assert calculate_merge_score(m, q) == exhaustive_merge_score(m, q)
