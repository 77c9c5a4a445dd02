"""Bag-of-words merge detection over an agent's local map.

Scoring walks every keyframe that shares at least one word with the query
(via the inverted index) and adds the similarity of its five most covisible
neighbors, keeping the best-scoring keyframe.  Acceptance compares that score
against a dynamic baseline: the same scoring run again with the best match's
own histogram as the query.  A merge is plausible when the query scores at
least ``acceptance_factor`` times what the map scores against itself around
that location.

Histograms are word counts, the same integers on every agent that holds a
keyframe.  A scoring pass first collects every candidate's window (the
candidate and its top covisible neighbors, a ranking the map reuses until the
keyframe's observations change), then computes the similarity of every
keyframe the windows name in one `bow_similarities` batch.  The score is
exact integer arithmetic and one division, so the batch equals
`bow_similarity` bit for bit in any summation order.  Each keyframe's
histogram arrays are built once and kept on the keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .map_store import AgentMap, KeyFrame, UnknownObjectError

COVISIBLE_COUNT = 5
# the share of the dynamic baseline a query must score for the protocol to
# accept a merge
ACCEPTANCE_FACTOR = 0.75


@dataclass(frozen=True)
class MergeCandidate:
    score: float
    best_match_kf: int
    baseline: float


def bow_similarity(a: dict[int, int], b: dict[int, int]) -> float:
    """L1 similarity in [0, 1] of two word-count histograms; empty against anything is 0.

    Equal to ``1 - sum_w |a_w*n_b - b_w*n_a| / (2*n_a*n_b)`` for totals
    ``n_a`` and ``n_b`` (the absolute differences add up to ``2*n_a*n_b``
    minus twice the shared minima), computed exactly on integers and rounded
    once.
    """
    na, nb = sum(a.values()), sum(b.values())
    if not na or not nb:
        return 0.0
    return sum(min(c * nb, b[w] * na) for w, c in a.items() if w in b) / (na * nb)


def _histogram(words: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending word ids and their counts, as int64 arrays."""
    ids = np.fromiter(words, dtype=np.int64, count=len(words))
    counts = np.fromiter(words.values(), dtype=np.int64, count=len(words))
    order = np.argsort(ids)
    return ids[order], counts[order]


def bow_similarities(keyframes: list[KeyFrame], words: dict[int, int]) -> list[float]:
    """``bow_similarity(kf.words, words)`` for every keyframe, equal bit for bit.

    A keyframe's histogram arrays are kept in ``kf.histogram``: its ``words``
    is never mutated after construction.  Counts stay below 2**16 per
    histogram (the wire and the config bound the total), so every product and
    sum is an exact int64 below 2**53, the same integers in any order, and
    the one division rounds them as `bow_similarity`'s does.
    """
    q_ids, q_counts = _histogram(words)
    nq = int(q_counts.sum())
    if not keyframes or not nq:
        return [0.0] * len(keyframes)
    for kf in keyframes:
        if kf.histogram is None:
            kf.histogram = _histogram(kf.words)
    hists = [kf.histogram for kf in keyframes]
    ids = np.concatenate([h[0] for h in hists])
    counts = np.concatenate([h[1] for h in hists])
    owners = np.repeat(np.arange(len(hists)), [len(h[0]) for h in hists])
    totals = np.zeros(len(hists), dtype=np.int64)
    np.add.at(totals, owners, counts)
    # each keyframe word's slot in the query, where the query has that word
    at = np.minimum(np.searchsorted(q_ids, ids), len(q_ids) - 1)
    shared = np.flatnonzero(q_ids[at] == ids)
    overlap = np.zeros(len(hists), dtype=np.int64)
    np.add.at(overlap, owners[shared], np.minimum(
        counts[shared] * nq, q_counts[at[shared]] * totals[owners[shared]]))
    scale = totals * nq
    return np.divide(overlap, scale, out=np.zeros(len(hists)), where=scale != 0).tolist()


def calculate_merge_score(m: AgentMap, words: dict[int, int]) -> tuple[float, int | None]:
    """Best (score, keyframe id) for a query histogram, (0, None) if no match.

    Candidates are visited in ascending id order and a tie on the running
    best is won by the later candidate, which makes the result deterministic.
    """
    candidates = sorted(m.query_visual_word_set(words))
    windows = [[kid, *m.top_covisible(kid, COVISIBLE_COUNT)] for kid in candidates]
    needed = list(dict.fromkeys(chain.from_iterable(windows)))
    similarity = dict(zip(needed, bow_similarities([m.keyframes[n] for n in needed], words)))
    best_score = 0.0
    best_kf: int | None = None
    for kid, window in zip(candidates, windows):
        score = 0.0
        for nid in window:
            score += similarity[nid]
        if score >= best_score:
            best_score = score
            best_kf = kid
    return best_score, best_kf


def dynamic_baseline(m: AgentMap, best_kf: int) -> float:
    """Self-score of the map around `best_kf` (its own histogram as query)."""
    if best_kf not in m.keyframes:
        raise UnknownObjectError(f"keyframe {best_kf} not in map")
    score, _ = calculate_merge_score(m, m.keyframes[best_kf].words)
    return score


def detect_merge(m: AgentMap, words: dict[int, int],
                 acceptance_factor: float) -> MergeCandidate | None:
    if not 0.0 < acceptance_factor <= 1.0:
        raise ValueError("acceptance_factor must be in (0, 1]")
    score, best_kf = calculate_merge_score(m, words)
    if best_kf is None:
        return None
    baseline = dynamic_baseline(m, best_kf)
    if score >= acceptance_factor * baseline:
        return MergeCandidate(score, best_kf, baseline)
    return None
