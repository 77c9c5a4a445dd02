"""Bag-of-words merge detection over an agent's local map.

Scoring visits every keyframe that shares at least one word id with the
query and adds the similarity of its five most covisible neighbours, keeping
the best-scoring keyframe.  Acceptance compares that score against a dynamic
baseline: the same scoring run again with the best match's own histogram as
the query.  A merge is plausible when the query scores at least
``ACCEPTANCE_FACTOR`` times what the map scores against itself around that
location.

Histograms are word counts, the same integers on every agent that holds a
keyframe.  A scoring pass is a few array operations over the map's rows
(keyframes in ascending id order): `AgentMap.covisible_windows` gives every
row's five most covisible neighbours, one batch over the map's stacked
histograms gives every row's similarity to the query and whether it shares a
word id, and each candidate's score adds its window's similarities left to
right with one `np.add.accumulate`, the candidate first, adding 0.0 where a
window is short.  The similarity is exact integer arithmetic and one
division, so the batch equals `bow_similarity` bit for bit in any summation
order, and each prefix sum is computed from the one before, so the scores
are the floats a loop over each window adds up.  The windows and the stacked
histograms stay in ``AgentMap.derived`` until the map changes, so
`dynamic_baseline` reuses those of the query's pass.  Each keyframe's
histogram arrays are built once and kept on the keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .map_store import AgentMap, KeyFrame, UnknownObjectError

COVISIBLE_COUNT = 5
# the share of the dynamic baseline a query must score for the protocol to
# accept a merge
ACCEPTANCE_FACTOR = 0.75
# `AgentMap.derived` key of the map's stacked histograms
_STACKED = ("histograms",)


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


def _stack(keyframes: list[KeyFrame]) -> tuple[np.ndarray, ...]:
    """Every histogram entry's word id, count and row, and each row's total."""
    for kf in keyframes:
        if kf.histogram is None:
            kf.histogram = _histogram(kf.words)
    hists = [kf.histogram for kf in keyframes]
    empty = [np.zeros(0, dtype=np.int64)]
    ids = np.concatenate([h[0] for h in hists] or empty)
    counts = np.concatenate([h[1] for h in hists] or empty)
    owners = np.repeat(np.arange(len(hists)), [len(h[0]) for h in hists])
    totals = np.zeros(len(hists), dtype=np.int64)
    np.add.at(totals, owners, counts)
    return ids, counts, owners, totals


def _similarity_rows(stacked: tuple[np.ndarray, ...],
                     words: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """`bow_similarities` of stacked histograms as an array, and which rows
    share a word id with the query."""
    ids, counts, owners, totals = stacked
    sim = np.zeros(len(totals))
    hit = np.zeros(len(totals), dtype=bool)
    if not words:
        return sim, hit
    q_ids, q_counts = _histogram(words)
    nq = int(q_counts.sum())
    # each keyframe word's slot in the query, where the query has that word
    at = np.minimum(np.searchsorted(q_ids, ids), len(q_ids) - 1)
    shared = np.flatnonzero(q_ids[at] == ids)
    hit[owners[shared]] = True
    overlap = np.zeros(len(totals), dtype=np.int64)
    np.add.at(overlap, owners[shared], np.minimum(
        counts[shared] * nq, q_counts[at[shared]] * totals[owners[shared]]))
    scale = totals * nq
    np.divide(overlap, scale, out=sim, where=scale != 0)
    return sim, hit


def bow_similarities(keyframes: list[KeyFrame], words: dict[int, int]) -> list[float]:
    """``bow_similarity(kf.words, words)`` for every keyframe, equal bit for bit.

    A keyframe's histogram arrays are kept in ``kf.histogram``: its ``words``
    is never mutated after construction.  Counts stay below 2**16 per
    histogram (the wire and the config bound the total), so every product and
    sum is an exact int64 below 2**53, the same integers in any order, and
    the one division rounds them as `bow_similarity`'s does.
    """
    return _similarity_rows(_stack(keyframes), words)[0].tolist()


def calculate_merge_score(m: AgentMap, words: dict[int, int]) -> tuple[float, int | None]:
    """Best (score, keyframe id) for a query histogram, (0, None) if no match.

    Candidates are the keyframes sharing a word id with the query, in
    ascending id order; a tie on the best score is won by the later
    candidate, which makes the result deterministic.  The windows and the
    stacked histograms are kept in ``m.derived`` until the map changes.
    """
    ids, top = m.covisible_windows(COVISIBLE_COUNT)
    if _STACKED not in m.derived:
        m.derived[_STACKED] = ids, _stack([m.keyframes[kid] for kid in ids])
    sim, hit = _similarity_rows(m.derived[_STACKED][1], words)
    rows = np.flatnonzero(hit)
    if not len(rows):
        return 0.0, None
    # each candidate's similarity, then its window's; a short window's -1
    # reads the 0.0 appended after the last row
    window = np.append(sim, 0.0)[np.column_stack([rows, top[rows]])]
    # accumulate adds left to right, as a loop over the window does
    scores = np.add.accumulate(window, axis=1)[:, -1]
    # the last candidate that reaches the best score
    best = len(rows) - 1 - int(np.argmax(scores[::-1]))
    return float(scores[best]), ids[rows[best]]


def dynamic_baseline(m: AgentMap, best_kf: int) -> float:
    """Self-score of the map around `best_kf` (its own histogram as query)."""
    if best_kf not in m.keyframes:
        raise UnknownObjectError(f"keyframe {best_kf} not in map")
    score, _ = calculate_merge_score(m, m.keyframes[best_kf].words)
    return score


def detect_merge(m: AgentMap, words: dict[int, int]) -> MergeCandidate | None:
    score, best_kf = calculate_merge_score(m, words)
    if best_kf is None:
        return None
    baseline = dynamic_baseline(m, best_kf)
    if score >= ACCEPTANCE_FACTOR * baseline:
        return MergeCandidate(score, best_kf, baseline)
    return None
