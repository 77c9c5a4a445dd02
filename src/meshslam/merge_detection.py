"""Bag-of-words merge detection over an agent's local map.

Scoring walks every keyframe that shares at least one word with the query
(via the inverted index) and adds the similarity of its five most covisible
neighbors, keeping the best-scoring keyframe.  Acceptance compares that score
against a dynamic baseline: the same scoring run again with the best match's
own histogram as the query.  A merge is plausible when the query scores at
least ``acceptance_factor`` times what the map scores against itself around
that location.

A scoring pass first collects every candidate's window (the candidate and
its top covisible neighbors, a ranking the map reuses until the keyframe's
observations change), then computes the similarity of every keyframe the
windows name in one `bow_similarities` batch, equal bit for bit to
`bow_similarity`.  Each keyframe's histogram arrays are built once and kept
on the keyframe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .map_store import AgentMap, KeyFrame, UnknownObjectError

COVISIBLE_COUNT = 5


@dataclass(frozen=True)
class MergeCandidate:
    score: float
    best_match_kf: int
    baseline: float
    query_agent: int


def bow_similarity(a: dict[int, float], b: dict[int, float]) -> float:
    """L1 histogram similarity in [0, 1]; empty against anything is 0."""
    if not a or not b:
        return 0.0
    ta = sum(a.values())
    tb = sum(b.values())
    if ta <= 0 or tb <= 0:
        return 0.0
    dist = 0.0
    for w in sorted(set(a) | set(b)):
        dist += abs(a.get(w, 0.0) / ta - b.get(w, 0.0) / tb)
    return 1.0 - 0.5 * dist


_NO_WORDS = (np.zeros(0, dtype=np.int64), np.zeros(0))


def _histogram(words: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Ascending word ids and their weights divided by the histogram's total.

    The total is the same Python ``sum`` that `bow_similarity` takes.  Empty
    arrays stand for a histogram that `bow_similarity` scores 0 against
    anything: one whose total is not positive, which includes an empty one.
    """
    total = sum(words.values())
    if total <= 0:
        return _NO_WORDS
    ids = np.fromiter(words, dtype=np.int64, count=len(words))
    weights = np.fromiter(words.values(), dtype=np.float64, count=len(words)) / total
    order = np.argsort(ids)
    return ids[order], weights[order]


def bow_similarities(keyframes: list[KeyFrame], words: dict[int, float]) -> list[float]:
    """``bow_similarity(kf.words, words)`` for every keyframe, equal bit for bit.

    A keyframe's histogram arrays are kept in ``kf.histogram``: its ``words``
    is never mutated after construction.  The rows share one set of columns,
    the sorted union of the word ids present, so a word id is never used as
    an index (ids are u32 on the wire).  ``cumsum`` adds strictly left to
    right, as `bow_similarity`'s loop does over ascending ids (``np.sum``
    would add pairwise), and a word absent from both sides adds exactly +0.0.
    """
    out = [0.0] * len(keyframes)
    q_ids, q_weights = _histogram(words)
    if not len(q_ids):
        return out
    rows: list[int] = []
    hists: list[tuple[np.ndarray, np.ndarray]] = []
    for i, kf in enumerate(keyframes):
        if kf.histogram is None:
            kf.histogram = _histogram(kf.words)
        if len(kf.histogram[0]):
            rows.append(i)
            hists.append(kf.histogram)
    if not rows:
        return out
    ids = np.concatenate([h[0] for h in hists])
    # the sorted union of the word ids, by sorting: np.union1d's hash table
    # adds about 1.7 MB to a simulation's peak memory
    columns = np.sort(np.concatenate([q_ids, ids]))
    columns = columns[np.concatenate(([True], columns[1:] != columns[:-1]))]
    table = np.zeros((len(rows), len(columns)))
    owners = np.repeat(np.arange(len(rows)), [len(h[0]) for h in hists])
    table[owners, np.searchsorted(columns, ids)] = np.concatenate([h[1] for h in hists])
    query = np.zeros(len(columns))
    query[np.searchsorted(columns, q_ids)] = q_weights
    dist = np.cumsum(np.abs(table - query), axis=1)[:, -1]
    for i, sim in zip(rows, (1.0 - 0.5 * dist).tolist()):
        out[i] = sim
    return out


def calculate_merge_score(
    m: AgentMap, words: dict[int, float]
) -> tuple[float, int | None]:
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


def detect_merge(
    m: AgentMap,
    words: dict[int, float],
    acceptance_factor: float,
    query_agent: int = -1,
) -> MergeCandidate | None:
    if not 0.0 < acceptance_factor <= 1.0:
        raise ValueError("acceptance_factor must be in (0, 1]")
    score, best_kf = calculate_merge_score(m, words)
    if best_kf is None:
        return None
    baseline = dynamic_baseline(m, best_kf)
    if score >= acceptance_factor * baseline:
        return MergeCandidate(score, best_kf, baseline, query_agent)
    return None
