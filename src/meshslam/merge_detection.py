"""Bag-of-words merge detection over an agent's local map.

Scoring walks every keyframe that shares at least one word with the query
(via the inverted index) and adds the similarity of its five most covisible
neighbors, keeping the best-scoring keyframe.  Acceptance compares that score
against a dynamic baseline: the same scoring run again with the best match's
own histogram as the query.  A merge is plausible when the query scores at
least ``acceptance_factor`` times what the map scores against itself around
that location.
"""

from __future__ import annotations

from dataclasses import dataclass

from .map_store import AgentMap, UnknownObjectError

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


def calculate_merge_score(
    m: AgentMap, words: dict[int, float]
) -> tuple[float, int | None]:
    """Best (score, keyframe id) for a query histogram, (0, None) if no match.

    Candidates are visited in ascending id order and a tie on the running
    best is won by the later candidate, which makes the result deterministic.
    """
    best_score = 0.0
    best_kf: int | None = None
    similarity: dict[int, float] = {}
    for kid in sorted(m.query_visual_word_set(words)):
        score = 0.0
        for nid in [kid, *m.top_covisible(kid, COVISIBLE_COUNT)]:
            if nid not in similarity:
                similarity[nid] = bow_similarity(m.keyframes[nid].words, words)
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
