"""Answer-selection rules over a pool of scored candidates.

Five rules share one result shape:

* SC   picks the most frequent answer (plurality over clusters).
* BoN  picks the answer of the single highest-scoring candidate.
* WSC  picks the answer with the largest summed verifier score.
* PV   penalizes small clusters: argmax of mean(a) - alpha * ln(N)/(n_a+1).
* GPV  is PV over multi-pass generative scores, with the per-candidate mean
       r~_i over M passes and penalty ln(N*M)/(n_a*M+1).

All rules are pure functions. Ties break by the deterministic cluster order
(support descending, key ascending; lowest candidate_id for BoN) unless a
seeded generator is passed, in which case a tied winner is drawn uniformly.

This module is the only statement of what a rule decides: the objectives
(_objective), the per-candidate scores, the cluster tie order (_order) and
BoN's candidate order (_bon_ranking). The slate evaluator in evaluate.py
calls these too and only aggregates each slate itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    NO_ANSWER_KEY,
    AnswerCluster,
    Candidate,
    EmptyPoolError,
    Problem,
    _check_int,
    _clusters_of,
    _sum_in_order,
    cluster_by_answer,
)

DEFAULT_PV_ALPHA = 0.5
DEFAULT_GPV_ALPHA = 0.1

METHODS = ("sc", "bon", "wsc", "pv", "gpv")


def sigmoid(x: float) -> float:
    """Numerically stable logistic transform."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


SCORE_TRANSFORMS = {
    "sigmoid": sigmoid,
    "raw": lambda x: x,
}


def candidate_scores(
    candidates: Sequence[Candidate], transform: str = "sigmoid"
) -> dict[str, float]:
    """Map candidate_id to transformed disc_score; error if any is missing."""
    fn = _transform_fn(transform)
    if any(c.disc_score is None for c in candidates):
        raise ValueError("scores required")
    return {c.candidate_id: fn(c.disc_score) for c in candidates}


def candidate_gen_scores(
    candidates: Sequence[Candidate],
    transform: str = "sigmoid",
) -> dict[str, tuple[float, ...]]:
    """Map candidate_id to transformed gen_scores; error if any is missing."""
    fn = _transform_fn(transform)
    if any(c.gen_scores is None for c in candidates):
        raise ValueError("scores required")
    return {c.candidate_id: tuple(map(fn, c.gen_scores)) for c in candidates}


def _transform_fn(transform: str):
    try:
        return SCORE_TRANSFORMS[transform]
    except (KeyError, TypeError):  # TypeError: not hashable, so not a name
        raise ValueError(f"unknown score transform: {transform!r}") from None


@dataclass(frozen=True)
class ClusterDiagnostic:
    """Per-cluster view of one selection run.

    penalty is the alpha-free term psi_a; objective is the value the rule
    maximized. Both are None for the unselectable no-answer cluster and for
    rules that have no such term. mean_score is sum_score / n_a.
    """

    answer_key: str
    n_a: int
    sum_score: Optional[float] = None
    penalty: Optional[float] = None
    objective: Optional[float] = None

    @property
    def mean_score(self) -> Optional[float]:
        return None if self.sum_score is None else self.sum_score / self.n_a


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of one selection rule on one pool."""

    method: str
    chosen_answer: str
    chosen_candidate: Optional[str] = None
    cluster_diagnostics: tuple[ClusterDiagnostic, ...] = ()
    alpha: Optional[float] = None
    m: Optional[int] = None


def _order(cluster: tuple) -> tuple:
    """Sort key of the cluster tie order; the smallest key wins.

    cluster starts (objective, n_a, answer_key), and the order is objective
    descending, then support descending, then answer key ascending (any
    stand-in for the key that sorts the same will do).
    """
    return (-cluster[0], -cluster[1], cluster[2])


def _objective(method: str, n_total: int = 1, alpha: float = 0.0, m: int = 1):
    """What a cluster rule maximizes, as f(total, n_a) -> (penalty, objective).

    total is the cluster's summed per-candidate score and n_a its support;
    n_total is the pool (or slate) size N. sc maximizes n_a and wsc total,
    with no penalty. pv and gpv maximize total/n_a - alpha * psi_a with
    psi_a = ln(N*M) / (n_a*M + 1); pv is the M = 1 case. total and n_a
    may be numpy arrays of one shape: the arithmetic is the same, so each
    element gets the double a scalar call would.
    """
    if method == "sc":
        return lambda total, n_a: (None, n_a * 1.0)
    if method == "wsc":
        return lambda total, n_a: (None, total)
    if n_total < 1:
        raise ValueError(f"invalid pool size: {n_total}")
    log_nm = math.log(n_total * m)
    # NaN, negative, infinite, or so large that alpha * psi_a could overflow
    if not (0 <= alpha < math.inf and alpha * log_nm < math.inf):
        raise ValueError(f"invalid alpha: {alpha}")

    def pessimistic(total: float, n_a: int) -> tuple[float, float]:
        penalty = log_nm / (n_a * m + 1)
        return penalty, total / n_a - alpha * penalty

    return pessimistic


def _resolve_m(gen_scores: Mapping[str, Sequence[float]],
               m_verifications: Optional[int]) -> int:
    """gpv's M: m_verifications, else the one length all score rows share."""
    lengths = {len(v) for v in gen_scores.values()}
    if m_verifications is None:
        if len(lengths) != 1:
            raise ValueError("inconsistent M")
        m_verifications = lengths.pop()
    else:
        _check_int("m_verifications", m_verifications)
    if m_verifications < 1 or any(n < m_verifications for n in lengths):
        raise ValueError("inconsistent M")
    return m_verifications


def _gen_means(
    gen_scores: Mapping[str, Sequence[float]], m: int
) -> dict[str, float]:
    """Each candidate's gpv score r~_i: the mean of its first m pass scores.
    A mean that overflows, the one way a cluster total could be NaN, fails."""
    means = {cid: _sum_in_order(s[:m]) / m for cid, s in gen_scores.items()}
    for cid, mean in means.items():
        if not math.isfinite(mean):
            raise ValueError(f"candidate {cid!r}: gen_scores mean overflows to {mean}")
    return means


def _bon_ranking(
    candidates: Sequence[Candidate], scores: Mapping[str, float]
) -> list[Candidate]:
    """BoN's candidate order: highest score first, then lowest candidate_id.

    Candidates without an extracted answer are left out; they never win.
    """
    return sorted(
        (c for c in candidates if c.cluster_key != NO_ANSWER_KEY),
        key=lambda c: (-scores[c.candidate_id], c.candidate_id),
    )


def _select_clusters(
    method: str,
    clusters: Sequence[AnswerCluster],
    totals: Sequence[Optional[float]],
    objective,
    rng: Optional[np.random.Generator],
    **fields,
) -> SelectionResult:
    """Score every cluster with objective; the winner is the first
    selectable cluster in tie order, or with rng a seeded draw among the
    clusters tied with it on objective."""
    diagnostics, ranked = [], []
    for cl, total in zip(clusters, totals):
        penalty = value = None
        if cl.selectable:
            penalty, value = objective(total, cl.n_a)
        diag = ClusterDiagnostic(
            answer_key=cl.answer_key,
            n_a=cl.n_a,
            sum_score=total,
            penalty=penalty,
            objective=value,
        )
        diagnostics.append(diag)
        if value is not None:
            ranked.append((value, cl.n_a, cl.answer_key, diag))
    if not ranked:
        raise EmptyPoolError("no selectable answers in pool")
    winner = min(ranked, key=_order)
    if rng is not None:
        tied = sorted((c for c in ranked if c[0] == winner[0]), key=_order)
        winner = tied[int(rng.integers(len(tied)))] if len(tied) > 1 else winner
    return SelectionResult(
        method=method, chosen_answer=winner[3].answer_key,
        cluster_diagnostics=tuple(diagnostics), **fields,
    )


def _cluster_sums(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]],
) -> list[float]:
    """Summed member score per cluster, from a score map or stored aggregates."""
    try:
        out = [
            cl.sum_score if scores is None
            else _sum_in_order(map(scores.__getitem__, cl.member_ids))
            for cl in clusters
        ]
    except KeyError as exc:
        raise ValueError("scores required") from exc
    if None in out:
        raise ValueError("scores required")
    return out


def _require_clusters(clusters: Sequence[AnswerCluster]) -> None:
    if not clusters:
        raise EmptyPoolError("empty pool")


def select_sc(
    clusters: Sequence[AnswerCluster],
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Self-consistency: plurality vote over answer clusters."""
    _require_clusters(clusters)
    return _select_clusters(
        "sc", clusters, [cl.sum_score for cl in clusters], _objective("sc"), rng
    )


def select_bon(
    candidates: Sequence[Candidate],
    scores: Optional[Mapping[str, float]] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Best-of-N: the answer of the highest-scoring candidate.

    Candidates without an extracted answer never win; ties go to the lowest
    candidate_id (or a seeded draw when rng is given).
    """
    if not candidates:
        raise EmptyPoolError("empty pool")
    if scores is None:
        scores = candidate_scores(candidates, transform="raw")
    elif any(c.candidate_id not in scores for c in candidates):
        raise ValueError("scores required")

    ranked = _bon_ranking(candidates, scores)
    if not ranked:
        raise EmptyPoolError("no selectable answers in pool")
    top_score = scores[ranked[0].candidate_id]
    tied = [c for c in ranked if scores[c.candidate_id] == top_score]
    winner = tied[0] if rng is None else tied[int(rng.integers(len(tied)))]

    clusters = _clusters_of(candidates)
    diagnostics = tuple(
        ClusterDiagnostic(
            answer_key=cl.answer_key,
            n_a=cl.n_a,
            sum_score=total,
            objective=max(map(scores.__getitem__, cl.member_ids))
            if cl.selectable else None,
        )
        for cl, total in zip(clusters, _cluster_sums(clusters, scores))
    )
    return SelectionResult(
        method="bon",
        chosen_answer=winner.cluster_key,
        chosen_candidate=winner.candidate_id,
        cluster_diagnostics=diagnostics,
    )


def select_wsc(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Weighted self-consistency: argmax of summed cluster score."""
    _require_clusters(clusters)
    return _select_clusters(
        "wsc", clusters, _cluster_sums(clusters, scores), _objective("wsc"), rng
    )


def select_pv(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]] = None,
    alpha: float = DEFAULT_PV_ALPHA,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Pessimistic verification: mean cluster score minus a support penalty.

    Objective: mean_score(a) - alpha * ln(N) / (n_a + 1), N = pool size.
    """
    _require_clusters(clusters)
    objective = _objective("pv", sum(cl.n_a for cl in clusters), alpha)
    return _select_clusters(
        "pv", clusters, _cluster_sums(clusters, scores), objective, rng,
        alpha=alpha,
    )


def select_gpv(
    clusters: Sequence[AnswerCluster],
    gen_scores: Mapping[str, Sequence[float]],
    alpha: float = DEFAULT_GPV_ALPHA,
    m_verifications: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """PV over M generative-verifier passes per candidate.

    Each candidate is scored by the mean of its M pass scores; the penalty
    sharpens to ln(N*M) / (n_a*M + 1). When candidates carry more than
    m_verifications scores only the first m_verifications are used, so one
    dataset can serve a sweep over M.
    """
    _require_clusters(clusters)
    m = _resolve_m(gen_scores, m_verifications)
    objective = _objective("gpv", sum(cl.n_a for cl in clusters), alpha, m)
    totals = _cluster_sums(clusters, _gen_means(gen_scores, m))
    return _select_clusters(
        "gpv", clusters, totals, objective, rng, alpha=alpha, m=m
    )


def select_answer(
    problem: Problem,
    method: str,
    alpha: Optional[float] = None,
    m_verifications: Optional[int] = None,
    transform: str = "sigmoid",
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Run one named rule on a problem, applying the score transform.

    BoN ranks raw scores directly: its argmax is invariant under any
    monotone transform, so there is nothing to configure.
    """
    if method not in METHODS:
        raise ValueError(f"unknown selection method: {method!r}")
    if method == "sc":
        return select_sc(cluster_by_answer(problem), rng=rng)
    if method == "bon":
        return select_bon(problem.candidates, rng=rng)

    clusters = cluster_by_answer(problem)
    if method == "wsc":
        scores = candidate_scores(problem.candidates, transform)
        return select_wsc(clusters, scores, rng=rng)
    if method == "pv":
        scores = candidate_scores(problem.candidates, transform)
        return select_pv(
            clusters, scores,
            alpha=DEFAULT_PV_ALPHA if alpha is None else alpha, rng=rng,
        )
    gen = candidate_gen_scores(problem.candidates, transform)
    return select_gpv(
        clusters, gen,
        alpha=DEFAULT_GPV_ALPHA if alpha is None else alpha,
        m_verifications=m_verifications, rng=rng,
    )
