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

This module is the only statement of what a rule decides: objectives
(_objective), per-candidate scores, BoN's order (_bon_ranking) and one
kernel (_tally) that aggregates clusters and picks by objective, then tie
order. select_answer runs it on Problem.answer_columns, the select_*
functions are thin wrappers that lay their dicts out as such columns, and
evaluate.py runs it on batches of slates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    NO_ANSWER_KEY,
    AnswerCluster,
    AnswerColumns,
    Candidate,
    EmptyPoolError,
    Problem,
    _answer_columns,
    _check_int,
    _floats,
    _sum_in_order,
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
) -> np.ndarray:
    """Each candidate's gpv score r~_i, the mean of its first m pass scores,
    in the map's order. A mean that overflows, the one way a cluster total
    could be NaN, fails."""
    means = [_sum_in_order(s[:m]) / m for s in gen_scores.values()]
    for cid, mean in zip(gen_scores, means):
        if not math.isfinite(mean):
            raise ValueError(f"candidate {cid!r}: gen_scores mean overflows to {mean}")
    return np.array(means)


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


def _tally(codes: np.ndarray, values: Optional[np.ndarray], width: int,
           none_codes: np.ndarray, objective) -> tuple:
    """A cluster rule on each row r of a batch: answer codes codes[r] (each
    below width), per-candidate values[r] (None: totals are counts) and the
    no-answer code none_codes[r], or -1. Returns (counts, totals, penalty,
    objective, pick): the first four by row and code, totals added in row
    order, penalty (None for sc, wsc) and objective NaN and -inf off the
    live codes, those present and selectable; pick, each row's winner, or
    -1: objective descending, then support descending, then code ascending.
    """
    rows = len(codes)
    cells = np.add(codes, (np.arange(rows) * width)[:, None], dtype=np.int64).ravel()
    counts = np.bincount(cells, minlength=rows * width).reshape(rows, width)
    totals = counts if values is None else np.bincount(
        cells, values.ravel(), rows * width
    ).reshape(rows, width)
    live = (counts > 0) & (np.arange(width) != none_codes[:, None])
    # A count of 1 stands in for 0 off the live cells, which are dropped. On
    # live ones alpha * psi_a is finite, so a total near the largest double
    # can only round its objective to -inf, never to NaN.
    with np.errstate(over="ignore"):
        psi, value = objective(totals, np.maximum(counts, 1))
    value = np.where(live, value, -np.inf)
    penalty = None if psi is None else np.where(live, psi, np.nan)
    tied = live & (value == value.max(axis=1, keepdims=True))
    tied &= counts == np.where(tied, counts, -1).max(axis=1, keepdims=True)
    pick = np.where(tied.any(axis=1), tied.argmax(axis=1), -1)
    return counts, totals, penalty, value, pick


def _run(method: str, candidates: Sequence[Candidate], columns: AnswerColumns,
         scores: Optional[Mapping], alpha: Optional[float] = None,
         m_verifications: Optional[int] = None,
         rng: Optional[np.random.Generator] = None) -> SelectionResult:
    """method on one pool laid out as columns; scores maps each candidate,
    in pool order, to its valid score (gpv: pass scores). A cluster rule is
    _tally on one row, and rng draws among clusters tied on objective, in
    cluster order (support descending, key ascending), the diagnostics'
    order. BoN's cluster objective is the first highest score."""
    m = winner = None
    if method == "bon":
        ranked = _bon_ranking(candidates, scores)
        if not ranked:
            raise EmptyPoolError("no selectable answers in pool")
        tied = [c for c in ranked
                if scores[c.candidate_id] == scores[ranked[0].candidate_id]]
        winner = tied[0] if rng is None else tied[int(rng.integers(len(tied)))]
        column, value, penalty = np.array(list(scores.values())), {}, None
        for code, score in zip(columns.codes.tolist(), column.tolist()):
            value[code] = max(value.get(code, score), score)
        counts, totals = (np.bincount(columns.codes, w, len(columns.keys)).tolist()
                          for w in (None, column))
    else:
        if method == "sc":
            raw = [c.disc_score for c in candidates]
            column = None if None in raw else np.array(raw)
        elif method == "gpv":
            m = _resolve_m(scores, m_verifications)
            column = _gen_means(scores, m)
        else:
            column = np.array(list(scores.values()))
        tally = _tally(columns.codes[None], None if column is None else column[None],
                       len(columns.keys), np.array([columns.none_code]),
                       _objective(method, len(columns.codes), alpha, m or 1))
        counts, totals, penalty, value, pick = (
            None if a is None else a[0].tolist() for a in tally)
        if pick < 0:
            raise EmptyPoolError("no selectable answers in pool")
    none = columns.none_code
    diagnostics = tuple(
        ClusterDiagnostic(
            answer_key=columns.keys[c],
            n_a=counts[c],
            sum_score=None if column is None else totals[c],
            penalty=None if penalty is None or c == none else penalty[c],
            objective=None if c == none else value[c],
        )
        for c in sorted(range(len(counts)), key=lambda c: -counts[c])
    )
    if winner is not None:
        return SelectionResult(method, winner.cluster_key, winner.candidate_id,
                               diagnostics)
    chosen = columns.keys[pick]
    if rng is not None:
        tied = [d.answer_key for d in diagnostics if d.objective == value[pick]]
        if len(tied) > 1:
            chosen = tied[int(rng.integers(len(tied)))]
    return SelectionResult(method, chosen, None, diagnostics, alpha, m)


def _checked(candidates: Sequence[Candidate], scores: Optional[Mapping],
             rows: bool = False) -> dict:
    """Each candidate's entry in scores (None: raw disc_scores) as float(s),
    checked by core._floats, one score or, with rows, a row of them; a
    ValueError names the first bad one."""
    if scores is None:
        scores = candidate_scores(candidates, "raw")
    try:
        entries = [scores[c.candidate_id] for c in candidates]
    except KeyError:
        raise ValueError("scores required") from None
    checked = list(map(_floats, entries)) if rows else _floats(entries)
    if checked is None or None in checked:
        cand, entry = next((c, e) for c, e in zip(candidates, entries)
                           if _floats(e if rows else (e,)) is None)
        what = "gen_scores must be finite numbers" if rows else "score must be a finite number"
        raise ValueError(f"candidate {cand.candidate_id!r}: {what}, got {entry!r}")
    return dict(zip((c.candidate_id for c in candidates), checked))


def _laid_out(clusters: Sequence[AnswerCluster]
              ) -> tuple[list[Candidate], AnswerColumns]:
    """The clusters' members, cluster by cluster, and their answer columns."""
    if not clusters:
        raise EmptyPoolError("empty pool")
    members = [c for cl in clusters for c in cl.members]
    return members, _answer_columns(members)


def select_sc(
    clusters: Sequence[AnswerCluster],
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Self-consistency: plurality vote over answer clusters."""
    return _run("sc", *_laid_out(clusters), None, rng=rng)


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
    return _run("bon", candidates, _answer_columns(candidates),
                _checked(candidates, scores), rng=rng)


def select_wsc(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Weighted self-consistency: argmax of summed cluster score."""
    members, columns = _laid_out(clusters)
    return _run("wsc", members, columns, _checked(members, scores), rng=rng)


def select_pv(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]] = None,
    alpha: float = DEFAULT_PV_ALPHA,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Pessimistic verification: mean cluster score minus a support penalty.

    Objective: mean_score(a) - alpha * ln(N) / (n_a + 1), N = pool size.
    """
    members, columns = _laid_out(clusters)
    return _run("pv", members, columns, _checked(members, scores), alpha, rng=rng)


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
    members, columns = _laid_out(clusters)
    return _run("gpv", members, columns, _checked(members, gen_scores, rows=True),
                alpha, m_verifications, rng)


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
    cands, scores = problem.candidates, None
    if method == "gpv":
        scores = candidate_gen_scores(cands, transform)
        alpha = DEFAULT_GPV_ALPHA if alpha is None else alpha
    elif method != "sc":
        scores = candidate_scores(cands, "raw" if method == "bon" else transform)
        alpha = DEFAULT_PV_ALPHA if alpha is None else alpha
    return _run(method, cands, problem.answer_columns, scores,
                alpha if method in ("pv", "gpv") else None, m_verifications, rng)
