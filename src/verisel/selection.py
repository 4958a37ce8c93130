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
(_objective), what each rule reads of each candidate (_scored, kept on
the Problem), BoN's order (_bon_ranking) and how clusters are counted,
summed and picked among: _run on one pool, which also reports each
cluster, and _tally on a batch of slates, one row each, in numpy. Both
pick the cluster of highest objective, then support, then lowest key;
tests pin them equal. select_answer runs _run on a Problem's
answer_columns and _scored inputs, the select_* functions are thin
wrappers that lay their dicts out as such columns, and evaluate.py runs
_tally on the same _scored inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, takewhile
from operator import attrgetter
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    AnswerCluster,
    AnswerColumns,
    Candidate,
    EmptyPoolError,
    Problem,
    _answer_columns,
    _check_int,
    _check_number,
    _floats,
    _unchecked,
)

DEFAULT_PV_ALPHA = 0.5
DEFAULT_GPV_ALPHA = 0.1

METHODS = ("sc", "bon", "wsc", "pv", "gpv")


def _alpha_or_default(method: str, alpha: Optional[float]) -> float:
    """alpha, or when it is None the method's default: DEFAULT_GPV_ALPHA for
    gpv, DEFAULT_PV_ALPHA for every other method."""
    if alpha is not None:
        return alpha
    return DEFAULT_GPV_ALPHA if method == "gpv" else DEFAULT_PV_ALPHA


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
    scores = list(map(_DISC, candidates))
    if None in scores:
        raise ValueError("scores required")
    return dict(zip(map(_CANDIDATE_ID, candidates),
                    scores if transform == "raw" else map(fn, scores)))


def candidate_gen_scores(
    candidates: Sequence[Candidate],
    transform: str = "sigmoid",
) -> dict[str, tuple[float, ...]]:
    """Map candidate_id to transformed gen_scores; error if any is missing."""
    fn = _transform_fn(transform)
    rows = list(map(_GEN, candidates))
    if None in rows:
        raise ValueError("scores required")
    return dict(zip(map(_CANDIDATE_ID, candidates), rows if transform == "raw"
                    else (tuple(map(fn, row)) for row in rows)))


def _transform_fn(transform: str):
    try:
        return SCORE_TRANSFORMS[transform]
    except (KeyError, TypeError):  # TypeError: not hashable, so not a name
        raise ValueError(f"unknown score transform: {transform!r}") from None


def _transformed(scores: np.ndarray, transform: str) -> np.ndarray:
    """Scores under the transform, a name _transform_fn accepts, equal bit
    for bit to applying it element by element."""
    if transform == "raw":
        return scores
    # sigmoid() in bulk: its one math.exp call, on the same argument -|x|,
    # then the same IEEE additions and divisions, on arrays
    z = np.fromiter(map(math.exp, (-np.abs(scores)).ravel().tolist()),
                    np.float64, scores.size).reshape(scores.shape)
    return np.where(scores >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


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
    _check_number("alpha", alpha)
    log_nm = math.log(n_total * m)
    # NaN, negative, infinite, or so large that alpha * psi_a could overflow
    if not (0 <= alpha < math.inf and alpha * log_nm < math.inf):
        raise ValueError(f"invalid alpha: {alpha}")

    def pessimistic(total: float, n_a: int) -> tuple[float, float]:
        penalty = log_nm / (n_a * m + 1)
        return penalty, total / n_a - alpha * penalty

    return pessimistic


def _resolve_m(lengths: set[int], m_verifications: Optional[int]) -> int:
    """gpv's M: m_verifications, else the one length all score rows share;
    lengths holds the rows' lengths."""
    if m_verifications is None:
        if len(lengths) != 1:
            raise ValueError("inconsistent M")
        (m_verifications,) = lengths
    else:
        _check_int("m_verifications", m_verifications)
    if m_verifications < 1 or any(n < m_verifications for n in lengths):
        raise ValueError("inconsistent M")
    return m_verifications


def _gen_means(gen: np.ndarray, m: int, ids: Sequence[str]) -> np.ndarray:
    """Each candidate's gpv score r~_i, the mean of its first m pass scores
    (gen holds a row of at least m per candidate), added left to right. A
    mean that overflows, the one way a cluster total could be NaN, fails."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m):
            total = total + gen[:, j]
        means = total / m
    bad = np.flatnonzero(~np.isfinite(means))
    if bad.size:
        raise ValueError(f"candidate {ids[bad[0]]!r}: gen_scores mean overflows "
                         f"to {float(means[bad[0]])}")
    return means


def _scored(problem: Problem, method: str, transform: str = "sigmoid",
            m: Optional[int] = None) -> tuple[Optional[np.ndarray], Optional[int]]:
    """What method reads of each candidate, in pool order, and gpv's M (m,
    else the gen_scores length): sc's and bon's raw disc scores, wsc's and
    pv's transformed ones or gpv's means, kept on the problem per transform
    and M. The transform name is checked for every method."""
    _transform_fn(transform)
    scores = problem.gen if method == "gpv" else problem.disc
    if scores is None and method != "sc":
        raise ValueError("scores required")
    if method in ("sc", "bon"):
        return scores, None
    if method != "gpv":
        return problem._kept(("disc", transform),
                             lambda: _transformed(scores, transform)), None
    m = _resolve_m({scores.shape[1]}, m)
    return problem._kept(("gpv", transform, m), lambda: _gen_means(
        _transformed(scores[:, :m], transform), m, problem.candidate_ids)), m


def _bon_ranking(ids: Sequence[str], scores: Sequence[float],
                 codes: Sequence[int], none_code: int) -> list[int]:
    """BoN's candidate order, as positions: highest score first, then lowest
    candidate_id. Candidates without an extracted answer (answer code
    none_code) are left out; they never win."""
    ranked = [i for i, code in enumerate(codes) if code != none_code]
    ranked.sort(key=ids.__getitem__)  # stable: equal scores keep this order
    ranked.sort(key=scores.__getitem__, reverse=True)
    return ranked


def _tally(codes: np.ndarray, values: Optional[np.ndarray], width: int,
           none_codes: np.ndarray, objective) -> np.ndarray:
    """A cluster rule on each row r of a batch: answer codes codes[r] (each
    below width), per-candidate values[r] (None: totals are counts) and the
    no-answer code none_codes[r], or -1. Returns each row's winner, or -1:
    among the live codes, those present and selectable, objective
    descending, then support descending, then code ascending.
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
        _, value = objective(totals, np.maximum(counts, 1))
    value = np.where(live, value, -np.inf)
    tied = live & (value == value.max(axis=1, keepdims=True))
    # the tied code of most support, the first (lowest) of equals
    return np.where(tied.any(axis=1), np.where(tied, counts, -1).argmax(axis=1), -1)


def _run(method: str, ids: Optional[Sequence[str]], columns: AnswerColumns,
         values: Optional[np.ndarray], alpha: Optional[float] = None,
         m: Optional[int] = None,
         rng: Optional[np.random.Generator] = None) -> SelectionResult:
    """method on one pool laid out as columns: candidate ids (bon reads
    them), answer columns and what the rule reads of each candidate, in
    pool order (sc: raw disc scores or None; gpv: means over its m passes;
    else one valid score). Clusters are counted and summed as _tally does,
    and each selectable one scored by _objective. The winner is the first
    cluster of the highest objective in cluster order (support descending,
    key ascending), the diagnostics' order: _tally's pick on one row. rng
    draws among the clusters tied on objective, in that order. BoN's
    cluster objective is the first highest score."""
    codes, width, none = columns.codes, len(columns.keys), columns.none_code
    counts = np.bincount(codes, minlength=width).tolist()
    totals = None if values is None else np.bincount(codes, values, width).tolist()
    if method == "bon":
        scores, codes = values.tolist(), codes.tolist()
        ranked = _bon_ranking(ids, scores, codes, none)
        if not ranked:
            raise EmptyPoolError("no selectable answers in pool")
        top = scores[ranked[0]]
        tied = list(takewhile(lambda i: scores[i] == top, ranked))
        winner = tied[0] if rng is None else tied[int(rng.integers(len(tied)))]
        best: dict[int, float] = {}
        floor = -math.inf
        for code, score in zip(codes, scores):
            if score > best.get(code, floor):  # the first of equals stays
                best[code] = score
        rated = {c: (None, best[c]) for c in range(width) if c != none}
    else:
        objective = _objective(method, len(codes), alpha, m or 1)
        # every code of one pool is present, so each but none's is live
        rated = {c: objective(counts[c] if totals is None else totals[c], counts[c])
                 for c in range(width) if c != none}
        if not rated:
            raise EmptyPoolError("no selectable answers in pool")
    # support descending, then code (key) ascending: a stable sort keeps it
    order = sorted(range(width), key=counts.__getitem__, reverse=True)
    diagnostics = []
    for c in order:  # of plain ints and floats: no checks
        penalty, value = rated.get(c, (None, None))
        diagnostics.append(_unchecked(
            ClusterDiagnostic, answer_key=columns.keys[c], n_a=counts[c],
            sum_score=None if totals is None else totals[c],
            penalty=penalty, objective=value))
    diagnostics = tuple(diagnostics)
    if method == "bon":
        return SelectionResult(method, columns.keys[columns.codes[winner]],
                               ids[winner], diagnostics)
    top = max(value for _, value in rated.values())
    tied = [d.answer_key for d in diagnostics if d.objective == top]
    chosen = tied[0] if rng is None or len(tied) == 1 else (
        tied[int(rng.integers(len(tied)))])
    return SelectionResult(method, chosen, None, diagnostics, alpha, m)


def _checked(candidates: Sequence[Candidate], scores: Optional[Mapping],
             rows: bool = False) -> list:
    """Each candidate's entry in scores (None: raw disc_scores) as float(s),
    in order, checked by core._floats, one score or, with rows, a row of
    them; a ValueError names the first bad one."""
    if scores is None:
        entries = list(map(_DISC, candidates))
        if None in entries:
            raise ValueError("scores required")
    else:
        try:
            entries = list(map(scores.__getitem__, map(_CANDIDATE_ID, candidates)))
        except KeyError:
            raise ValueError("scores required") from None
    if rows and {tuple}.issuperset(map(type, entries)):
        flat = tuple(chain.from_iterable(entries))
        if _floats(flat) is flat:  # finite floats already: one check of all
            return entries
    checked = list(map(_floats, entries)) if rows else _floats(entries)
    if checked is None or None in checked:
        cand, entry = next((c, e) for c, e in zip(candidates, entries)
                           if _floats(e if rows else (e,)) is None)
        what = "gen_scores must be finite numbers" if rows else "score must be a finite number"
        raise ValueError(f"candidate {cand.candidate_id!r}: {what}, got {entry!r}")
    return list(checked)


_CANDIDATE_ID, _CLUSTER_KEY, _DISC, _GEN = map(
    attrgetter, ("candidate_id", "cluster_key", "disc_score", "gen_scores"))


def _laid_out(candidates: Sequence[Candidate]) -> AnswerColumns:
    """The candidates' answer columns, without labels: no rule reads one."""
    if not candidates:
        raise EmptyPoolError("empty pool")
    return _answer_columns(list(map(_CLUSTER_KEY, candidates)))


def _members(clusters: Sequence[AnswerCluster]) -> list[Candidate]:
    """The clusters' members, cluster by cluster."""
    return [c for cl in clusters for c in cl.members]


def select_sc(
    clusters: Sequence[AnswerCluster],
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Self-consistency: plurality vote over answer clusters."""
    members = _members(clusters)
    columns = _laid_out(members)
    raw = list(map(_DISC, members))
    return _run("sc", None, columns, None if None in raw else np.array(raw), rng=rng)


def select_bon(
    candidates: Sequence[Candidate],
    scores: Optional[Mapping[str, float]] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Best-of-N: the answer of the highest-scoring candidate.

    Candidates without an extracted answer never win; ties go to the lowest
    candidate_id (or a seeded draw when rng is given).
    """
    columns = _laid_out(candidates)
    return _run("bon", list(map(_CANDIDATE_ID, candidates)), columns,
                np.array(_checked(candidates, scores)), rng=rng)


def select_wsc(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]] = None,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Weighted self-consistency: argmax of summed cluster score."""
    members = _members(clusters)
    columns = _laid_out(members)
    return _run("wsc", None, columns, np.array(_checked(members, scores)), rng=rng)


def select_pv(
    clusters: Sequence[AnswerCluster],
    scores: Optional[Mapping[str, float]] = None,
    alpha: float = DEFAULT_PV_ALPHA,
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Pessimistic verification: mean cluster score minus a support penalty.

    Objective: mean_score(a) - alpha * ln(N) / (n_a + 1), N = pool size.
    """
    members = _members(clusters)
    columns = _laid_out(members)
    return _run("pv", None, columns, np.array(_checked(members, scores)), alpha,
                rng=rng)


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
    members = _members(clusters)
    columns = _laid_out(members)
    rows = _checked(members, gen_scores, rows=True)
    lengths = set(map(len, rows))
    m = _resolve_m(lengths, m_verifications)
    if lengths != {m}:
        rows = [row[:m] for row in rows]
    gen = np.fromiter(chain.from_iterable(rows), float, len(rows) * m).reshape(-1, m)
    ids = list(map(_CANDIDATE_ID, members))
    return _run("gpv", ids, columns, _gen_means(gen, m, ids), alpha, m, rng)


def select_answer(
    problem: Problem,
    method: str,
    alpha: Optional[float] = None,
    m_verifications: Optional[int] = None,
    transform: str = "sigmoid",
    rng: Optional[np.random.Generator] = None,
) -> SelectionResult:
    """Run one named rule on a problem, applying the score transform to
    what _scored derives and keeps on the problem.

    BoN ranks raw scores directly: its argmax is invariant under any
    monotone transform, so there is nothing to configure.
    """
    if method not in METHODS:
        raise ValueError(f"unknown selection method: {method!r}")
    values, m = _scored(problem, method, transform, m_verifications)
    return _run(method, problem.candidate_ids, problem.answer_columns, values,
                _alpha_or_default(method, alpha) if method in ("pv", "gpv") else None,
                m, rng)
