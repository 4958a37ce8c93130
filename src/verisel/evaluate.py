"""Slate-resampling evaluation, pass@N, and budget-equalized curves.

Accuracy of a selection method at slate size N is estimated by drawing many
N-candidate slates per problem, running the method on each slate, and
averaging. Every draw gets its own counter-based RNG stream keyed by
(seed, problem_id, draw index), and reduction order is fixed, so results
are bit-identical at any parallelism level.

What a rule decides on a slate comes from selection.py: the same
per-candidate scores, objectives, cluster tie order and BoN order that
select_answer applies to a whole pool. Only the aggregation is done here,
per slate: bincount counts and score sums over the drawn candidates. The
test suite holds the two paths to exact agreement, slate by slate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence, Union

import numpy as np

from .core import NO_ANSWER_KEY, EmptyPoolError, Problem
from .costs import LatencyTable, ModelConfig, latency_lookup, pipeline_flops
from .selection import (
    DEFAULT_GPV_ALPHA,
    DEFAULT_PV_ALPHA,
    METHODS,
    _bon_ranking,
    _gen_means,
    _objective,
    _order,
    _resolve_m,
    _transform_fn,
    candidate_gen_scores,
    candidate_scores,
)

_PIPELINE_MODE = {"sc": "sc", "bon": "disc", "wsc": "disc", "pv": "disc", "gpv": "gen"}
_MAX_EXHAUSTIVE_SLATES = 10**6  # per problem, for bootstrap_accuracy


@dataclass(frozen=True)
class EvalConfig:
    """One evaluation run: slate size, method, draw count, and RNG seed."""

    n: int
    method: str = "sc"
    draws: int = 1000
    seed: int = 0
    ci_level: float = 0.95
    replacement: bool = False
    alpha: Optional[float] = None
    m_verifications: Optional[int] = None
    transform: str = "sigmoid"
    ci_method: str = "normal"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"invalid slate size: {self.n}")
        if self.draws < 1:
            raise ValueError(f"invalid draw count: {self.draws}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level out of (0,1): {self.ci_level}")
        if self.method not in METHODS:
            raise ValueError(f"unknown selection method: {self.method!r}")
        if self.ci_method not in ("normal", "percentile"):
            raise ValueError(f"unknown ci method: {self.ci_method!r}")
        _transform_fn(self.transform)  # raises as select_answer does

    @property
    def effective_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return DEFAULT_GPV_ALPHA if self.method == "gpv" else DEFAULT_PV_ALPHA


@dataclass(frozen=True)
class BootstrapReport:
    """Benchmark accuracy with its confidence interval and config echo."""

    method: str
    n: int
    mean: float
    ci_low: float
    ci_high: float
    draws: int
    seed: int
    ci_level: float
    replacement: bool
    transform: str
    alpha: Optional[float]
    m: Optional[int]
    per_problem: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.ci_low <= self.mean <= self.ci_high:
            raise ValueError(
                f"inconsistent interval: [{self.ci_low}, {self.ci_high}] "
                f"around {self.mean}"
            )


@dataclass(frozen=True)
class BudgetPoint:
    """One point of an accuracy-vs-budget curve."""

    method: str
    n: int
    m: int
    budget: float
    accuracy: float
    ci_low: float
    ci_high: float

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError(f"invalid budget: {self.budget}")


def _pid_hash(problem_id: str) -> int:
    digest = hashlib.sha256(problem_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def slate_rng(seed: int, problem_id: str, draw: int) -> np.random.Generator:
    """The draw's private stream; counter-based so construction is cheap."""
    bitgen = np.random.Philox(
        counter=[0, 0, 0, draw], key=[seed, _pid_hash(problem_id)]
    )
    return np.random.Generator(bitgen)


class _PoolArrays:
    """One problem's candidates as arrays, for aggregating slates.

    What a rule decides comes from selection.py: the per-candidate scores,
    the objective, the cluster tie order and BoN's candidate order. A slate
    only counts and sums its clusters. Answer codes are assigned in
    ascending answer_key order, so a code stands for its key in the tie
    order.
    """

    def __init__(self, problem: Problem, cfg: EvalConfig):
        cands = problem.candidates
        self.k = len(cands)
        if self.k == 0:
            raise EmptyPoolError(f"problem {problem.problem_id!r}: empty pool")

        if not problem.labeled:
            raise ValueError("labels required")
        graded = {c.cluster_key: float(c.correct) for c in cands}  # one per key
        keys = sorted(graded)
        code_of = {key: i for i, key in enumerate(keys)}
        self.codes = np.array([code_of[c.cluster_key] for c in cands])
        self.none_code = code_of.get(NO_ANSWER_KEY, -1)
        self.correct = [graded[key] for key in keys]

        self.rank = self.weights = None
        if cfg.method == "bon":
            ranked = _bon_ranking(cands, candidate_scores(cands, "raw"))
            place = {c.candidate_id: i for i, c in enumerate(ranked)}
            # unranked (no-answer) candidates take rank k and never win
            self.rank = np.array([place.get(c.candidate_id, self.k) for c in cands])
            return
        m = 1
        if cfg.method == "gpv":
            gen = candidate_gen_scores(cands, cfg.transform)
            m = _resolve_m(gen, cfg.m_verifications)
            self.weights = np.array(list(_gen_means(gen, m).values()))
        elif cfg.method != "sc":
            self.weights = np.array(
                list(candidate_scores(cands, cfg.transform).values())
            )
        self.objective = _objective(cfg.method, cfg.n, cfg.effective_alpha, m)

    def outcome(self, idx: np.ndarray) -> float:
        """1.0 when the rule's pick on the slate idx is correct, else 0.0."""
        if self.rank is not None:
            ranks = self.rank[idx]
            best = int(np.argmin(ranks))
            if ranks[best] == self.k:
                return 0.0
            return self.correct[self.codes[idx[best]]]

        codes = self.codes[idx]
        counts = np.bincount(codes).tolist()
        if self.weights is None:
            totals = counts  # sc's objective reads no total
        else:
            totals = np.bincount(codes, weights=self.weights[idx]).tolist()
        objective = self.objective
        present = [
            (objective(totals[code], n_a)[1], n_a, code)
            for code, n_a in enumerate(counts)
            if n_a and code != self.none_code
        ]
        return self.correct[min(present, key=_order)[2]] if present else 0.0


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for tasks: at most jobs, the CPU count and tasks."""
    return min(jobs, os.cpu_count() or 1, tasks)


def _eval_problem(args: tuple[Problem, EvalConfig, bool]) -> np.ndarray:
    """Per-draw 0/1 accuracy vector for one problem."""
    problem, cfg, exhaustive = args
    pool = _PoolArrays(problem, cfg)
    k = pool.k

    if exhaustive:
        slates = itertools.combinations(range(k), cfg.n)
        return np.array([pool.outcome(np.array(s)) for s in slates])

    if not cfg.replacement and cfg.n > k:
        raise ValueError(
            f"slate too large: n={cfg.n} > pool {k} for {problem.problem_id!r}"
        )
    out = np.empty(cfg.draws)
    for t in range(cfg.draws):
        rng = slate_rng(cfg.seed, problem.problem_id, t)
        idx = rng.choice(k, size=cfg.n, replace=cfg.replacement)
        out[t] = pool.outcome(idx)
    return out


def bootstrap_accuracy(
    problems: Sequence[Problem],
    cfg: EvalConfig,
    jobs: int = 1,
    exhaustive: bool = False,
) -> BootstrapReport:
    """Estimate benchmark accuracy of cfg.method at slate size cfg.n.

    Per problem, cfg.draws slates are sampled (without replacement unless
    configured otherwise) and scored 1 when the chosen answer is the correct
    one. The benchmark mean averages per-problem accuracies; the interval is
    mean +/- z * s / sqrt(draws) over per-draw benchmark accuracies, or the
    matching percentile span when cfg.ci_method is "percentile".

    With exhaustive=True, draws and seed are ignored and every C(k, n) slate
    is scored once; pool sizes must then match across problems so draws
    stay aligned, and C(k, n) may not exceed 10**6.
    """
    if not problems:
        raise ValueError("no problems")
    if exhaustive:
        sizes = {len(p.candidates) for p in problems}
        if cfg.replacement:
            raise ValueError("exhaustive mode enumerates without replacement")
        if len(sizes) != 1:
            raise ValueError("exhaustive mode needs equal pool sizes")
        k = sizes.pop()
        if cfg.n > k:
            raise ValueError("slate too large")
        if math.comb(k, cfg.n) > _MAX_EXHAUSTIVE_SLATES:
            raise ValueError(f"exhaustive mode: C({k}, {cfg.n}) slates per "
                             f"problem, more than {_MAX_EXHAUSTIVE_SLATES:,}")

    work = [(p, cfg, exhaustive) for p in problems]
    workers = _workers(jobs, len(work))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(work) // (workers * 4))
            rows = list(pool.map(_eval_problem, work, chunksize=chunk))
    else:
        rows = [_eval_problem(w) for w in work]

    resolved_m = None  # the first pool's M, once every pool has been checked
    if cfg.method == "gpv":
        gen = candidate_gen_scores(problems[0].candidates, cfg.transform)
        resolved_m = _resolve_m(gen, cfg.m_verifications)

    matrix = np.vstack(rows)
    per_problem = matrix.mean(axis=1)
    per_draw = matrix.mean(axis=0)
    mean = float(per_problem.mean())
    draws = matrix.shape[1]

    if cfg.ci_method == "percentile":
        lo, hi = np.quantile(
            per_draw, [(1 - cfg.ci_level) / 2, (1 + cfg.ci_level) / 2]
        )
    else:
        z = NormalDist().inv_cdf((1 + cfg.ci_level) / 2)
        s = float(per_draw.std(ddof=1)) if draws > 1 else 0.0
        half = z * s / math.sqrt(draws)
        lo, hi = mean - half, mean + half
    ci_low = min(max(float(lo), 0.0), mean)
    ci_high = max(min(float(hi), 1.0), mean)

    return BootstrapReport(
        method=cfg.method,
        n=cfg.n,
        mean=mean,
        ci_low=ci_low,
        ci_high=ci_high,
        draws=draws,
        seed=cfg.seed,
        ci_level=cfg.ci_level,
        replacement=cfg.replacement,
        transform=cfg.transform,
        alpha=cfg.effective_alpha if cfg.method in ("pv", "gpv") else None,
        m=resolved_m,
        per_problem=tuple(
            (p.problem_id, float(acc)) for p, acc in zip(problems, per_problem)
        ),
    )


def pass_at_n(problem: Problem, n: int) -> float:
    """Chance a size-n slate (without replacement) contains a correct one.

    Unbiased over the pool: 1 - C(k-c, n) / C(k, n) for a pool of k with c
    correct.
    """
    if not problem.labeled:
        raise ValueError("labels required")
    k = len(problem.candidates)
    if not 1 <= n <= k:
        raise ValueError(f"slate too large: n={n} > pool {k}")
    c = sum(1 for cand in problem.candidates if cand.correct)
    return 1.0 - math.comb(k - c, n) / math.comb(k, n)


# A curve's problems, in each of its worker processes; set by the pool's
# initializer, so they are sent once per worker instead of once per point.
_curve_problems: Sequence[Problem] = ()


def _hold_curve_problems(problems: Sequence[Problem]) -> None:
    global _curve_problems
    _curve_problems = problems


def _curve_point(cfg: EvalConfig) -> BootstrapReport:
    return bootstrap_accuracy(_curve_problems, cfg, jobs=1)


def budget_curve(
    problems: Sequence[Problem],
    methods: Sequence[str],
    n_grid: Sequence[int],
    m_grid: Sequence[int] = (2,),
    solver_cfg: Optional[ModelConfig] = None,
    verifier_cfg: Optional[ModelConfig] = None,
    budget_mode: str = "flops",
    latency_table: Optional[LatencyTable] = None,
    cfg: Optional[EvalConfig] = None,
    verification_out_tokens: Optional[int] = None,
    jobs: int = 1,
) -> list[BudgetPoint]:
    """Accuracy-vs-budget points for each method over a slate-size grid.

    The flops budget of a point is N times the mean per-candidate pipeline
    cost of its method (generation, plus scoring for verifier methods, plus
    M verification generations for gpv), averaged over problems. The
    latency budget is looked up from measured wall-clock data at (N, M)
    exactly; absent measurements are errors. gpv expands over m_grid; other
    methods report m=0.

    Each problem's pipeline FLOPs are computed once per (mode, M) and
    reused across the N grid. With jobs > 1 the points are split across
    one process pool, which receives the problems once per worker.
    """
    if budget_mode not in ("flops", "latency"):
        raise ValueError(f"unknown budget mode: {budget_mode!r}")
    if budget_mode == "latency" and latency_table is None:
        raise ValueError("latency budget needs a latency table")
    if budget_mode == "flops" and solver_cfg is None:
        raise ValueError("flops budget needs a solver config")
    for p in problems:
        if not p.candidates:
            raise EmptyPoolError(f"problem {p.problem_id!r}: empty pool")
    base = cfg if cfg is not None else EvalConfig(n=1)
    pipeline_costs: dict[tuple[str, int], list[int]] = {}

    def point_budget(method: str, n: int, m: int) -> float:
        mode = _PIPELINE_MODE[method]
        if budget_mode == "latency":
            return latency_lookup(latency_table, mode, n, m)
        if (mode, m) not in pipeline_costs:
            pipeline_costs[mode, m] = [
                pipeline_flops(
                    solver_cfg, verifier_cfg,
                    [c.token_stats for c in p.candidates], mode,
                    m_verifications=m,
                    verification_out_tokens=verification_out_tokens,
                )
                for p in problems
            ]
        per_problem = [
            n * total / len(p.candidates)
            for p, total in zip(problems, pipeline_costs[mode, m])
        ]
        return float(np.mean(per_problem))

    # Every budget is worked out, and checked, before any slate is drawn.
    plan = []
    ns = sorted(n_grid)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown selection method: {method!r}")
        for m in m_grid if method == "gpv" else (0,):
            budgets = [point_budget(method, n, m) for n in ns]
            if any(b1 <= b0 for b0, b1 in zip(budgets, budgets[1:])):
                raise ValueError(
                    f"budget not strictly increasing for {method!r}: {budgets}"
                )
            plan += [(method, m, n, b) for n, b in zip(ns, budgets)]

    runs = [
        dataclasses.replace(
            base, n=n, method=method,
            m_verifications=m if method == "gpv" else None,
        )
        for method, m, n, _ in plan
    ]
    workers = _workers(jobs, len(runs))
    if workers > 1:
        pool = ProcessPoolExecutor(
            max_workers=workers,
            initializer=_hold_curve_problems,
            initargs=(problems,),
        )
        try:
            reports = list(pool.map(_curve_point, runs))
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        reports = [bootstrap_accuracy(problems, run) for run in runs]

    return [
        BudgetPoint(
            method=method, n=n, m=m, budget=budget,
            accuracy=report.mean,
            ci_low=report.ci_low,
            ci_high=report.ci_high,
        )
        for (method, m, n, budget), report in zip(plan, reports)
    ]


CurvePoint = Union[BudgetPoint, tuple[float, float]]


def _as_xy(curve: Sequence[CurvePoint]) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for pt in curve:
        if isinstance(pt, BudgetPoint):
            xs.append(pt.budget)
            ys.append(pt.accuracy)
        else:
            x, y = pt
            xs.append(float(x))
            ys.append(float(y))
    order = np.argsort(xs)
    return np.asarray(xs)[order], np.asarray(ys)[order]


def crossover_threshold(
    curve_a: Sequence[CurvePoint], curve_b: Sequence[CurvePoint]
) -> Optional[float]:
    """Smallest budget at which curve_b's accuracy meets or beats curve_a's.

    Both curves are interpolated piecewise-linearly over the union of their
    budgets within the shared range. Returns None when curve_b never
    catches up (or the ranges do not overlap).
    """
    if len(curve_a) < 2 or len(curve_b) < 2:
        raise ValueError("insufficient points")
    ax, ay = _as_xy(curve_a)
    bx, by = _as_xy(curve_b)
    lo = max(ax[0], bx[0])
    hi = min(ax[-1], bx[-1])
    if lo > hi:
        return None

    grid = np.unique(np.concatenate([[lo, hi], ax, bx]))
    grid = grid[(grid >= lo) & (grid <= hi)]
    diff = np.interp(grid, bx, by) - np.interp(grid, ax, ay)

    for i, d in enumerate(diff):
        if d >= 0:
            if i == 0:
                return float(grid[0])
            d0, d1 = diff[i - 1], d
            t = d0 / (d0 - d1)
            return float(grid[i - 1] + t * (grid[i] - grid[i - 1]))
    return None
