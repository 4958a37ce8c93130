"""Slate-resampling evaluation, pass@N, and budget-equalized curves.

Accuracy of a selection method at slate size N is estimated by drawing many
N-candidate slates per problem, running the method on each slate, and
averaging. Every draw gets its own counter-based RNG stream keyed by
(seed, problem_id, draw index), and reduction order is fixed, so results
are bit-identical at any parallelism level.

Slates are drawn and scored in bulk. The draws reproduce
slate_rng(seed, problem_id, draw).choice(k, n, replace) bit for bit:
Philox4x64-10 runs in numpy over a (block, draw) grid, and Floyd's
algorithm and the Fisher-Yates shuffle run as n vector steps across draws.
Replacement draws, pools of more than 10,000 candidates and the rare draw
where Lemire's method rejects a word go through slate_rng itself. Rows of
problems with equal pool size share each chunk of draws, so a row never
depends on which problems ran with it.

What a rule decides on a slate comes from selection.py: its batch kernel
(_tally) runs here on a chunk of slates at once, one row each, on the
inputs select_answer reads of a whole pool (_scored); BoN reads its order
as ranks. Tests hold each slate's outcome to select_answer and to an
independent oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence, Union

try:  # CPython's built-in sha256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from .core import Problem, _check_int, _check_number
from .costs import (LatencyTable, ModelConfig, latency_lookup, pipeline_breakdown,
                    pipeline_flops)
from .selection import (
    METHODS,
    _alpha_or_default,
    _bon_ranking,
    _objective,
    _resolve_m,
    _scored,
    _tally,
    _transform_fn,
)

_PIPELINE_MODE = {"sc": "sc", "bon": "disc", "wsc": "disc", "pv": "disc", "gpv": "gen"}
_MAX_EXHAUSTIVE_SLATES = 10**6  # per problem, for bootstrap_accuracy


@dataclass(frozen=True)
class EvalConfig:
    """One evaluation run: slate size, method, draw count, and RNG seed.
    gpv's M (None: the data's one M) is checked by _resolve_m, and pv's and
    gpv's alpha by their _objective at N = n and M (else 1), as built."""

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
        for name in ("n", "draws", "seed"):
            _check_int(name, getattr(self, name))
        _check_number("ci_level", self.ci_level)
        if self.alpha is not None:  # None: the method's default
            _check_number("alpha", self.alpha)
        if type(self.replacement) is not bool:
            raise ValueError(f"replacement must be a bool, got {self.replacement!r}")
        if self.n < 1:
            raise ValueError(f"invalid slate size: {self.n}")
        if self.draws < 1:
            raise ValueError(f"invalid draw count: {self.draws}")
        if not 0 <= self.seed < 2**63:
            raise ValueError(f"seed out of range [0, 2**63): {self.seed}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError(f"ci_level out of (0,1): {self.ci_level}")
        if self.method not in METHODS:
            raise ValueError(f"unknown selection method: {self.method!r}")
        m = self.m_verifications if self.method == "gpv" else None
        m = 1 if m is None else _resolve_m((), m)  # 1: the alpha check's M
        if self.ci_method not in ("normal", "percentile"):
            raise ValueError(f"unknown ci method: {self.ci_method!r}")
        _transform_fn(self.transform)  # raises as select_answer does
        if self.method in ("pv", "gpv"):
            _objective(self.method, self.n, self.effective_alpha, m)
        elif self.alpha is not None and not self.alpha < math.inf:  # NaN or +inf
            raise ValueError(f"invalid alpha: {self.alpha}")

    @property
    def effective_alpha(self) -> float:
        return _alpha_or_default(self.method, self.alpha)


def _store_floats(report, *names: str) -> None:
    """Store the named fields as floats, so an int given for one reports
    as a float does (1 prints as 1.0); None stays None."""
    for name in names:
        value = getattr(report, name)
        if value is not None:
            object.__setattr__(report, name, float(value))


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
        _store_floats(self, "mean", "ci_low", "ci_high", "ci_level", "alpha")
        object.__setattr__(self, "per_problem", tuple(
            (pid, float(acc)) for pid, acc in self.per_problem
        ))


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
        _store_floats(self, "budget", "accuracy", "ci_low", "ci_high")


def _pid_hash(problem_id: str) -> int:
    digest = sha256(problem_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def slate_rng(seed: int, problem_id: str, draw: int) -> np.random.Generator:
    """The draw's private stream: the draw contract.

    It is Philox4x64-10 at counter (0, 0, 0, draw), keyed by _slate_key:
    numpy's coercion of the list [seed, h], where h is the first 8 bytes of the
    problem id's sha256, big-endian. When exactly one of the two is at
    least 2**63, numpy goes through a float64 array, so the key keeps 53
    significant bits of each; that happens for about half of all ids.

    A slate is slate_rng(seed, problem_id, draw).choice(k, n, replace).
    The evaluator draws slates in bulk, bit for bit equal to that (see
    _draw_slates), and calls this stream itself for replacement draws,
    for pools of more than 10,000 candidates and for the rare draw where
    Lemire's method rejects a word.
    """
    bitgen = np.random.Philox(counter=[0, 0, 0, draw], key=_slate_key(seed, problem_id))
    return np.random.Generator(bitgen)


# Philox4x64-10 (Salmon et al., SC'11): round multipliers, key increments.
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_BUMP = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LOW = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
# choice(k, n, replace=False) runs Floyd's algorithm for every n at k <= this.
_MAX_BULK_POOL = 10_000
# Slate elements drawn and scored at once, to keep arrays small, for peak
# memory and cache; a chunk's Philox grid is at most _CHUNK / 4 + rows cells.
_CHUNK = 1 << 14


def _slate_key(seed: int, problem_id: str) -> np.ndarray:
    """slate_rng's Philox key for a problem, as numpy stores it: the list
    [seed, h] as an array, cast to uint64, which is what Philox(key=...)
    does with a list (numpy.random._common.int_to_array). No generator is
    built, so numpy.random is not loaded. Each pair is coerced on its own,
    since numpy picks int64, uint64 or float64 per pair."""
    return np.asarray([seed, _pid_hash(problem_id)]).astype(np.uint64)


def _mulhilo(x: np.ndarray, mul: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of x * mul; the high one from 32-bit
    halves (Warren, Hacker's Delight, mulhu)."""
    m_lo, m_hi = np.uint64(mul & 0xFFFFFFFF), np.uint64(mul >> 32)
    x_lo, x_hi = x & _LOW, x >> _HALF
    mid = (x_lo * m_lo >> _HALF) + x_hi * m_lo
    high = x_hi * m_hi + (mid >> _HALF) + ((mid & _LOW) + x_lo * m_hi >> _HALF)
    return high, x * np.uint64(mul)


def _philox(keys: np.ndarray, draws: np.ndarray, blocks: int) -> tuple:
    """Philox4x64-10 output words (x0, x1, x2, x3), each broadcastable to
    (blocks, rows): block b of row r is counter (b + 1, 0, 0, draws[r])
    under key keys[r]. The counter words broadcast, so the first rounds
    work on small arrays."""
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    x1 = x2 = np.zeros((1, 1), np.uint64)
    x3 = draws.astype(np.uint64)
    k0, k1 = keys[:, 0].copy(), keys[:, 1].copy()
    for r in range(10):
        if r:
            k0 += _PHILOX_BUMP[0]
            k1 += _PHILOX_BUMP[1]
        hi0, lo0 = _mulhilo(x0, _PHILOX_MUL[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_MUL[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


def _stream_words(keys: np.ndarray, draws: np.ndarray, count: int) -> np.ndarray:
    """The first count 32-bit words of each row's slate_rng stream, as
    uint64, shape (count, rows).

    Each 64-bit Philox word gives its low half first, as numpy reads
    them.
    """
    rows, blocks = len(draws), -(-count // 8)
    words = np.empty((blocks, 4, 2, rows), "<u8")
    for i, x in enumerate(_philox(keys, draws, blocks)):
        x = np.broadcast_to(x, (blocks, rows))
        np.bitwise_and(x, _LOW, out=words[:, i, 0])
        np.right_shift(x, _HALF, out=words[:, i, 1])
    return words.reshape(8 * blocks, rows)[:count]


def _draw_slates(
    keys: np.ndarray, draws: np.ndarray, k: int, n: int, ordered: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's slate_rng(...).choice(k, n, replace=False), shape
    (rows, n), for k <= 10,000; and a mask of the rows to draw again.

    choice runs Floyd's algorithm over j = k-n .. k-1 (j = 0 draws
    nothing), then a Fisher-Yates shuffle over i = n-1 .. 1. Each bounded
    draw in [0, j] is Lemire's method on one 32-bit word (Lemire, ACM
    TOMACS 2019). Where Lemire would reject a word and read the next, the
    row's later draws all move; such a row is flagged instead. With
    ordered=False the shuffle is left out, and with it the shuffle's
    words: each row holds the same candidates, in another order.
    """
    rows = len(draws)
    floyd = range(k - n, k)
    bounds = [j + 1 for j in floyd if j] + list(range(n, 1, -1) if ordered else [])
    if not ordered and n == k:  # Floyd picks every candidate
        return np.broadcast_to(np.arange(k), (rows, k)), np.zeros(rows, bool)
    scaled = _stream_words(keys, draws, len(bounds))
    scaled *= np.array(bounds, np.uint64)[:, None]
    thresholds = np.array([2**32 % b for b in bounds], np.uint32)[:, None]
    # low halves of the little-endian products, without a copy
    redo = (scaled.view("<u4")[:, ::2] < thresholds).any(axis=0)
    scaled >>= _HALF
    words = iter(scaled.view("<i8"))  # each below 2**32

    base = np.arange(rows) * k
    taken = np.zeros(rows * k, bool)
    slates = np.empty((n, rows), np.int64)
    for s, j in enumerate(floyd):
        pick = next(words) if j else np.zeros(rows, np.int64)
        if s:
            pick = np.where(taken[base + pick], j, pick)
        taken[base + pick] = True
        slates[s] = pick
    if ordered:
        cols = np.arange(rows)
        for i in range(n - 1, 0, -1):
            other = next(words)
            swap = slates[other, cols]
            slates[other, cols] = slates[i]
            slates[i] = swap
    return slates.T, redo


def _candidate_values(problem: Problem, cfg: EvalConfig) -> Optional[np.ndarray]:
    """What cfg.method reads of each candidate, in pool order: None for sc,
    else selection._scored's array, which BoN turns into kept ranks (rank k:
    no answer, never wins). Raises as select_answer does."""
    if cfg.method == "sc":
        return None
    values, _ = _scored(problem, cfg.method, cfg.transform, cfg.m_verifications)
    if cfg.method != "bon":
        return values

    def ranks():
        ids, columns = problem.candidate_ids, problem.answer_columns
        ranked = _bon_ranking(ids, values.tolist(), columns.codes.tolist(),
                              columns.none_code)
        rank = np.full(len(ids), len(ids), np.int32)
        rank[np.array(ranked, np.intp)] = np.arange(len(ranked))
        return rank
    return problem._kept("bon", ranks)


class _PoolStack:
    """Pools of one size k, stacked, for scoring slates of any of them in
    one batch: each problem's answer_columns, and its _candidate_values
    under cfg.

    A slate is one row of selection._tally.
    """

    def __init__(self, problems: Sequence[Problem], cfg: EvalConfig):
        self.problems, self.cfg = problems, cfg
        columns = [p.answer_columns for p in problems]
        values = [_candidate_values(p, cfg) for p in problems]
        self.k, self.n = len(problems[0]), cfg.n
        width = max(len(c.keys) for c in columns)
        self.correct = np.zeros((len(columns), width))
        for row, c in zip(self.correct, columns):
            row[: len(c.correct)] = c.correct
        self.codes = np.stack([c.codes for c in columns])
        self.none_code = np.array([c.none_code for c in columns])
        self.rank = self.by_rank = self.weights = self.objective = None
        if cfg.method == "bon":  # bon reads ranks, and no objective
            self.rank = np.stack(values)
            # the label of the candidate at each rank; rank k never wins
            self.by_rank = np.zeros((len(columns), self.k + 1), bool)
            for row, rank, c in zip(self.by_rank, self.rank, columns):
                row[rank] = c.correct[c.codes]
            self.by_rank[:, self.k] = False
        else:
            self.weights = None if cfg.method == "sc" else np.stack(values)
            m = cfg.m_verifications if cfg.method == "gpv" else 1
            self.objective = _objective(cfg.method, cfg.n, cfg.effective_alpha, m)
        # rows per chunk: _CHUNK slate elements or bincount cells, and
        # 8 * _CHUNK bytes of Floyd's taken-candidate bitmap
        self.step = max(1, _CHUNK // max(self.n, width, self.k // 8))

    def score(self, pool: np.ndarray, slates: np.ndarray) -> np.ndarray:
        """1.0 where the rule's pick on a slate is correct, else 0.0; row r
        of slates holds candidate positions in pool pool[r]."""
        at = slates + (pool * self.k)[:, None]
        if self.rank is not None:
            best = self.rank.ravel()[at].min(axis=1)
            return self.by_rank[pool, best].astype(float)
        values = None if self.weights is None else self.weights.ravel()[at]
        pick = _tally(self.codes.ravel()[at], values, self.correct.shape[1],
                      self.none_code[pool], self.objective)
        return np.where(pick >= 0, self.correct[pool, pick], 0.0)

    def sampled(self) -> np.ndarray:
        """Per-draw accuracies, shape (pools, cfg.draws)."""
        cfg, problems = self.cfg, self.problems
        bulk = not cfg.replacement and self.k <= _MAX_BULK_POOL
        if bulk:  # each problem keeps its key for the last seed only
            keys = np.array([p._kept("slate key", lambda: _slate_key(
                cfg.seed, p.problem_id), cfg.seed) for p in problems])
        total = len(problems) * cfg.draws
        out = np.empty(total)
        for start in range(0, total, self.step):
            pool, draw = np.divmod(
                np.arange(start, min(start + self.step, total)), cfg.draws
            )
            if bulk:
                # only summed scores depend on the order within a slate
                slates, redo = _draw_slates(keys[pool], draw, self.k, self.n,
                                            ordered=self.weights is not None)
            else:
                slates = np.empty((len(draw), self.n), np.intp)
                redo = np.ones(len(draw), bool)
            for r in np.flatnonzero(redo):
                rng = slate_rng(cfg.seed, problems[pool[r]].problem_id, int(draw[r]))
                slates[r] = rng.choice(self.k, size=self.n,
                                       replace=cfg.replacement)
            out[start:start + len(draw)] = self.score(pool, slates)
        return out.reshape(len(problems), cfg.draws)

    def exhaustive(self, pool: int) -> np.ndarray:
        """One accuracy per C(k, n) slate of a pool, in combinations order."""
        combos = itertools.combinations(range(self.k), self.n)
        out = []
        while True:
            flat = np.fromiter(itertools.chain.from_iterable(
                itertools.islice(combos, self.step)), np.intp)
            if not flat.size:
                return np.concatenate(out)
            slates = flat.reshape(-1, self.n)
            out.append(self.score(np.full(len(slates), pool), slates))


def _with_m(problems: Sequence[Problem], cfg: EvalConfig) -> EvalConfig:
    """cfg with gpv's M filled in, by _resolve_m: every problem's row length.

    Raises ValueError when the problems' lengths differ; then M must be
    given. Problems without gen_scores fail later, when they are scored.
    """
    if cfg.method != "gpv" or cfg.m_verifications is not None:
        return cfg
    lengths = {p.gen.shape[1] for p in problems if p.gen is not None}
    where = f" across problems (gen_scores lengths {sorted(lengths)}): give M"
    return dataclasses.replace(
        cfg, m_verifications=_resolve_m(lengths, None, where)) if lengths else cfg


def _eval_problems(
    problems: Sequence[Problem], cfg: EvalConfig, exhaustive: bool
) -> list[np.ndarray]:
    """Per-draw 0/1 accuracy vectors, one per problem, in order.

    Every problem is checked before any slate is drawn. Problems of equal
    pool size are drawn and scored together, a chunk of rows at a time; no
    row depends on the problems it shares a chunk with.
    """
    cfg = _with_m(problems, cfg)
    groups: dict[int, list[int]] = {}
    for i, problem in enumerate(problems):
        if not problem.labeled:
            raise ValueError("labels required")
        if not cfg.replacement and cfg.n > len(problem):
            raise ValueError(f"slate too large: n={cfg.n} > pool "
                             f"{len(problem)} for {problem.problem_id!r}")
        groups.setdefault(len(problem), []).append(i)
    stacks = [(members, _PoolStack([problems[i] for i in members], cfg))
              for members in groups.values()]

    out: list[np.ndarray] = [np.empty(0)] * len(problems)
    for members, stack in stacks:
        if exhaustive:
            rows = [stack.exhaustive(j) for j in range(len(members))]
        else:
            rows = stack.sampled()
        for i, row in zip(members, rows):
            out[i] = row
    return out


_held: Sequence[Problem] = ()  # a pool worker's problems, set by _hold


def _hold(problems: Sequence[Problem]) -> None:
    global _held
    _held = problems


def _run_held(task: tuple):
    func, part, *args = task
    return func(_held[part], *args)


def _map_problems(func, problems: Sequence[Problem], tasks: list[tuple],
                  jobs: int) -> list:
    """func(problems[part], *args) for each (part, *args) of tasks, in order,
    in process or on one pool of at most jobs, the CPU count and len(tasks)
    workers. Each worker gets the problems once, from the initializer; a
    task pickles func by name, so func is a module-level function here. The
    first failure cancels the pending tasks."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [func(problems[part], *args) for part, *args in tasks]
    # imported here: loading multiprocessing costs every process that has
    # no pool to build
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, initializer=_hold,
                               initargs=(problems,))
    try:
        return list(pool.map(_run_held, [(func, *task) for task in tasks]))
    finally:
        pool.shutdown(cancel_futures=True)


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

    gpv's M is cfg.m_verifications, else the gen_scores length that every
    problem shares (a ValueError when they differ); the report echoes it.
    """
    if not problems:
        raise ValueError("no problems")
    if exhaustive:
        sizes = set(map(len, problems))
        if cfg.replacement:
            raise ValueError("exhaustive mode enumerates without replacement")
        if len(sizes) != 1:
            raise ValueError("exhaustive mode needs equal pool sizes")
        k = sizes.pop()
        if math.comb(k, cfg.n) > _MAX_EXHAUSTIVE_SLATES:
            raise ValueError(f"exhaustive mode: C({k}, {cfg.n}) slates per "
                             f"problem, more than {_MAX_EXHAUSTIVE_SLATES:,}")

    cfg = _with_m(problems, cfg)
    size = len(problems) if jobs <= 1 else -(-len(problems) // (4 * jobs))
    tasks = [(slice(i, i + size), cfg, exhaustive)
             for i in range(0, len(problems), size)]
    rows = [row for part in _map_problems(_eval_problems, problems, tasks, jobs)
            for row in part]

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
        m=cfg.m_verifications if cfg.method == "gpv" else None,
        per_problem=tuple(
            (p.problem_id, float(acc)) for p, acc in zip(problems, per_problem)
        ),
    )


def pass_at_n(problem: Problem, n: int) -> float:
    """Chance a size-n slate (without replacement) contains a correct one.

    Unbiased over the pool: 1 - C(k-c, n) / C(k, n) for a pool of k with c
    correct.
    """
    _check_int("n", n)
    if not problem.labeled:
        raise ValueError("labels required")
    k = len(problem)
    if not 1 <= n <= k:
        raise ValueError(f"slate too large: n={n} > pool {k}")
    c = problem.labels.count(True)
    return 1.0 - math.comb(k - c, n) / math.comb(k, n)


def _curve_point(problems: Sequence[Problem], cfg: EvalConfig) -> BootstrapReport:
    return bootstrap_accuracy(problems, cfg, jobs=1)


def _curve_runs(methods, n_grid, m_grid=(2,), solver_cfg=None, verifier_cfg=None,
                budget_mode="flops", latency_table=None, cfg=None,
                verification_out_tokens=None) -> list[EvalConfig]:
    """budget_curve's checks of all it is given but the problems, which the
    CLI makes before it reads the input; then each point's EvalConfig, by
    method (gpv's by M), N ascending. Each point is priced on no
    candidates, so a table that lacks it, or a verifier method without a
    verifier config, is refused here."""
    if budget_mode not in ("flops", "latency"):
        raise ValueError(f"unknown budget mode: {budget_mode!r}")
    if budget_mode == "latency" and latency_table is None:
        raise ValueError("latency budget needs a latency table")
    if budget_mode == "flops" and solver_cfg is None:
        raise ValueError("flops budget needs a solver config")
    for name, grid in (("methods", methods), ("n_grid", n_grid),
                       ("m_grid", m_grid if "gpv" in methods else [0])):
        if not grid:
            raise ValueError(f"{name} is empty")
        repeated = [v for i, v in enumerate(grid) if v in grid[:i]]
        if repeated:
            raise ValueError(f"{name} repeats {repeated[0]!r}")
    base = cfg if cfg is not None else EvalConfig(n=1)
    runs = [dataclasses.replace(base, n=n, method=method, m_verifications=m)
            for method in methods for m in (m_grid if method == "gpv" else [None])
            for n in sorted(n_grid)]
    for run in runs:
        mode, m = _PIPELINE_MODE[run.method], run.m_verifications or 0
        if budget_mode == "latency":
            latency_lookup(latency_table, mode, run.n, m)
        else:
            pipeline_breakdown(solver_cfg, verifier_cfg, (), mode, m_verifications=m,
                               verification_out_tokens=verification_out_tokens)
    return runs


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
    methods report m=0. methods, n_grid and, when gpv is among the
    methods, m_grid must each be non-empty, with no value repeated. Every
    argument but the problems is checked first, and each point priced on
    no candidates, by _curve_runs, which gives each point's EvalConfig.

    Each problem's pipeline FLOPs are computed once per (mode, M) and
    reused across the N grid, from its token_stats, built once. With
    jobs > 1 the points are split across one process pool, which receives
    the problems once per worker.
    """
    runs = _curve_runs(methods, n_grid, m_grid, solver_cfg, verifier_cfg,
                       budget_mode, latency_table, cfg, verification_out_tokens)
    if not problems:
        raise ValueError("no problems")
    pipeline_costs: dict[tuple[str, int], list[int]] = {}

    def point_budget(run: EvalConfig) -> float:
        mode, n, m = _PIPELINE_MODE[run.method], run.n, run.m_verifications or 0
        if budget_mode == "latency":
            return latency_lookup(latency_table, mode, n, m)
        if (mode, m) not in pipeline_costs:
            pipeline_costs[mode, m] = [
                pipeline_flops(
                    solver_cfg, verifier_cfg,
                    p.token_stats, mode,
                    m_verifications=m,
                    verification_out_tokens=verification_out_tokens,
                )
                for p in problems
            ]
        per_problem = [
            n * total / len(p)
            for p, total in zip(problems, pipeline_costs[mode, m])
        ]
        return float(np.mean(per_problem))

    # Every budget is worked out, and checked, before any slate is drawn;
    # each method's line (gpv's, each M's) is len(n_grid) runs in a row.
    budgets: list[float] = []
    for start in range(0, len(runs), len(n_grid)):
        line = [point_budget(run) for run in runs[start:start + len(n_grid)]]
        if any(b1 <= b0 for b0, b1 in zip(line, line[1:])):
            raise ValueError(
                f"budget not strictly increasing for {runs[start].method!r}: {line}"
            )
        budgets += line

    reports = _map_problems(_curve_point, problems,
                            [(slice(None), run) for run in runs], jobs)

    return [
        BudgetPoint(
            method=run.method, n=run.n, m=run.m_verifications or 0, budget=budget,
            accuracy=report.mean,
            ci_low=report.ci_low,
            ci_high=report.ci_high,
        )
        for run, budget, report in zip(runs, budgets, reports)
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
