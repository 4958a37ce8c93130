"""Bootstrap evaluation, pass@N, budget curves, crossover detection."""

import builtins
import collections
import dataclasses
import functools
import io
import itertools
import math
import re
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from verisel import (
    BUNDLED_LATENCY,
    BudgetPoint,
    Candidate,
    EmptyPoolError,
    EvalConfig,
    IngestError,
    LatencyTable,
    ModelConfig,
    Problem,
    SynthSpec,
    TokenStats,
    bootstrap_accuracy,
    budget_curve,
    cluster_by_answer,
    crossover_threshold,
    flops_disc_verification,
    flops_generation,
    generate_pool,
    group_from_problem,
    ingest,
    ingest_stats,
    pass_at_n,
    pipeline_flops,
    select_answer,
    slate_rng,
    write_records,
)
import verisel.core as core_module
import verisel.evaluate as evaluate_module
import verisel.selection as selection_module
from verisel.costs import MODEL_PRESETS
from verisel.evaluate import _eval_problems
from verisel.records import records_text
from verisel.selection import SCORE_TRANSFORMS

import oracles
from oracles import enumeration_pass_at_n
from pools import random_problem

METHODS = ("sc", "bon", "wsc", "pv", "gpv")


@pytest.fixture
def executors(monkeypatch):
    """Worker counts of the process pools opened, with a stand-in pool that
    runs its tasks in this process; the CPU count reads 3."""
    opened = []

    class InProcessPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            opened.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

    # evaluate.py imports the pool class only when it builds a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("verisel.evaluate._held", evaluate_module._held)
    monkeypatch.setattr("verisel.evaluate.os.cpu_count", lambda: 3)
    return opened


def correct_of(problem):
    return {c.cluster_key: bool(c.correct) for c in problem.candidates}


def select_on_slate(problem, idx, cfg):
    """Reference outcome: run the pure selection rule on the drawn slate."""
    sub = Problem(
        problem_id=problem.problem_id,
        candidates=tuple(problem.candidates[i] for i in idx),
    )
    try:
        result = select_answer(
            sub,
            method=cfg.method,
            alpha=cfg.effective_alpha if cfg.method in ("pv", "gpv") else None,
            m_verifications=cfg.m_verifications,
            transform=cfg.transform,
        )
    except EmptyPoolError:
        return 0.0
    return float(correct_of(problem)[result.chosen_answer])


def oracle_on_slate(problem, idx, cfg):
    """The same slate's outcome from tests/oracles.py's rule, on the
    slate's candidates with cfg's transform applied to each score."""
    sub = [problem.candidates[i] for i in idx]
    fn = SCORE_TRANSFORMS[cfg.transform]
    if cfg.method == "bon":  # BoN ranks raw scores
        pick = oracles.oracle_bon(
            [(c.candidate_id, c.cluster_key, c.disc_score) for c in sub])
        answer = None if pick is None else pick[1]
    elif cfg.method == "gpv":
        m = cfg.m_verifications or len(sub[0].gen_scores)
        view = [(c.candidate_id, c.cluster_key, [fn(s) for s in c.gen_scores])
                for c in sub]
        answer = oracles.oracle_gpv(view, cfg.effective_alpha, m)
    else:
        view = [(c.candidate_id, c.cluster_key, fn(c.disc_score)) for c in sub]
        answer = (oracles.oracle_pv(view, cfg.effective_alpha) if cfg.method == "pv"
                  else getattr(oracles, f"oracle_{cfg.method}")(view))
    return 0.0 if answer is None else float(correct_of(problem)[answer])


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="invalid slate size"):
            EvalConfig(n=0)
        with pytest.raises(ValueError, match="invalid draw count"):
            EvalConfig(n=1, draws=0)
        with pytest.raises(ValueError, match="ci_level"):
            EvalConfig(n=1, ci_level=1.0)
        with pytest.raises(ValueError, match="unknown selection method"):
            EvalConfig(n=1, method="majority")
        with pytest.raises(ValueError, match="unknown ci method"):
            EvalConfig(n=1, ci_method="bca")
        problem = Problem(problem_id="p", candidates=(
            Candidate(candidate_id="c0", answer_raw="x", answer_key="x",
                      correct=True, disc_score=1.0),
        ))
        with pytest.raises(ValueError) as from_select:
            select_answer(problem, "wsc", transform="sigmod")
        for method in METHODS:
            with pytest.raises(ValueError) as from_config:
                bootstrap_accuracy(
                    [problem],
                    EvalConfig(n=1, method=method, draws=5, transform="sigmod"),
                )
            assert str(from_config.value) == str(from_select.value)

    @pytest.mark.parametrize("name, value", [
        ("n", 2.0), ("n", True), ("draws", 1.5), ("draws", np.int64(5)),
        ("seed", 1.0),
    ])
    def test_counts_are_ints(self, name, value):
        # these once reached numpy and failed there with a raw TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be an int, got {value!r}")):
            EvalConfig(**{"n": 1, name: value})

    @pytest.mark.parametrize("name, value, kind", [
        ("n", "3", "an int"), ("draws", None, "an int"),
        ("ci_level", "x", "a number"), ("ci_level", None, "a number"),
        ("alpha", "x", "a number"), ("alpha", True, "a number"),
        ("replacement", "yes", "a bool"), ("replacement", 1, "a bool"),
    ])
    def test_types_checked_before_ranges(self, name, value, kind):
        # alpha=True once passed as 1, and a replacement that is not a bool
        # drew with replacement when true; the rest once failed a range
        # check with a raw TypeError
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be {kind}, got {value!r}")):
            EvalConfig(**{"n": 1, name: value})

    @pytest.mark.parametrize("transform", [["sigmoid"], None, 1])
    def test_transform_is_a_known_name(self, transform):
        # a list once ended in a raw TypeError: unhashable type: 'list'
        with pytest.raises(ValueError, match=re.escape(
                f"unknown score transform: {transform!r}")):
            EvalConfig(n=1, transform=transform)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha(self, alpha):
        # a NaN alpha once made every pv objective NaN: mean 0, no error
        for method in METHODS:
            with pytest.raises(ValueError, match=f"invalid alpha: {alpha}"):
                EvalConfig(n=1, method=method, alpha=alpha)

    @pytest.mark.parametrize("m, error", [
        (0, "invalid verification count: 0"), (-2, "invalid verification count: -2"),
        (2.0, "m_verifications must be an int, got 2.0"),
        (True, "m_verifications must be an int, got True"),
    ])
    def test_gpv_m_is_a_count(self, m, error):
        # M = 0 was once accepted here and refused only as "inconsistent M"
        # once a slate was scored
        with pytest.raises(ValueError, match=re.escape(error)):
            EvalConfig(n=1, method="gpv", m_verifications=m)
        assert EvalConfig(n=1, method="gpv", m_verifications=1).m_verifications == 1
        assert EvalConfig(n=1, method="gpv").m_verifications is None  # the data's M
        assert EvalConfig(n=1, method="sc", m_verifications=m).m_verifications == m

    @pytest.mark.parametrize("method", ["pv", "gpv"])
    def test_negative_alpha_refused_when_built(self, method):
        # a negative alpha once passed here and failed only once a slate
        # was scored, after the input was read
        with pytest.raises(ValueError, match=r"^invalid alpha: -1\.0$"):
            EvalConfig(n=2, method=method, alpha=-1.0)
        for other in ("sc", "bon", "wsc"):  # they ignore alpha
            assert EvalConfig(n=2, method=other, alpha=-1.0).alpha == -1.0

    def test_alpha_checked_at_n_and_m(self):
        # alpha * ln(N*M) overflows past N = 6 at M = 1, and at N = 2 past M = 3
        assert EvalConfig(n=6, method="pv", alpha=1e308).n == 6
        assert EvalConfig(n=2, method="gpv", alpha=1e308).m_verifications is None
        for n, method, m in ((7, "pv", None), (7, "gpv", None), (2, "gpv", 4)):
            with pytest.raises(ValueError, match=r"^invalid alpha: 1e\+308$"):
                EvalConfig(n=n, method=method, alpha=1e308, m_verifications=m)
        # pv has no M: one given is not read
        assert EvalConfig(n=2, method="pv", alpha=1e308, m_verifications=4).n == 2

    def test_alpha_defaults(self):
        assert EvalConfig(n=1, method="pv").effective_alpha == 0.5
        assert EvalConfig(n=1, method="gpv").effective_alpha == 0.1
        assert EvalConfig(n=1, method="pv", alpha=2.0).effective_alpha == 2.0


class TestSlateRng:
    def test_keyed_streams(self):
        a = slate_rng(7, "p1", 3).integers(0, 1000, 8)
        b = slate_rng(7, "p1", 3).integers(0, 1000, 8)
        np.testing.assert_array_equal(a, b)
        c = slate_rng(7, "p1", 4).integers(0, 1000, 8)
        d = slate_rng(7, "p2", 3).integers(0, 1000, 8)
        e = slate_rng(8, "p1", 3).integers(0, 1000, 8)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert not np.array_equal(a, e)


class TestSlateEquivalence:
    """The vectorized per-draw scorer must agree with the selection rules
    exactly, slate by slate, not just in aggregate: with select_answer,
    which runs the one-pool rule on the slate as a pool, and with the
    independent oracles."""

    def test_sampled_slates_match_selection(self):
        rng = np.random.default_rng(31)
        for method in METHODS:
            for trial in range(25):
                problem = random_problem(
                    rng, min_size=2, max_size=10, labeled=True,
                    pid=f"{method}-{trial}",
                )
                k = len(problem.candidates)
                cfg = EvalConfig(
                    n=int(rng.integers(1, k + 1)),
                    method=method,
                    draws=15,
                    seed=int(rng.integers(1_000_000)),
                    transform="raw" if trial % 2 else "sigmoid",
                )
                rows = _eval_problems([problem], cfg, False)[0]
                for t in range(cfg.draws):
                    idx = slate_rng(cfg.seed, problem.problem_id, t).choice(
                        k, size=cfg.n, replace=False
                    )
                    assert rows[t] == select_on_slate(problem, idx, cfg), (
                        f"{method} trial {trial} draw {t}"
                    )
                    assert rows[t] == oracle_on_slate(problem, idx, cfg), (
                        f"{method} trial {trial} draw {t}: oracle"
                    )

    def test_exhaustive_slates_match_selection(self):
        rng = np.random.default_rng(32)
        for method in METHODS:
            problem = random_problem(
                rng, min_size=6, max_size=6, labeled=True, pid=f"ex-{method}"
            )
            cfg = EvalConfig(n=3, method=method)
            rows = _eval_problems([problem], cfg, True)[0]
            slates = list(itertools.combinations(range(6), 3))
            assert len(rows) == len(slates) == 20
            for row, idx in zip(rows, slates):
                assert row == select_on_slate(problem, np.array(idx), cfg)
                assert row == oracle_on_slate(problem, idx, cfg)

    def test_gpv_pass_means_summed_as_select_does(self):
        """numpy's pairwise row sum (M >= 8) would break this exact tie the
        other way from select_answer's in-sequence sum."""
        a = (0.423, 0.59, 0.024, 0.673, 0.919, 0.827, 0.886, 0.66)
        b = (0.59, 0.673, 0.919, 0.024, 0.66, 0.423, 0.827, 0.886)
        for a_correct in (False, True):
            problem = Problem(problem_id="m8", candidates=(
                Candidate(candidate_id="c0", answer_raw="A", answer_key="A",
                          correct=a_correct, gen_scores=a),
                Candidate(candidate_id="c1", answer_raw="B", answer_key="B",
                          correct=not a_correct, gen_scores=b),
            ))
            cfg = EvalConfig(n=2, method="gpv", transform="raw")
            assert select_answer(problem, "gpv", transform="raw") \
                .chosen_answer == "A"
            rows = _eval_problems([problem], cfg, True)[0]
            assert rows.tolist() == [float(a_correct)]
            assert rows[0] == select_on_slate(problem, np.arange(2), cfg)
            assert rows[0] == oracle_on_slate(problem, np.arange(2), cfg)


def compensated_sum(values, start=0):
    """sum() as Python 3.12 and later compute it over floats (Neumaier)."""
    values = list(values)
    if not any(isinstance(v, float) for v in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


class TestInOrderSums:
    """Score sums add left to right, as bincount does, whatever sum() does."""

    @pytest.fixture(autouse=True)
    def compensating_sum(self, monkeypatch):
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
        for module in (core_module, selection_module):
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)

    def test_whole_pool_pick_matches_slate(self):
        # cluster b sums to 0.0 in order, 1.0 with compensation
        raw = [("b", 1e16), ("b", 1.0), ("b", -1e16), ("a", 0.5)]
        problem = Problem(
            problem_id="sums",
            candidates=tuple(
                Candidate(candidate_id=f"c{i}", answer_raw=a, answer_key=a,
                          correct=(a == "a"), disc_score=s)
                for i, (a, s) in enumerate(raw)
            ),
        )
        for method in ("wsc", "pv"):
            cfg = EvalConfig(n=4, method=method, transform="raw")
            (slate,) = _eval_problems([problem], cfg, True)[0]
            assert slate == 1.0  # the whole-pool slate picks a
            assert select_answer(problem, method, transform="raw").chosen_answer == "a"
        sums = {cl.answer_key: cl.sum_score for cl in cluster_by_answer(problem)}
        assert sums == {"a": 0.5, "b": 0.0}

    def test_gen_means(self):
        means = selection_module._gen_means(np.array([[1e16, 1.0, -1e16]]), 3, ("c0",))
        assert means.tolist() == [0.0]


class TestBootstrap:
    def problems(self, rng, count=5, labeled=True, **kw):
        return [
            random_problem(rng, min_size=4, max_size=8, labeled=labeled,
                           pid=f"q{i}", **kw)
            for i in range(count)
        ]

    def test_report_echoes_config(self):
        rng = np.random.default_rng(33)
        cfg = EvalConfig(n=2, method="pv", draws=40, seed=9, ci_level=0.9,
                         alpha=0.25)
        report = bootstrap_accuracy(self.problems(rng), cfg)
        assert (report.method, report.n, report.draws, report.seed) == \
            ("pv", 2, 40, 9)
        assert report.ci_level == 0.9 and report.alpha == 0.25
        assert report.transform == "sigmoid" and not report.replacement
        assert report.m is None
        assert [pid for pid, _ in report.per_problem] == \
            [f"q{i}" for i in range(5)]

    def test_mean_is_average_of_per_problem(self):
        rng = np.random.default_rng(34)
        report = bootstrap_accuracy(
            self.problems(rng), EvalConfig(n=3, method="wsc", draws=30)
        )
        accs = [acc for _, acc in report.per_problem]
        assert report.mean == pytest.approx(sum(accs) / len(accs), abs=1e-12)
        assert 0.0 <= report.ci_low <= report.mean <= report.ci_high <= 1.0

    def test_alpha_and_m_echo(self):
        rng = np.random.default_rng(35)
        problems = self.problems(rng)
        sc = bootstrap_accuracy(problems, EvalConfig(n=2, draws=10))
        assert sc.alpha is None and sc.m is None
        # these pools have M = 3, 2, 1, 3, 1; every one has M = 1
        gpv = bootstrap_accuracy(
            problems, EvalConfig(n=2, method="gpv", draws=10, m_verifications=1)
        )
        assert gpv.alpha == 0.1 and gpv.m == 1

    def test_shared_m_is_echoed(self):
        problems = generate_pool(SynthSpec(seed=3, n_problems=4, pool_size=6,
                                           p_correct=0.5, gen_verifications=3))
        cfg = EvalConfig(n=2, method="gpv", draws=10)
        report = bootstrap_accuracy(problems, cfg)
        assert report.m == 3
        assert report == bootstrap_accuracy(
            problems, dataclasses.replace(cfg, m_verifications=3))

    def test_mixed_m_needs_m(self):
        rng = np.random.default_rng(35)
        problems = self.problems(rng)  # M = 3, 2, 1, 3, 1
        with pytest.raises(ValueError, match=r"^inconsistent M .*\[1, 2, 3\]"):
            bootstrap_accuracy(problems, EvalConfig(n=2, method="gpv", draws=10))
        with pytest.raises(ValueError, match=r"^inconsistent M .*\[1, 3\]"):
            bootstrap_accuracy([problems[0], problems[2]],
                               EvalConfig(n=2, method="gpv", draws=10), jobs=2)

    def test_identical_runs_identical_reports(self):
        rng = np.random.default_rng(36)
        problems = self.problems(rng)
        cfg = EvalConfig(n=3, method="pv", draws=50, seed=4)
        assert bootstrap_accuracy(problems, cfg) == \
            bootstrap_accuracy(problems, cfg)

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(37)
        problems = self.problems(rng, count=6)
        cfg = EvalConfig(n=3, method="wsc", draws=60, seed=5)
        serial = bootstrap_accuracy(problems, cfg, jobs=1)
        assert bootstrap_accuracy(problems, cfg, jobs=3) == serial
        assert bootstrap_accuracy(problems, cfg, jobs=2) == serial

    def test_workers_capped_at_cpus_and_problems(self, executors, monkeypatch):
        rng = np.random.default_rng(37)
        problems = self.problems(rng, count=6)
        cfg = EvalConfig(n=3, method="wsc", draws=10, seed=5)
        serial = bootstrap_accuracy(problems, cfg, jobs=1)
        assert executors == []
        assert bootstrap_accuracy(problems, cfg, jobs=10**6) == serial
        assert bootstrap_accuracy(problems, cfg, jobs=2) == serial
        assert bootstrap_accuracy(problems[:2], cfg, jobs=3).per_problem == \
            serial.per_problem[:2]
        assert executors == [3, 2, 2]
        monkeypatch.setattr("verisel.evaluate.os.cpu_count", lambda: None)
        assert bootstrap_accuracy(problems, cfg, jobs=4) == serial
        assert executors == [3, 2, 2]

    def test_replacement_allows_oversized_slates(self):
        rng = np.random.default_rng(38)
        problems = self.problems(rng, count=3)
        cfg = EvalConfig(n=32, method="sc", draws=30, replacement=True)
        report = bootstrap_accuracy(problems, cfg)
        assert report.replacement and 0.0 <= report.mean <= 1.0

    def test_degenerate_pools(self):
        solo = Problem(
            problem_id="solo",
            candidates=(
                Candidate(candidate_id="c0", answer_raw="x", answer_key="x",
                          correct=True, disc_score=2.0, gen_scores=(1.0,)),
            ),
        )
        for method in METHODS:
            report = bootstrap_accuracy(
                [solo], EvalConfig(n=1, method=method, draws=5)
            )
            assert report.mean == 1.0
        unanswered = Problem(
            problem_id="none",
            candidates=(
                Candidate(candidate_id="c0", answer_raw="", answer_key="",
                          correct=False, disc_score=2.0, gen_scores=(1.0,)),
            ),
        )
        for method in METHODS:
            report = bootstrap_accuracy(
                [unanswered], EvalConfig(n=1, method=method, draws=5)
            )
            assert report.mean == 0.0

    def test_single_draw_interval_collapses(self):
        rng = np.random.default_rng(39)
        report = bootstrap_accuracy(
            self.problems(rng), EvalConfig(n=2, draws=1)
        )
        assert report.ci_low == report.mean == report.ci_high

    def test_percentile_interval(self):
        rng = np.random.default_rng(40)
        problems = self.problems(rng)
        cfg = EvalConfig(n=2, method="sc", draws=200, ci_method="percentile")
        report = bootstrap_accuracy(problems, cfg)
        assert 0.0 <= report.ci_low <= report.mean <= report.ci_high <= 1.0

    def test_wider_level_wider_interval(self):
        rng = np.random.default_rng(41)
        problems = self.problems(rng)
        narrow = bootstrap_accuracy(
            problems, EvalConfig(n=2, draws=200, ci_level=0.8)
        )
        wide = bootstrap_accuracy(
            problems, EvalConfig(n=2, draws=200, ci_level=0.99)
        )
        assert wide.ci_low <= narrow.ci_low
        assert wide.ci_high >= narrow.ci_high


class TestBootstrapErrors:
    def test_no_problems(self):
        with pytest.raises(ValueError, match="no problems"):
            bootstrap_accuracy([], EvalConfig(n=1))

    def test_slate_too_large_without_replacement(self):
        rng = np.random.default_rng(42)
        problem = random_problem(rng, min_size=3, max_size=3, labeled=True)
        with pytest.raises(ValueError, match="slate too large"):
            bootstrap_accuracy([problem], EvalConfig(n=4, draws=5))

    def test_labels_required(self):
        rng = np.random.default_rng(43)
        problem = random_problem(rng, labeled=False)
        with pytest.raises(ValueError, match="labels required"):
            bootstrap_accuracy([problem], EvalConfig(n=1, draws=5))

    def test_scores_required(self):
        problem = Problem(
            problem_id="p",
            candidates=(
                Candidate(candidate_id="c0", answer_raw="x", answer_key="x",
                          correct=True),
                Candidate(candidate_id="c1", answer_raw="y", answer_key="y",
                          correct=False),
            ),
        )
        with pytest.raises(ValueError, match="scores required"):
            bootstrap_accuracy([problem], EvalConfig(n=1, method="wsc", draws=5))
        with pytest.raises(ValueError, match="scores required"):
            bootstrap_accuracy([problem], EvalConfig(n=1, method="gpv", draws=5))

    def test_inconsistent_cluster_grading(self):
        # such a pool is rejected when built, so no evaluation can see it
        with pytest.raises(IngestError, match="graded both"):
            Problem(
                problem_id="p",
                candidates=(
                    Candidate(candidate_id="c0", answer_raw="x", answer_key="x",
                              correct=True, disc_score=1.0),
                    Candidate(candidate_id="c1", answer_raw="x", answer_key="x",
                              correct=False, disc_score=1.0),
                ),
            )

    def test_gpv_m_beyond_data(self):
        rng = np.random.default_rng(44)
        problem = random_problem(rng, min_size=4, max_size=4, labeled=True)
        with pytest.raises(ValueError, match="inconsistent M"):
            bootstrap_accuracy(
                [problem],
                EvalConfig(n=2, method="gpv", draws=5, m_verifications=9),
            )

    def test_negative_alpha(self):
        rng = np.random.default_rng(45)
        problem = random_problem(rng, min_size=4, max_size=4, labeled=True)
        with pytest.raises(ValueError, match="invalid alpha"):
            bootstrap_accuracy(
                [problem], EvalConfig(n=2, method="pv", draws=5, alpha=-0.5)
            )

    def test_bon_ignores_alpha(self):
        # bon reads no alpha, yet a negative one once failed as "invalid
        # alpha" from an objective that nothing scored with
        rng = np.random.default_rng(45)
        problems = [random_problem(rng, min_size=4, max_size=8, labeled=True,
                                   pid=f"q{i}") for i in range(3)]
        report = bootstrap_accuracy(
            problems, EvalConfig(n=2, method="bon", draws=20, alpha=-1.0))
        assert report == bootstrap_accuracy(
            problems, EvalConfig(n=2, method="bon", draws=20))
        assert report.alpha is None
        for method in ("pv", "gpv"):
            with pytest.raises(ValueError, match="invalid alpha"):
                bootstrap_accuracy(problems, EvalConfig(
                    n=2, method=method, draws=20, alpha=-1.0, m_verifications=1))

    def test_empty_pool(self):
        """Problem refuses an empty pool, so none reaches an evaluation."""
        with pytest.raises(EmptyPoolError, match="problem 'e': empty pool"):
            bootstrap_accuracy([Problem(problem_id="e", candidates=())],
                               EvalConfig(n=1, draws=5))


class TestExhaustive:
    def problems(self, rng, count=4, k=6):
        return [
            random_problem(rng, min_size=k, max_size=k, labeled=True,
                           pid=f"q{i}")
            for i in range(count)
        ]

    def test_draw_count_and_mean(self):
        rng = np.random.default_rng(46)
        problems = self.problems(rng)
        cfg = EvalConfig(n=2, method="sc")
        report = bootstrap_accuracy(problems, cfg, exhaustive=True)
        assert report.draws == math.comb(6, 2)
        for problem, (_, acc) in zip(problems, report.per_problem):
            outcomes = [
                select_on_slate(problem, np.array(idx), cfg)
                for idx in itertools.combinations(range(6), 2)
            ]
            assert acc == pytest.approx(np.mean(outcomes), abs=1e-12)

    def test_accuracy_bounded_by_pass_rate(self):
        rng = np.random.default_rng(47)
        problems = self.problems(rng, count=6)
        for method in METHODS:
            for n in (1, 2, 4):
                # M = 1 is an M that every pool has
                report = bootstrap_accuracy(
                    problems, EvalConfig(n=n, method=method, m_verifications=1),
                    exhaustive=True,
                )
                for problem, (_, acc) in zip(problems, report.per_problem):
                    assert acc <= pass_at_n(problem, n) + 1e-12

    def test_all_methods_equal_at_slate_size_one(self):
        rng = np.random.default_rng(48)
        problems = self.problems(rng, count=6)
        reference = None
        for method in METHODS:
            report = bootstrap_accuracy(
                problems, EvalConfig(n=1, method=method, m_verifications=1),
                exhaustive=True,
            )
            accs = [acc for _, acc in report.per_problem]
            if reference is None:
                reference = accs
            assert accs == reference
        for problem, acc in zip(problems, reference):
            assert acc == pytest.approx(pass_at_n(problem, 1), abs=1e-12)

    def test_full_pool_slate_is_whole_pool_selection(self):
        rng = np.random.default_rng(49)
        problems = self.problems(rng, count=4)
        cfg = EvalConfig(n=6, method="pv")
        report = bootstrap_accuracy(problems, cfg, exhaustive=True)
        assert report.draws == 1
        for problem, (_, acc) in zip(problems, report.per_problem):
            assert acc == select_on_slate(problem, np.arange(6), cfg)

    def test_mode_restrictions(self):
        rng = np.random.default_rng(50)
        problems = self.problems(rng)
        with pytest.raises(ValueError, match="without replacement"):
            bootstrap_accuracy(
                problems, EvalConfig(n=2, replacement=True), exhaustive=True
            )
        uneven = problems + [
            random_problem(rng, min_size=3, max_size=3, labeled=True, pid="odd")
        ]
        with pytest.raises(ValueError, match="equal pool sizes"):
            bootstrap_accuracy(uneven, EvalConfig(n=2), exhaustive=True)
        with pytest.raises(ValueError, match="slate too large"):
            bootstrap_accuracy(problems, EvalConfig(n=7), exhaustive=True)

    def test_slate_count_capped(self, monkeypatch):
        def enumerate_slates(*args):
            raise AssertionError("slates enumerated past the cap")

        monkeypatch.setattr(evaluate_module, "_eval_problems", enumerate_slates)
        rng = np.random.default_rng(50)
        wide = [random_problem(rng, min_size=128, max_size=128, labeled=True)]
        with pytest.raises(ValueError, match=r"C\(128, 32\)"):
            bootstrap_accuracy(wide, EvalConfig(n=32), exhaustive=True)
        # C(23, 11) = 1,352,078 is just past the cap of 10**6
        narrow = [random_problem(rng, min_size=23, max_size=23, labeled=True)]
        with pytest.raises(ValueError, match=r"C\(23, 11\)"):
            bootstrap_accuracy(narrow, EvalConfig(n=11), exhaustive=True)


class TestPassAtN:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            labels = [bool(rng.random() < 0.4) for _ in range(k)]
            problem = Problem(
                problem_id="p",
                candidates=tuple(
                    Candidate(candidate_id=f"c{i}", answer_raw=f"a{i}",
                              answer_key=f"a{i}", correct=labels[i])
                    for i in range(k)
                ),
            )
            for n in range(1, k + 1):
                assert pass_at_n(problem, n) == pytest.approx(
                    enumeration_pass_at_n(labels, n), abs=1e-12
                )

    def test_monotone_in_n(self):
        rng = np.random.default_rng(52)
        problem = random_problem(rng, min_size=8, max_size=8, labeled=True)
        rates = [pass_at_n(problem, n) for n in range(1, 9)]
        assert rates == sorted(rates)

    def test_errors(self):
        rng = np.random.default_rng(53)
        unlabeled = random_problem(rng, labeled=False)
        with pytest.raises(ValueError, match="labels required"):
            pass_at_n(unlabeled, 1)
        labeled = random_problem(rng, min_size=3, max_size=3, labeled=True)
        with pytest.raises(ValueError, match="slate too large"):
            pass_at_n(labeled, 4)

    @pytest.mark.parametrize("n", [True, 2.5])
    def test_n_is_an_int(self, n):
        # True once gave pass@1, and 2.5 a raw TypeError from math.comb
        rng = np.random.default_rng(53)
        labeled = random_problem(rng, min_size=3, max_size=3, labeled=True)
        with pytest.raises(ValueError, match=re.escape(f"n must be an int, got {n!r}")):
            pass_at_n(labeled, n)


def curve_problem(pid, rng, k=6, m=2):
    stats = TokenStats(prompt_tokens=10, output_tokens=40, solution_tokens=20)
    cands = []
    for i in range(k):
        answer = "a" if rng.random() < 0.5 else "b"
        loc = 1.0 if answer == "a" else -1.0
        cands.append(
            Candidate(
                candidate_id=f"c{i:02d}",
                answer_raw=answer,
                answer_key=answer,
                correct=(answer == "a"),
                disc_score=float(rng.normal(loc, 1.0)),
                gen_scores=tuple(
                    float(rng.normal(loc, 1.0)) for _ in range(m)
                ),
                token_stats=stats,
            )
        )
    return Problem(problem_id=pid, candidates=tuple(cands))


SOLVER = ModelConfig(d=4, m=6, L=2, V=11)
VERIFIER = ModelConfig(d=2, m=3, L=1, V=5)


class TestBudgetCurve:
    def problems(self, seed=54, count=4):
        rng = np.random.default_rng(seed)
        return [curve_problem(f"q{i}", rng) for i in range(count)]

    def test_flops_budgets_are_exact(self):
        problems = self.problems()
        base = EvalConfig(n=1, draws=30, seed=3)
        points = budget_curve(
            problems, ["sc", "pv"], n_grid=(4, 1, 2),
            solver_cfg=SOLVER, verifier_cfg=VERIFIER, cfg=base,
        )
        gen_one = flops_generation(SOLVER, 10, 40).total
        ver_one = flops_disc_verification(VERIFIER, 20).total
        sc_pts = [pt for pt in points if pt.method == "sc"]
        pv_pts = [pt for pt in points if pt.method == "pv"]
        assert [pt.n for pt in sc_pts] == [1, 2, 4]
        for pt in sc_pts:
            assert pt.budget == pytest.approx(pt.n * gen_one)
            assert pt.m == 0
        for pt in pv_pts:
            assert pt.budget == pytest.approx(pt.n * (gen_one + ver_one))

    def test_accuracy_matches_direct_bootstrap(self):
        problems = self.problems()
        base = EvalConfig(n=1, draws=30, seed=3)
        points = budget_curve(
            problems, ["wsc"], n_grid=(2, 4),
            solver_cfg=SOLVER, verifier_cfg=VERIFIER, cfg=base,
        )
        for pt in points:
            report = bootstrap_accuracy(
                problems, dataclasses.replace(base, n=pt.n, method="wsc")
            )
            assert (pt.accuracy, pt.ci_low, pt.ci_high) == \
                (report.mean, report.ci_low, report.ci_high)

    def test_gpv_expands_verification_grid(self):
        problems = self.problems()
        base = EvalConfig(n=1, draws=20, seed=3)
        points = budget_curve(
            problems, ["gpv"], n_grid=(1, 2), m_grid=(1, 2),
            solver_cfg=SOLVER, verifier_cfg=VERIFIER, cfg=base,
            verification_out_tokens=7,
        )
        assert [(pt.m, pt.n) for pt in points] == \
            [(1, 1), (1, 2), (2, 1), (2, 2)]
        gen_one = flops_generation(SOLVER, 10, 40).total
        ver_one = flops_generation(VERIFIER, 20, 7).total
        for pt in points:
            assert pt.budget == pytest.approx(pt.n * (gen_one + pt.m * ver_one))

    def test_latency_budgets(self):
        problems = self.problems()
        table = LatencyTable(entries={
            ("generation", 1, 0): 1.0,
            ("generation", 2, 0): 3.0,
            ("generation", 4, 0): 9.0,
            ("disc_verify", 1, 0): 0.1,
            ("disc_verify", 2, 0): 0.2,
            ("disc_verify", 4, 0): 0.4,
        })
        base = EvalConfig(n=1, draws=20, seed=3)
        points = budget_curve(
            problems, ["sc", "wsc"], n_grid=(1, 2, 4),
            budget_mode="latency", latency_table=table, cfg=base,
        )
        assert [pt.budget for pt in points if pt.method == "sc"] == \
            [1.0, 3.0, 9.0]
        assert [pt.budget for pt in points if pt.method == "wsc"] == \
            pytest.approx([1.1, 3.2, 9.4])

    def test_parallel_matches_serial(self):
        problems = self.problems()
        base = EvalConfig(n=1, draws=20, seed=3)
        flops = dict(methods=METHODS, n_grid=(1, 2, 4), m_grid=(1, 2),
                     solver_cfg=SOLVER, verifier_cfg=VERIFIER, cfg=base,
                     verification_out_tokens=7)
        table = LatencyTable(entries={
            (role, n, m): 1.0 + n + m
            for role, m in (("generation", 0), ("disc_verify", 0),
                            ("gen_verify", 2))
            for n in (1, 2, 4)
        })
        latency = dict(methods=METHODS, n_grid=(1, 2, 4), m_grid=(2,),
                       budget_mode="latency", latency_table=table, cfg=base)
        for kwargs in (flops, latency):
            serial = budget_curve(problems, jobs=1, **kwargs)
            assert budget_curve(problems, jobs=2, **kwargs) == serial

    def test_prices_each_mode_and_m_once(self, monkeypatch):
        pipeline_flops = evaluate_module.pipeline_flops
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[3], kwargs["m_verifications"]))
            return pipeline_flops(*args, **kwargs)

        monkeypatch.setattr("verisel.evaluate.pipeline_flops", counted)
        problems = self.problems()
        points = budget_curve(
            problems, METHODS, n_grid=(1, 2, 4), m_grid=(1, 2),
            solver_cfg=SOLVER, verifier_cfg=VERIFIER,
            cfg=EvalConfig(n=1, draws=5), verification_out_tokens=7,
        )
        assert len(points) == 18
        # sc; disc for bon, wsc and pv; gen at each M
        assert sorted(set(calls)) == [("disc", 0), ("gen", 1), ("gen", 2), ("sc", 0)]
        assert len(calls) == len(problems) * 4

    def test_columns_built_once_per_problem(self, monkeypatch):
        """Over 42 points, each problem builds its answer columns, BoN
        ranks and slate key once, its sigmoid disc scores once (bon reads
        the raw ones) and its gpv means once per M, from the first M
        columns of gen; select_answer then reads the same kept inputs
        for all five rules and builds nothing more."""
        build = Problem.answer_columns.func
        built = []

        def counted(problem):
            built.append(problem.problem_id)
            return build(problem)

        columns = functools.cached_property(counted)
        columns.__set_name__(Problem, "answer_columns")
        monkeypatch.setattr(Problem, "answer_columns", columns)
        rng = np.random.default_rng(54)
        problems = [curve_problem(f"q{i}", rng, m=4) for i in range(4)]
        pid_of = {id(p.candidate_ids): p.problem_id for p in problems}

        def column_of(scores):
            return next((p.problem_id, name) for p in problems
                        for name in ("disc", "gen")
                        if np.shares_memory(scores, getattr(p, name)))

        calls = collections.Counter()

        def count(module, name, tag):
            func = getattr(module, name)

            def call(*args):
                calls[(name, *tag(*args))] += 1
                return func(*args)

            monkeypatch.setattr(module, name, call)

        count(selection_module, "_transformed",
              lambda scores, t: (*column_of(scores), scores.shape, t))
        count(selection_module, "_gen_means", lambda gen, m, ids: (pid_of[id(ids)], m))
        count(evaluate_module, "_bon_ranking", lambda ids, *_: (pid_of[id(ids)],))
        count(evaluate_module, "_slate_key", lambda seed, pid: (pid,))
        points = budget_curve(
            problems, METHODS, n_grid=range(1, 7), m_grid=(1, 2, 4),
            solver_cfg=SOLVER, verifier_cfg=VERIFIER,
            cfg=EvalConfig(n=1, draws=5), verification_out_tokens=7, jobs=1,
        )
        assert len(points) == 42
        assert built == [p.problem_id for p in problems]
        expected = collections.Counter(
            call for p in problems for call in (
                ("_transformed", p.problem_id, "disc", (6,), "sigmoid"),
                *(("_transformed", p.problem_id, "gen", (6, m), "sigmoid")
                  for m in (1, 2, 4)),
                *(("_gen_means", p.problem_id, m) for m in (1, 2, 4)),
                ("_bon_ranking", p.problem_id),
                ("_slate_key", p.problem_id),
            )
        )
        assert calls == expected
        for p in problems:
            for method in METHODS:
                select_answer(p, method)
        assert built == [p.problem_id for p in problems]
        assert calls == expected

    def test_one_pool_per_curve(self, executors):
        problems = self.problems()
        kwargs = dict(methods=("sc", "gpv"), n_grid=(1, 2), m_grid=(1, 2),
                      solver_cfg=SOLVER, verifier_cfg=VERIFIER,
                      cfg=EvalConfig(n=1, draws=10), verification_out_tokens=7)
        serial = budget_curve(problems, jobs=1, **kwargs)
        assert executors == []
        assert evaluate_module._held == ()  # nothing held in process
        assert budget_curve(problems, jobs=10**6, **kwargs) == serial
        assert budget_curve(problems, ["sc"], n_grid=(1, 2), jobs=3,
                            solver_cfg=SOLVER, cfg=kwargs["cfg"]) == serial[:2]
        # one pool per curve, of at most the CPU count and the point count
        assert executors == [3, 2]

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Calls budget_curve makes to bootstrap_accuracy."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return bootstrap_accuracy(*args, **kwargs)

        monkeypatch.setattr("verisel.evaluate.bootstrap_accuracy", counted)
        return calls

    def test_latency_missing_measurement(self, evaluations):
        problems = self.problems()
        table = LatencyTable(entries={("generation", 1, 0): 1.0})
        with pytest.raises(ValueError, match="no measurement"):
            budget_curve(
                problems, ["sc"], n_grid=(1, 2),
                budget_mode="latency", latency_table=table,
                cfg=EvalConfig(n=1, draws=10),
            )
        assert evaluations == []

    def test_budget_must_increase(self, evaluations):
        problems = self.problems()
        table = LatencyTable(entries={
            ("generation", 1, 0): 5.0,
            ("generation", 2, 0): 3.0,
        })
        with pytest.raises(ValueError, match="not strictly increasing"):
            budget_curve(
                problems, ["sc"], n_grid=(1, 2),
                budget_mode="latency", latency_table=table,
                cfg=EvalConfig(n=1, draws=10),
            )
        assert evaluations == []

    def test_empty_pool_named_before_pricing(self, monkeypatch):
        priced = []
        monkeypatch.setattr("verisel.evaluate.pipeline_flops",
                            lambda *a, **kw: priced.append(a) or 1)
        with pytest.raises(EmptyPoolError, match="problem 'e': empty pool"):
            budget_curve([Problem(problem_id="e", candidates=())], ["sc"], [1],
                         solver_cfg=MODEL_PRESETS["qwen2.5-32b"])
        with pytest.raises(EmptyPoolError, match="problem 'e': empty pool"):
            budget_curve(self.problems() + [Problem(problem_id="e", candidates=())],
                         ["sc", "gpv"], [1, 2],
                         solver_cfg=SOLVER, verifier_cfg=VERIFIER)
        assert priced == []

    def test_no_problems_fails_before_pricing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no problems"):
                budget_curve([], ["sc"], [1, 2],
                             solver_cfg=MODEL_PRESETS["qwen2.5-32b"])
            with pytest.raises(ValueError, match="no problems"):
                budget_curve([], ["sc"], [1, 2], budget_mode="latency",
                             latency_table=BUNDLED_LATENCY)

    def test_argument_validation(self):
        problems = self.problems()
        with pytest.raises(ValueError, match="unknown budget mode"):
            budget_curve(problems, ["sc"], n_grid=(1,), budget_mode="joules",
                         solver_cfg=SOLVER)
        with pytest.raises(ValueError, match="latency table"):
            budget_curve(problems, ["sc"], n_grid=(1,), budget_mode="latency")
        with pytest.raises(ValueError, match="solver config"):
            budget_curve(problems, ["sc"], n_grid=(1,))
        with pytest.raises(ValueError, match="unknown selection method"):
            budget_curve(problems, ["vote"], n_grid=(1,), solver_cfg=SOLVER)


class TestProcessPool:
    def test_tasks_pickle_module_functions_by_name(self, monkeypatch):
        """On real worker processes, with bootstrap_accuracy wrapped in a
        closure as the benchmark's traced run wraps it, both entry points
        report as at jobs=1: a task names only module-level functions of
        evaluate.py, never the wrapped one."""
        opened = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, **kwargs):
                opened.append(kwargs["max_workers"])
                super().__init__(**kwargs)

        rng = np.random.default_rng(54)
        problems = [curve_problem(f"q{i}", rng) for i in range(4)]
        cfg = EvalConfig(n=2, method="pv", draws=20, seed=3)
        curve = dict(methods=("sc", "gpv"), n_grid=(1, 2, 4), m_grid=(1, 2),
                     solver_cfg=SOLVER, verifier_cfg=VERIFIER, cfg=cfg,
                     verification_out_tokens=7)
        serial = (bootstrap_accuracy(problems, cfg), budget_curve(problems, **curve))
        wrapped = evaluate_module.bootstrap_accuracy

        def wrapper(*args, **kwargs):
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, "bootstrap_accuracy", wrapper)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr("verisel.evaluate.os.cpu_count", lambda: 2)
        assert (wrapper(problems, cfg, jobs=2),
                budget_curve(problems, jobs=2, **curve)) == serial
        assert opened == [2, 2]


# Each method with its M, as the memo tests run them.
RULE_RUNS = (("bon", None), ("wsc", None), ("pv", None), ("gpv", 1), ("gpv", 2))


class TestKeptRuleInputs:
    """What a Problem keeps for select_answer and slate evaluation: its BoN
    ranks, scores per transform, gpv means per (transform, M) and one
    slate key."""

    def problems(self, seed=57):
        rng = np.random.default_rng(seed)
        return [curve_problem(f"q{i}", rng) for i in range(3)]

    def test_no_stale_values(self):
        """The same Problems, evaluated under raw then sigmoid, M = 1 then
        2, and seed 1, 2, then 1 again, report as fresh Problems do."""
        held = self.problems()
        for transform in ("raw", "sigmoid"):
            for method, m in RULE_RUNS:
                for seed in (1, 2, 1):
                    cfg = EvalConfig(n=3, method=method, draws=20, seed=seed,
                                     transform=transform, m_verifications=m)
                    fresh = [Problem(p.problem_id, p.candidates) for p in held]
                    assert bootstrap_accuracy(held, cfg) == \
                        bootstrap_accuracy(fresh, cfg)

    def test_bounded_and_read_only(self):
        """A sweep over seeds keeps one slate key, select_answer keeps
        nothing the sweep did not, no transformed gen matrix is kept, and
        no array kept can be written to."""
        (problem,) = self.problems()[:1]
        for seed in range(5):
            for transform in ("raw", "sigmoid"):
                for method, m in RULE_RUNS:
                    bootstrap_accuracy([problem], EvalConfig(
                        n=2, method=method, draws=3, seed=seed,
                        transform=transform, m_verifications=m))
                    select_answer(problem, method, m_verifications=m,
                                  transform=transform)
        assert set(problem._memo) == {
            "bon", "slate key", ("disc", "raw"), ("disc", "sigmoid"),
            ("gpv", "raw", 1), ("gpv", "raw", 2), ("gpv", "sigmoid", 1),
            ("gpv", "sigmoid", 2),
        }
        assert problem._memo["slate key"][0] == 4
        arrays = [value for _, value in problem._memo.values()]
        assert all(isinstance(a, np.ndarray) and a.ndim == 1 for a in arrays)
        assert len(arrays) == 8
        assert not any(a.flags.writeable for a in arrays)

    def test_failed_build_keeps_nothing(self):
        problem = Problem(problem_id="q", candidates=tuple(
            Candidate(candidate_id=f"c{i}", answer_raw="a", answer_key="a",
                      correct=True, gen_scores=(1e308, 1e308))
            for i in range(2)
        ))
        for _ in range(2):  # the same error each time
            with pytest.raises(ValueError, match="scores required"):
                bootstrap_accuracy([problem], EvalConfig(n=1, method="pv", draws=2))
            with pytest.raises(ValueError, match="scores required"):
                select_answer(problem, "pv")
            with pytest.raises(ValueError, match="mean overflows"):
                bootstrap_accuracy([problem], EvalConfig(
                    n=1, method="gpv", draws=2, transform="raw"))
            with pytest.raises(ValueError, match="mean overflows"):
                select_answer(problem, "gpv", transform="raw")
            with pytest.raises(ValueError, match="inconsistent M"):
                bootstrap_accuracy([problem], EvalConfig(
                    n=1, method="gpv", draws=2, m_verifications=3))
            with pytest.raises(ValueError, match="inconsistent M"):
                select_answer(problem, "gpv", m_verifications=3)
        # neither the means nor the pv scores ever built
        assert vars(problem).get("_memo", {}) == {}

    def test_select_answer_transforms_disc_once(self, monkeypatch):
        """wsc and pv read one kept sigmoid of a pool's disc column, however
        often select_answer runs them."""
        transformed = selection_module._transformed
        calls = []

        def counted(scores, transform):
            calls.append(transform)
            return transformed(scores, transform)

        monkeypatch.setattr(selection_module, "_transformed", counted)
        (problem,) = self.problems()[:1]
        results = [select_answer(problem, method) for method in ("wsc", "pv") * 10]
        assert calls == ["sigmoid"]
        assert results == results[:2] * 10

    def test_not_seen_by_repr_or_eq(self):
        problems = self.problems()
        before = [(repr(p), hash(p)) for p in problems]
        for method in METHODS:
            bootstrap_accuracy(problems, EvalConfig(n=2, method=method, draws=5))
        assert all(p._memo for p in problems)
        assert [(repr(p), hash(p)) for p in problems] == before
        assert problems == [Problem(p.problem_id, p.candidates) for p in problems]


class TestColumnarHotPaths:
    """Ingested Problems hold their pools as columns: the rules, the slate
    evaluator, ranking, emission and the ingest summary read them, and
    none builds a Candidate."""

    @pytest.fixture
    def made(self, monkeypatch):
        """The classes core._unchecked builds, by name."""
        made = collections.Counter()
        unchecked = core_module._unchecked

        def counted(cls, **values):
            made[cls.__name__] += 1
            return unchecked(cls, **values)

        monkeypatch.setattr(core_module, "_unchecked", counted)
        return made

    def problems(self):
        built = generate_pool(SynthSpec(
            seed=3, n_problems=4, pool_size=8, p_correct=0.5, answer_space=2,
            gen_verifications=2, verification_out_tokens=4))
        return ingest(io.StringIO(records_text(built)))

    def test_no_candidate_built(self, monkeypatch):
        problems = self.problems()
        monkeypatch.setattr(Candidate, "__init__", None)  # no Candidate(...)
        for method in METHODS:
            for problem in problems:
                select_answer(problem, method)
            bootstrap_accuracy(problems, EvalConfig(n=3, method=method, draws=5))
        for problem in problems:
            group_from_problem(problem)
        write_records(problems, io.StringIO())
        assert ingest_stats(problems).candidates == 32
        assert not any("candidates" in vars(p) for p in problems)
        assert len(problems[0].candidates) == 8  # built when asked for
        assert "candidates" not in vars(problems[0])  # and not kept

    def test_budget_curve_builds_token_stats_once(self, made, monkeypatch):
        problems = self.problems()
        seen = []

        def counted(*args, **kwargs):
            seen.append(args[2])
            return pipeline_flops(*args, **kwargs)

        monkeypatch.setattr("verisel.evaluate.pipeline_flops", counted)
        points = budget_curve(
            problems, METHODS, n_grid=(1, 2), m_grid=(1, 2), solver_cfg=SOLVER,
            verifier_cfg=VERIFIER, cfg=EvalConfig(n=1, draws=5))
        assert len(points) == 12
        # sc, disc and gen at two M: four pricings per problem, of one tuple
        assert len(seen) == 4 * len(problems)
        assert {id(s) for s in seen} == {id(p.token_stats) for p in problems}
        # equal counts share one TokenStats, built once per problem
        assert made["TokenStats"] == len(problems)
        assert not any("candidates" in vars(p) for p in problems)


class TestCrossover:
    def test_linear_crossing(self):
        a = [(1.0, 0.6), (3.0, 0.8)]
        b = [(1.0, 0.5), (3.0, 1.1)]
        assert crossover_threshold(a, b) == pytest.approx(1.5)

    def test_already_ahead_returns_range_start(self):
        a = [(1.0, 0.4), (3.0, 0.8)]
        b = [(1.0, 0.5), (3.0, 0.9)]
        assert crossover_threshold(a, b) == pytest.approx(1.0)

    def test_never_catches_up(self):
        a = [(1.0, 0.9), (3.0, 0.95)]
        b = [(1.0, 0.1), (3.0, 0.2)]
        assert crossover_threshold(a, b) is None

    def test_touch_counts_as_crossing(self):
        a = [(0.0, 0.5), (2.0, 0.5)]
        b = [(0.0, 0.3), (1.0, 0.5), (2.0, 0.3)]
        assert crossover_threshold(a, b) == pytest.approx(1.0)

    def test_disjoint_ranges(self):
        a = [(0.0, 0.5), (1.0, 0.6)]
        b = [(5.0, 0.7), (6.0, 0.8)]
        assert crossover_threshold(a, b) is None

    def test_accepts_budget_points_and_unsorted_input(self):
        def pt(method, n, budget, acc):
            return BudgetPoint(method=method, n=n, m=0, budget=budget,
                               accuracy=acc, ci_low=acc, ci_high=acc)

        a = [pt("sc", 2, 3.0, 0.8), pt("sc", 1, 1.0, 0.6)]
        b = [pt("pv", 2, 3.0, 1.1), pt("pv", 1, 1.0, 0.5)]
        assert crossover_threshold(a, b) == pytest.approx(1.5)

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="insufficient points"):
            crossover_threshold([(1.0, 0.5)], [(1.0, 0.4), (2.0, 0.6)])
        with pytest.raises(ValueError, match="insufficient points"):
            crossover_threshold([(1.0, 0.4), (2.0, 0.6)], [(1.0, 0.5)])
