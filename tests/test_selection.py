"""The five selection rules: contract examples, properties, oracle checks."""

import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from verisel import (
    Candidate,
    EmptyPoolError,
    EvalConfig,
    Problem,
    VeriselError,
    bootstrap_accuracy,
    cluster_by_answer,
    select_answer,
    select_bon,
    select_gpv,
    select_pv,
    select_sc,
    select_wsc,
)
from verisel.selection import METHODS, candidate_scores, sigmoid

import oracles
from pools import oracle_gen_view, oracle_view, random_problem


def pool(answers, scores=None, pid="q"):
    scores = scores if scores is not None else [0.0] * len(answers)
    return Problem(
        problem_id=pid,
        candidates=tuple(
            Candidate(
                candidate_id=f"c{i}", answer_raw=a, answer_key=a, disc_score=s
            )
            for i, (a, s) in enumerate(zip(answers, scores))
        ),
    )


def clusters(answers, scores=None):
    return cluster_by_answer(pool(answers, scores))


class TestSelectSC:
    def test_plurality(self):
        assert select_sc(clusters(["A", "A", "A", "B"])).chosen_answer == "A"

    def test_tie_goes_to_ascending_key(self):
        assert select_sc(clusters(["B", "A", "B", "A"])).chosen_answer == "A"

    def test_singleton(self):
        assert select_sc(clusters(["A"])).chosen_answer == "A"

    def test_empty(self):
        with pytest.raises(EmptyPoolError, match="empty pool"):
            select_sc([])


class TestSelectBoN:
    def test_argmax(self):
        r = select_bon(pool(["A", "B"], [0.1, 0.9]).candidates)
        assert r.chosen_answer == "B" and r.chosen_candidate == "c1"

    def test_tie_goes_to_lowest_id(self):
        r = select_bon(pool(["B", "A"], [0.5, 0.5]).candidates)
        assert r.chosen_candidate == "c0" and r.chosen_answer == "B"

    def test_singleton(self):
        assert select_bon(pool(["A"], [0.2]).candidates).chosen_answer == "A"

    def test_empty(self):
        with pytest.raises(EmptyPoolError, match="empty pool"):
            select_bon([])

    def test_score_map_missing_a_candidate(self):
        cands = pool(["A", "B"]).candidates
        with pytest.raises(ValueError, match="scores required"):
            select_bon(cands, {"c0": 0.5})

    def test_missing_scores(self):
        cands = (Candidate(candidate_id="c0", answer_raw="A", answer_key="A"),)
        with pytest.raises(ValueError, match="scores required"):
            select_bon(cands)

    def test_unanswered_never_wins(self):
        cands = (
            Candidate(candidate_id="c0", answer_raw="A", answer_key="A",
                      disc_score=0.1),
            Candidate(candidate_id="c1", disc_score=9.9),
        )
        assert select_bon(cands).chosen_answer == "A"

    def test_all_unanswered_rejected(self):
        cands = (Candidate(candidate_id="c0", disc_score=1.0),)
        with pytest.raises(EmptyPoolError, match="no selectable"):
            select_bon(cands)

    def test_monotone_transform_invariance(self):
        """Any strictly increasing transform leaves the winner unchanged."""
        rng = np.random.default_rng(5)
        for _ in range(300):
            problem = random_problem(rng, max_size=24, with_gen=False)
            base = select_bon(problem.candidates).chosen_candidate
            raw = candidate_scores(problem.candidates, "raw")
            for fn in (lambda x: 3 * x + 1, math.exp, sigmoid):
                mapped = {cid: fn(s) for cid, s in raw.items()}
                assert (
                    select_bon(problem.candidates, mapped).chosen_candidate
                    == base
                )


class TestSelectWSC:
    def test_outvotes_plurality_with_weight(self):
        cl = clusters(["A", "A", "B"], [0.4, 0.4, 0.9])
        assert select_sc(cl).chosen_answer == "A"
        assert select_wsc(cl).chosen_answer == "B"

    def test_two_clusters(self):
        assert select_wsc(clusters(["A", "B"], [0.6, 0.4])).chosen_answer == "A"

    def test_score_map_missing_a_member(self):
        with pytest.raises(ValueError, match="scores required"):
            select_wsc(clusters(["A", "A", "B"]), {"c0": 0.5, "c2": 0.1})

    def test_unit_scores_reduce_to_sc(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            problem = random_problem(rng, max_size=32, with_gen=False)
            cl = cluster_by_answer(problem)
            ones = {c.candidate_id: 1.0 for c in problem.candidates}
            assert (
                select_wsc(cl, ones).chosen_answer
                == select_sc(cl).chosen_answer
            )

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            problem = random_problem(rng, max_size=24, with_gen=False)
            cl = cluster_by_answer(problem)
            raw = candidate_scores(problem.candidates, "raw")
            base = select_wsc(cl, raw).chosen_answer
            for c in (0.5, 2.0, 117.0):
                scaled = {cid: c * s for cid, s in raw.items()}
                assert select_wsc(cl, scaled).chosen_answer == base

    def test_scores_required(self):
        with pytest.raises(ValueError, match="scores required"):
            select_wsc(clusters(["A"], [None]))


class TestScoreMaps:
    """The dict functions check a score map as a Candidate checks its
    scores: each entry a finite int or float, never a bool."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "0.5", None],
                             ids=["nan", "inf", "-inf", "bool", "str", "none"])
    @pytest.mark.parametrize("rule", ["bon", "wsc", "pv"])
    def test_bad_score_named(self, rule, bad):
        # bon once failed with a raw IndexError on NaN and wsc with a raw
        # TypeError on a str; NaN lost in wsc, True counted as 1.0 and inf
        # won pv
        problem = pool(["A", "B", "B"], [0.5, 0.1, 0.2])
        scores = {"c0": 0.5, "c1": bad, "c2": 0.2}
        message = re.escape(f"candidate 'c1': score must be a finite number, "
                            f"got {bad!r}")
        with pytest.raises(ValueError, match=message):
            if rule == "bon":
                select_bon(problem.candidates, scores)
            else:
                {"wsc": select_wsc, "pv": select_pv}[rule](
                    cluster_by_answer(problem), scores)

    @pytest.mark.parametrize("bad", [(0.5, math.nan), (math.inf,), (True,), "ab", 0.5],
                             ids=["nan", "inf", "bool", "str", "float"])
    def test_bad_gen_row_named(self, bad):
        problem = pool(["A", "B"])
        message = re.escape(f"candidate 'c1': gen_scores must be finite numbers, "
                            f"got {bad!r}")
        with pytest.raises(ValueError, match=message):
            select_gpv(cluster_by_answer(problem), {"c0": (0.5,), "c1": bad})

    def test_ints_count_as_floats(self):
        cl = clusters(["A", "B", "B"])
        assert select_wsc(cl, {"c0": 1, "c1": 0, "c2": 0}) == \
            select_wsc(cl, {"c0": 1.0, "c1": 0.0, "c2": 0.0})


class TestSelectPV:
    def test_penalty_flips_with_alpha(self):
        cl = clusters(["A", "A", "A", "B"], [0.5, 0.5, 0.5, 0.9])
        low = select_pv(cl, alpha=0.5)
        assert low.chosen_answer == "B"
        objs = {d.answer_key: d.objective for d in low.cluster_diagnostics}
        assert objs["A"] == pytest.approx(0.5 - 0.5 * math.log(4) / 4)
        assert objs["B"] == pytest.approx(0.9 - 0.5 * math.log(4) / 2)
        assert select_pv(cl, alpha=2.0).chosen_answer == "A"

    def test_alpha_zero_is_mean_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            problem = random_problem(rng, max_size=32, with_gen=False)
            cl = cluster_by_answer(problem)
            result = select_pv(cl, alpha=0.0)
            best = max(
                (d for d in result.cluster_diagnostics if d.objective is not None),
                key=lambda d: d.objective,
            )
            assert result.chosen_answer == best.answer_key
            assert best.objective == pytest.approx(best.mean_score)

    def test_huge_alpha_collapses_to_sc(self):
        """With a unique plurality, enough pessimism reproduces SC."""
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 300:
            problem = random_problem(rng, min_size=2, max_size=32,
                                     with_gen=False, allow_none=False)
            cl = cluster_by_answer(problem)
            if len(cl) > 1 and cl[0].n_a == cl[1].n_a:
                continue
            checked += 1
            assert (
                select_pv(cl, alpha=1e9).chosen_answer
                == select_sc(cl).chosen_answer
            )

    def test_invalid_alpha(self):
        # NaN and +inf once passed the alpha < 0 check
        for alpha in (-0.1, -math.inf, math.inf, math.nan):
            with pytest.raises(ValueError, match="invalid alpha"):
                select_pv(clusters(["A"], [0.5]), alpha=alpha)
            with pytest.raises(ValueError, match="invalid alpha"):
                select_gpv(clusters(["A"]), {"c0": (0.5,)}, alpha=alpha)

    def test_unanswered_counts_toward_n(self):
        cands = (
            Candidate(candidate_id="c0", answer_raw="A", answer_key="A",
                      disc_score=0.5),
            Candidate(candidate_id="c1", disc_score=0.0),
        )
        problem = Problem(problem_id="q", candidates=cands)
        result = select_pv(cluster_by_answer(problem),
                           candidate_scores(cands, "raw"), alpha=1.0)
        objs = {d.answer_key: d.objective for d in result.cluster_diagnostics}
        # N=2 including the unanswered candidate; its own cluster is inert
        assert objs["A"] == pytest.approx(0.5 - math.log(2) / 2)
        assert objs["<none>"] is None
        assert result.chosen_answer == "A"


def two_answer_pool(k, small, score):
    """k labeled candidates: the first `small` answer "b" (incorrect) with
    disc_score score, the rest answer "a" (correct) with 0."""
    return Problem(problem_id="q", candidates=tuple(
        Candidate(candidate_id=f"c{i:03d}", answer_raw=ans, answer_key=ans,
                  correct=ans == "a", disc_score=score if ans == "b" else 0.0)
        for i, ans in enumerate(["b"] * small + ["a"] * (k - small))
    ))


# At alpha = 1e308, alpha * psi_a overflows on both: the singleton's
# objective was -inf (and the evaluator's multiply warned), and the
# 2-member cluster's, its total +inf, was NaN.
HUGE_ALPHA_POOLS = pytest.mark.parametrize("problem, transform", [
    (two_answer_pool(41, 1, 0.0), "sigmoid"),
    (two_answer_pool(300, 2, 1e308), "raw"),
], ids=["singleton-of-41", "inf-total-of-300"])


class TestHugeAlpha:
    @HUGE_ALPHA_POOLS
    def test_select_answer_refuses(self, problem, transform):
        with pytest.raises(ValueError, match=r"invalid alpha: 1e\+308"):
            select_answer(problem, "pv", alpha=1e308, transform=transform)

    @HUGE_ALPHA_POOLS
    def test_evaluator_refuses(self, problem, transform):
        cfg = EvalConfig(n=len(problem), method="pv", draws=1, alpha=1e308,
                         transform=transform)
        with pytest.raises(ValueError, match=r"invalid alpha: 1e\+308"):
            bootstrap_accuracy([problem], cfg)

    @HUGE_ALPHA_POOLS
    def test_large_finite_alpha_still_runs(self, problem, transform):
        """alpha = 1e9 is kept, and both paths pick alike on the whole pool."""
        pick = select_answer(problem, "pv", alpha=1e9, transform=transform)
        cfg = EvalConfig(n=len(problem), method="pv", draws=1, alpha=1e9,
                         transform=transform)
        assert bootstrap_accuracy([problem], cfg).mean == \
            float(pick.chosen_answer == "a")

    def test_objective_rounds_to_minus_inf_without_warning(self):
        """An accepted alpha, 1e308 * ln 3 being finite, with a raw score
        near the largest double: b's objective overflows to -inf on both
        paths, and the evaluator once warned in its subtraction."""
        problem = two_answer_pool(3, 1, -1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = select_answer(problem, "pv", alpha=1e308, transform="raw")
            objectives = {d.answer_key: d.objective
                          for d in result.cluster_diagnostics}
            assert objectives["b"] == -math.inf and math.isfinite(objectives["a"])
            assert result.chosen_answer == "a"
            for n in (1, 2, 3):
                picks = [select_answer(
                    Problem(problem_id="q", candidates=slate), "pv",
                    alpha=1e308, transform="raw").chosen_answer == "a"
                    for slate in itertools.combinations(problem.candidates, n)]
                cfg = EvalConfig(n=n, method="pv", draws=20, alpha=1e308,
                                 transform="raw")
                exact = bootstrap_accuracy([problem], cfg, exhaustive=True)
                assert exact.mean == np.mean(picks)
                assert 0.0 <= bootstrap_accuracy([problem], cfg).mean <= 1.0


class TestSelectGPV:
    def gen_pool(self, spec):
        """spec: list of (answer, [scores...])."""
        cands = tuple(
            Candidate(candidate_id=f"c{i}", answer_raw=a, answer_key=a,
                      gen_scores=tuple(scores))
            for i, (a, scores) in enumerate(spec)
        )
        problem = Problem(problem_id="q", candidates=cands)
        gen = {c.candidate_id: c.gen_scores for c in cands}
        return cluster_by_answer(problem), gen

    def test_mean_of_passes(self):
        cl, gen = self.gen_pool([("A", [1.0, 0.8]), ("B", [0.6, 0.6])])
        assert select_gpv(cl, gen, alpha=0.0).chosen_answer == "A"

    def test_equal_support_penalties_cancel(self):
        cl, gen = self.gen_pool([("A", [1.0, 0.8]), ("B", [0.6, 0.6])])
        assert select_gpv(cl, gen, alpha=10.0).chosen_answer == "A"

    def test_m_one_equals_pv(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            problem = random_problem(rng, max_size=24, with_gen=True)
            cl = cluster_by_answer(problem)
            gen = {c.candidate_id: c.gen_scores[:1] for c in problem.candidates}
            first = {c.candidate_id: c.gen_scores[0] for c in problem.candidates}
            for alpha in (0.0, 0.1, 0.5, 2.0):
                assert (
                    select_gpv(cl, gen, alpha=alpha).chosen_answer
                    == select_pv(cl, first, alpha=alpha).chosen_answer
                )

    def test_truncates_to_m(self):
        cl, gen = self.gen_pool([("A", [0.1, 0.9]), ("B", [0.5, 0.0])])
        result = select_gpv(cl, gen, alpha=0.0, m_verifications=1)
        assert result.chosen_answer == "B" and result.m == 1

    def test_ragged_m_rejected(self):
        cl, _ = self.gen_pool([("A", [0.1]), ("B", [0.5])])
        with pytest.raises(ValueError, match="inconsistent M"):
            select_gpv(cl, {"c0": (0.1,), "c1": (0.5, 0.6)}, alpha=0.0)
        with pytest.raises(ValueError, match="inconsistent M"):
            select_gpv(cl, {"c0": (0.1,), "c1": (0.5,)}, m_verifications=2)

    @pytest.mark.parametrize("m", [2.0, True, np.int64(2)],
                             ids=["float", "bool", "numpy-int"])
    def test_m_is_an_int(self, m):
        # 2.0 once failed in slicing with a raw TypeError; True ran as M = 1
        cl, gen = self.gen_pool([("A", [1.0, 0.8]), ("B", [0.6, 0.6])])
        message = re.escape(f"m_verifications must be an int, got {m!r}")
        with pytest.raises(ValueError, match=message):
            select_gpv(cl, gen, m_verifications=m)
        problem = Problem(problem_id="q", candidates=tuple(
            Candidate(candidate_id=f"c{i}", answer_raw=a, answer_key=a,
                      correct=a == "A", gen_scores=(0.5, 0.5))
            for i, a in enumerate("AAB")))
        cfg = EvalConfig(n=2, method="gpv", draws=5, m_verifications=m)
        with pytest.raises(ValueError, match=message):
            bootstrap_accuracy([problem], cfg)

    def test_overflowing_mean_is_named(self):
        # x's and y's raw means overflow to +inf and -inf; their cluster's
        # total would be NaN, which once won with objective NaN
        problem = Problem(problem_id="q", candidates=(
            Candidate(candidate_id="x", answer_raw="a", answer_key="a",
                      correct=False, gen_scores=(1e308, 1e308)),
            Candidate(candidate_id="y", answer_raw="a", answer_key="a",
                      correct=False, gen_scores=(-1e308, -1e308)),
            Candidate(candidate_id="z", answer_raw="b", answer_key="b",
                      correct=True, gen_scores=(0.5, 0.5)),
        ))
        message = "candidate 'x': gen_scores mean overflows to inf"
        with pytest.raises(ValueError, match=message):
            select_answer(problem, "gpv", transform="raw")
        cfg = EvalConfig(n=3, method="gpv", draws=5, transform="raw")
        with pytest.raises(ValueError, match=message):
            bootstrap_accuracy([problem], cfg)
        # one pass each: every mean is finite, and so is every total
        assert select_answer(problem, "gpv", m_verifications=1,
                             transform="raw").chosen_answer == "b"


class TestResultShape:
    def test_chosen_cluster_has_maximal_objective(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            problem = random_problem(rng, max_size=24)
            for method in ("sc", "bon", "wsc", "pv", "gpv"):
                result = select_answer(problem, method, transform="raw")
                diags = {d.answer_key: d for d in result.cluster_diagnostics}
                chosen = diags[result.chosen_answer]
                best = max(
                    d.objective for d in diags.values() if d.objective is not None
                )
                assert chosen.objective == best
                keys = {c.cluster_key for c in problem.candidates}
                assert set(diags) == keys

    def test_single_candidate_pool_is_unanimous(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            problem = random_problem(rng, min_size=1, max_size=1,
                                     allow_none=False)
            answers = {
                select_answer(problem, m, transform="raw").chosen_answer
                for m in ("sc", "bon", "wsc", "pv", "gpv")
            }
            assert answers == {problem.candidates[0].answer_key}

    def test_repeat_calls_identical(self):
        rng = np.random.default_rng(14)
        problem = random_problem(rng, max_size=16)
        for method in ("sc", "bon", "wsc", "pv", "gpv"):
            assert select_answer(problem, method) == select_answer(
                problem, method
            )

    def test_unknown_method(self):
        problem = pool(["A"], [0.5])
        with pytest.raises(ValueError, match="unknown selection method"):
            select_answer(problem, "vote")


class TestSeededTieBreak:
    def test_rng_picks_only_among_tied(self):
        cl = clusters(["A", "B", "C"], [0.5, 0.5, 0.1])
        rng = np.random.default_rng(0)
        seen = {
            select_wsc(cl, rng=rng).chosen_answer for _ in range(40)
        }
        assert seen == {"A", "B"}

    def test_without_rng_first_in_order_wins(self):
        cl = clusters(["A", "B", "C"], [0.5, 0.5, 0.1])
        assert all(
            select_wsc(cl).chosen_answer == "A" for _ in range(10)
        )


def close(got, want):
    return got is want is None or (
        None not in (got, want) and math.isclose(got, want, rel_tol=0, abs_tol=1e-12))


class TestDiagnosticsOracle:
    """select_answer's cluster_diagnostics against the oracle's naive
    per-cluster statement: keys, supports, order and sums exactly (both
    add in pool order), penalty and objective to 1e-12."""

    def test_random_pools(self):
        rng = np.random.default_rng(2025)
        for i in range(400):
            problem = random_problem(rng, max_size=32)
            if i % 5 == 0:  # an unscored pool: sc's sums are None
                problem = Problem("q", tuple(
                    dataclasses.replace(c, disc_score=None)
                    for c in problem.candidates))
            m = len(problem.candidates[0].gen_scores)
            alpha = float(rng.choice([0.0, 0.1, 0.5, 2.0]))
            for rule in METHODS if i % 5 else ("sc",):
                got = select_answer(problem, rule, alpha=alpha, transform="raw")
                view = oracle_gen_view(problem) if rule == "gpv" else [
                    (c.candidate_id, c.cluster_key, c.disc_score)
                    for c in problem.candidates]
                want = oracles.oracle_diagnostics(view, rule, alpha, m)
                assert [(d.answer_key, d.n_a, d.sum_score)
                        for d in got.cluster_diagnostics] == \
                    [row[:3] for row in want], (i, rule)
                for d, (*_, penalty, objective) in zip(got.cluster_diagnostics, want):
                    assert close(d.penalty, penalty), (i, rule, d)
                    assert close(d.objective, objective), (i, rule, d)


def tie_pool(spec):
    """spec: (answer, disc_score, gen_scores) per candidate, ids c0, c1, ..."""
    return Problem(problem_id="ties", candidates=tuple(
        Candidate(candidate_id=f"c{i}", answer_raw=a, answer_key=a,
                  disc_score=s, gen_scores=g)
        for i, (a, s, g) in enumerate(spec)))


# Pools where three or more clusters tie, and a BoN pool whose top score
# four answered candidates share; each rule's seeded draws for seeds 0-19,
# as the code before the one-kernel refactor gave them.
PINNED_TIES = {
    # sc: a, b and c tie at two members each
    "sc": (tie_pool([("c", 0.1, None), ("a", 0.2, None), ("", 0.3, None),
                     ("b", 0.4, None), ("a", 0.5, None), ("b", 0.6, None),
                     ("c", 0.7, None), ("d", 0.8, None)]), {},
           "cbccccbccbcabcacbccb"),
    # wsc: sums of 0.5 at supports 2, 1 and 4
    "wsc": (tie_pool([("a", 0.25, None), ("b", 0.5, None), ("c", 0.125, None),
                      ("a", 0.25, None), ("c", 0.125, None), ("", 5.0, None),
                      ("c", 0.125, None), ("d", 0.1, None), ("c", 0.125, None)]),
            {"transform": "raw"}, "babbbbabbabcabcbabba"),
    # pv at alpha 0: means of 0.5 at supports 3, 1 and 2
    "pv": (tie_pool([("b", 0.5, None), ("a", 0.5, None), ("c", 0.25, None),
                     ("a", 0.5, None), ("d", 0.25, None), ("c", 0.75, None),
                     ("a", 0.5, None), ("d", 0.25, None), ("", 0.9, None)]),
           {"transform": "raw", "alpha": 0.0}, "bcbbbbcbbcbacbabcbbc"),
    # gpv at alpha 0, M = 2: means of 0.5 at supports 2, 1 and 3
    "gpv": (tie_pool([("a", None, (0.5, 0.5)), ("b", None, (0.25, 0.75)),
                      ("c", None, (1.0, 0.0)), ("c", None, (1.0, 0.0)),
                      ("a", None, (0.5, 0.5)), ("d", None, (0.0, 0.25)),
                      ("c", None, (1.0, 0.0)), ("", None, (1.0, 1.0))]),
            {"transform": "raw", "alpha": 0.0}, "babbbbabbabcabcbabba"),
    # pv under the sigmoid, default alpha: four clusters of two, equal scores
    "pv-sigmoid": (tie_pool([(a, 0.3, None) for a in "dcbaabcd"]), {},
                   "dbddccbdcbdacdadccdc"),
    # bon: five candidates share the top score, one of them unanswered
    "bon": (tie_pool([("", 0.9, None), ("a", 0.9, None), ("a", 0.9, None),
                      ("b", 0.9, None), ("d", 0.2, None), ("c", 0.9, None),
                      ("c", 0.1, None)]), {},
            "c5 c2 c5 c5 c3 c3 c2 c5 c3 c2 c5 c1 c3 c5 c1 c5 c3 c3 c5 c3"),
}


class TestSeededTieBreakPinned:
    """--random-ties draws as it did before the rules shared one kernel:
    one rng.integers(len(tied)) per call, over the tied clusters in
    cluster order (BoN: the tied candidates in its order)."""

    @pytest.mark.parametrize("case", sorted(PINNED_TIES))
    def test_draws(self, case):
        problem, kwargs, want = PINNED_TIES[case]
        method = case.split("-")[0]
        results = [select_answer(problem, method, rng=np.random.default_rng(s),
                                 **kwargs) for s in range(20)]
        if method == "bon":
            ids = want.split()
            assert [r.chosen_candidate for r in results] == ids
            key_of = {c.candidate_id: c.cluster_key for c in problem.candidates}
            assert [r.chosen_answer for r in results] == [key_of[i] for i in ids]
        else:
            assert "".join(r.chosen_answer for r in results) == want


class TestOracleAgreement:
    """Spot-check against the brute-force oracles (full sweep in acceptance)."""

    def test_thousand_pools(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            problem = random_problem(rng)
            view = oracle_view(problem)
            gen_view = oracle_gen_view(problem)
            m = len(problem.candidates[0].gen_scores)
            alpha = float(rng.choice([0.0, 0.1, 0.5, 2.0]))

            assert (
                select_answer(problem, "sc").chosen_answer
                == oracles.oracle_sc(view)
            )
            got = select_answer(problem, "bon")
            assert (got.chosen_candidate, got.chosen_answer) == \
                oracles.oracle_bon(view)
            assert (
                select_answer(problem, "wsc", transform="raw").chosen_answer
                == oracles.oracle_wsc(view)
            )
            assert (
                select_answer(
                    problem, "pv", alpha=alpha, transform="raw"
                ).chosen_answer
                == oracles.oracle_pv(view, alpha)
            )
            assert (
                select_answer(
                    problem, "gpv", alpha=alpha, transform="raw"
                ).chosen_answer
                == oracles.oracle_gpv(gen_view, alpha, m)
            )


# Finite scores, some big enough for a raw cluster sum to overflow.
FINITE = st.one_of(st.floats(-4, 4), st.sampled_from((1e308, -1e308, 2)))
# What code might pass for one field, of one candidate or of the pool.
ODD = {
    "candidate_id": (5, "", None, b"c0", "c0"),
    "answer_raw": (7, None, "<none>"),
    "correct": (1, None, "yes", True, False),
    "disc_score": (math.nan, math.inf, True, "0.5", None, 0.5),
    "gen_scores": ((), (math.nan,), (0.5,) * 4, None, 0.5),
    "problem_id": (7, "", None, ("q",)),
}


@st.composite
def code_built_pools(draw):
    """A pool's Problem and Candidate arguments: a well-formed pool (empty,
    unlabeled or unscored at times), then at most one field set to a value
    from ODD."""
    size, m = draw(st.integers(0, 6)), draw(st.integers(1, 3))
    labeled, disc, gen = (draw(st.booleans()) for _ in range(3))
    right = draw(st.sampled_from(("a", "b")))
    args = {"problem_id": "q", "candidates": []}
    for i in range(size):
        answer = draw(st.sampled_from(("a", "a", "b", "c", "")))
        args["candidates"].append(dict(
            candidate_id=f"c{i}", answer_raw=answer, answer_key=answer,
            correct=answer == right if labeled else None,
            disc_score=draw(FINITE) if disc else None,
            gen_scores=draw(st.lists(FINITE, min_size=m, max_size=m)) if gen else None,
        ))
    field = draw(st.sampled_from((None,) * 4 + tuple(ODD)))
    if field == "problem_id":
        args[field] = draw(st.sampled_from(ODD[field]))
    elif field is not None and size:
        target = args["candidates"][draw(st.integers(0, size - 1))]
        target[field] = draw(st.sampled_from(ODD[field]))
        if field == "answer_raw" and isinstance(target[field], str):
            target["answer_key"] = target[field]
    return args


class TestCodeBuiltPools:
    """Whatever a pool built in code holds, each rule and the evaluator
    return or fail with a VeriselError or ValueError, never a raw one."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(code_built_pools(), st.sampled_from(("sigmoid", "raw")),
           st.sampled_from((None, 1, 2, 2.0, True)), st.integers(1, 7),
           st.booleans())
    def test_only_named_errors(self, args, transform, m, n, random_ties):
        try:
            problem = Problem(args["problem_id"],
                              [Candidate(**c) for c in args["candidates"]])
        except (VeriselError, ValueError):
            return
        rng = np.random.default_rng(0) if random_ties else None
        for method in METHODS:
            try:
                select_answer(problem, method, m_verifications=m,
                              transform=transform, rng=rng)
            except (VeriselError, ValueError):
                pass
            cfg = EvalConfig(n=n, method=method, draws=3, m_verifications=m,
                             transform=transform)
            try:
                bootstrap_accuracy([problem], cfg)
            except (VeriselError, ValueError):
                pass
