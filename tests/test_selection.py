"""The five selection rules: contract examples, properties, oracle checks."""

import math

import numpy as np
import pytest

from verisel import (
    Candidate,
    EmptyPoolError,
    Problem,
    cluster_by_answer,
    select_answer,
    select_bon,
    select_gpv,
    select_pv,
    select_sc,
    select_wsc,
)
from verisel.selection import candidate_scores, sigmoid

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
        with pytest.raises(ValueError, match="invalid alpha"):
            select_pv(clusters(["A"], [0.5]), alpha=-0.1)

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
